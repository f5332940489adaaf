#include "bounds/triplewise.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "bounds/bound_limits.hh"
#include "bounds/bound_scratch.hh"
#include "bounds/pair_sweep.hh"
#include "bounds/relaxation.hh"
#include "support/diagnostics.hh"
#include "support/parallel_for.hh"
#include "support/perf_counters.hh"

namespace balance
{

namespace
{

/**
 * @return true when maxEvals cannot bind on a superblock with
 *         @p numBr branches: a triple's grid holds at most
 *         (maxLatRange + 1)^2 points, so C(numBr, 3) full grids fit.
 *         Only then may the sweep skip points, since a skipped
 *         evaluation would otherwise move where the budget cuts, and
 *         only then are the triples' sweeps independent of each
 *         other.
 */
bool
budgetCannotBind(int numBr, const TriplewiseOptions &opts)
{
    long long triples =
        (long long)numBr * (numBr - 1) * (numBr - 2) / 6;
    long long span = (long long)opts.maxLatRange + 1;
    return span * span <= opts.maxEvals / triples;
}

/** What one triple's sweep contributes (a fan-out slot). */
struct TripleSweep
{
    TriplePoint best;
    bool counted = false; //!< swept to its end, so best bounds it
    long long evals = 0;  //!< relaxations run
    BoundCounters trips;  //!< its loop trips
};

/**
 * One triple's grid on a cache bound to it: the EarlyRC anchors, the
 * exit weights and the separation ranges, a in [aMin, aCap] and b in
 * [bMin, bCap].
 */
struct TripleGrid
{
    int ei = 0, ej = 0;
    double wi = 0.0, wj = 0.0, wk = 0.0;
    int aMin = 0, bMin = 0, aCap = 0, bCap = 0;

    /** Bind @p cache to the triple (bi, bj, sink) and read its grid. */
    TripleGrid(TripleSweepCache &cache, const detail::SinkSkeleton &sink,
               int bi, int bj, const Superblock &sb,
               const TriplewiseOptions &opts)
    {
        cache.bindSink(sink);
        cache.bindTriple(bi, bj);
        ei = cache.ei();
        ej = cache.ej();
        int ek = cache.ek();
        OpId i = sb.branches()[std::size_t(bi)];
        OpId j = sb.branches()[std::size_t(bj)];
        wi = sb.exitProb(i);
        wj = sb.exitProb(j);
        wk = sb.exitProb(sink.sink);
        aMin = sb.op(i).latency;
        bMin = sb.op(j).latency;
        // Unlike the pairwise case, Theorem 2's termination property
        // does not transfer to the i-coordinate of a triple (x derives
        // from the k-anchored bound), so the a-sweep may need to reach
        // past EarlyRC[j] + 1; the boundary column keeps any cap sound.
        aCap = std::min(ek + 1, aMin + opts.maxLatRange);
        bCap = std::min(ek + 1, bMin + opts.maxLatRange);
    }

    /** The weighted cost a triple's best minimizes. */
    double cost(int x, int y, int z) const
    {
        return wi * x + wj * y + wk * z;
    }
    double cost(const TriplePoint &pt) const
    {
        return cost(pt.x, pt.y, pt.z);
    }

    /**
     * @return the y of column @p a's capped fallback, a floor on the y
     *         of each of its points: max(e_j, e_i + a), or e_j at the
     *         boundary column, whose (x, y) are pinned.
     */
    int yFloor(int a) const
    {
        return a == aCap ? ej : std::max(ej, ei + a);
    }

    /**
     * eval(a, b), with the boundary column's (x, y) relaxed to the
     * individual bounds so separations beyond the sweep stay covered
     * (sound: only lowers).
     */
    TriplePoint eval(TripleSweepCache &cache, int a, int b,
                     TripleSweep &out) const
    {
        TriplePoint pt = cache.eval(a, b, &out.trips);
        ++out.evals;
        if (a == aCap) {
            pt.x = ei;
            pt.y = ej;
        }
        return pt;
    }

    /**
     * The point floor at (a, b), in O(1): eval(a, b) returns
     * z >= f_z = min(cp(a, b), maxBoundCycle), where cp is the
     * critical path it composes, then y = max(z - b, e_j) and
     * x = max(y - a, e_i), and y >= e_i + a besides (DESIGN.md §5).
     */
    TriplePoint floorAt(const TripleSweepCache &cache, int a, int b) const
    {
        int fz = int(std::min<long long>(cache.criticalPath(a, b),
                                         maxBoundCycle));
        if (a == aCap)
            return {ei, ej, fz};
        int fy = std::max({ej, ei + a, fz - b});
        return {std::max(ei, fy - a), fy, fz};
    }
};

/**
 * Sweep the (a, b) grid of the triple bound on @p g, evaluating
 * every point the unpruned reference does, in its order: the sweep
 * for superblocks where maxEvals may bind.
 *
 * @param evalsLeft Evaluations the budget still allows; a sweep that
 *        spends them with grid points left is cut and not counted.
 */
TripleSweep
sweepTriple(TripleSweepCache &cache, const TripleGrid &g,
            long long evalsLeft)
{
    TripleSweep out;
    TriplePoint &best = out.best;
    double bestCost = 0.0;
    bool haveBest = false;
    bool cut = false;
    auto record = [&](TriplePoint pt) {
        double c = g.cost(pt);
        if (!haveBest || c < bestCost) {
            best = pt;
            bestCost = c;
            haveBest = true;
        }
    };

    for (int a = g.aMin; a <= g.aCap; ++a) {
        bool columnAllXAtFloor = true;
        int yFloor = g.yFloor(a);
        bool innerBroke = false;
        TriplePoint last{};
        for (int b = g.bMin; b <= g.bCap; ++b) {
            TriplePoint pt = g.eval(cache, a, b, out);
            record(pt);
            last = pt;
            if (pt.x != g.ei)
                columnAllXAtFloor = false;
            // Once both x and y sit at their floors for this column,
            // larger b only raises z: schedules with larger
            // separations are dominated by this candidate.
            if (pt.x == g.ei && pt.y <= yFloor) {
                innerBroke = true;
                break;
            }
            if (out.evals >= evalsLeft && b < g.bCap) {
                cut = true;
                break;
            }
        }
        if (cut)
            break;
        if (!innerBroke) {
            // Capped fallback covering separations past bCap at this
            // exact a.
            record({g.ei, yFloor, last.z});
        }
        if (columnAllXAtFloor)
            break;
        if (out.evals >= evalsLeft && a < g.aCap) {
            cut = true;
            break;
        }
    }
    // A triple the budget cuts mid-sweep is dropped: its minimum over
    // part of the (a, b) grid is not a lower bound.
    out.counted = haveBest && !cut;
    return out;
}

/**
 * Sweep the grid of the triple bound on @p g to the best
 * sweepTriple finds uncut, running only the relaxations that can
 * win or that decide where a column or the sweep ends (DESIGN.md §5,
 * "Triplewise floor pruning"). It never cuts, so it runs only where
 * maxEvals cannot bind.
 *
 * A point ends its column exactly when its x = e_i, and the sweep
 * when it is its column's first. A point with f_x > e_i can do
 * neither, so the full sweep reaches it whenever it reaches the point
 * before it, and it matters only through its cost, or through its z
 * when it is (a, bCap) and the column's fallback is recorded.
 */
TripleSweep
sweepTriplePruned(TripleSweepCache &cache, const TripleGrid &g)
{
    TripleSweep out;
    // Reference order: (a, b) ascending, with a column's capped
    // fallback (b = bCap + 1) after its points. Of equal costs the
    // full sweep keeps the first in this order; points here may be
    // recorded out of it, so record and every skip compare
    // (cost, position).
    const long long rowLen = (long long)g.bCap - g.bMin + 2;
    auto pos = [&](int a, int b) {
        return (a - g.aMin) * rowLen + (b - g.bMin);
    };
    double bestCost = 0.0;
    long long bestPos = -1; // none yet
    // Can cost @p c at position @p p displace the best? Asked of a
    // floor, "no" means nothing it bounds can.
    auto beats = [&](double c, long long p) {
        return bestPos < 0 || c < bestCost ||
               (c == bestCost && p < bestPos);
    };
    auto record = [&](TriplePoint pt, long long p) {
        double c = g.cost(pt);
        if (beats(c, p)) {
            out.best = pt;
            bestCost = c;
            bestPos = p;
        }
    };
    // The column floor at (a, b): cost(e_i, yFloor(a), f_z(a, b))
    // bounds the point, every later point of its column and the
    // column's fallback, since cp rises with b. It rises with a too,
    // up to the boundary column.
    auto columnFloor = [&](int a, int fz) {
        return g.cost(g.ei, g.yFloor(a), fz);
    };

    for (int a = g.aMin; a <= g.aCap; ++a) {
        // The best so far comes from earlier columns, so a tie loses:
        // once this column's first floor and the boundary's are dead,
        // no later point or fallback can win.
        if (!beats(columnFloor(a, g.floorAt(cache, a, g.bMin).z),
                   pos(a, g.bMin)) &&
            !beats(columnFloor(g.aCap, g.floorAt(cache, g.aCap, g.bMin).z),
                   pos(g.aCap, g.bMin)))
            break;
        int yFloor = g.yFloor(a);
        bool canEnd = false;
        for (int b = g.bMin; b <= g.bCap && !canEnd; ++b)
            canEnd = g.floorAt(cache, a, b).x == g.ei;
        int bLast = g.bCap;
        if (!canEnd) {
            // No point can end this column, so the full sweep walks
            // all of it and records its fallback. Take (a, bCap),
            // whose z the fallback shares, and the fallback first:
            // the walk then prunes against them.
            if (beats(columnFloor(a, g.floorAt(cache, a, g.bCap).z),
                      pos(a, g.bCap))) {
                TriplePoint pt = g.eval(cache, a, g.bCap, out);
                record(pt, pos(a, g.bCap));
                record({g.ei, yFloor, pt.z}, pos(a, g.bCap + 1));
            }
            bLast = g.bCap - 1;
        }

        bool ended = false;     // a point with x = e_i ended the column
        bool retired = false;   // its column floor went dead
        bool sweepEnds = false; // the column's first point ended it
        TriplePoint last{};
        for (int b = g.bMin; b <= bLast; ++b) {
            TriplePoint f = g.floorAt(cache, a, b);
            bool mayEnd = f.x == g.ei;
            // f_y and f_x do not rise with b (f_z - b can fall), so the
            // point floor skips single points; the column floor
            // retires the rest. The first point still runs when it
            // may end the sweep.
            bool dead = !beats(columnFloor(a, f.z), pos(a, b));
            if (dead && !(b == g.bMin && mayEnd)) {
                retired = true;
                break;
            }
            if (!mayEnd && b < g.bCap && !beats(g.cost(f), pos(a, b)))
                continue;
            TriplePoint pt = g.eval(cache, a, b, out);
            record(pt, pos(a, b));
            last = pt;
            if (pt.x == g.ei) {
                ended = true;
                sweepEnds = b == g.bMin;
                break;
            }
            if (dead) {
                retired = true;
                break;
            }
        }
        if (canEnd && !ended && !retired)
            record({g.ei, yFloor, last.z}, pos(a, g.bCap + 1));
        if (sweepEnds)
            break;
    }
    out.counted = bestPos >= 0;
    return out;
}

} // namespace

TriplewiseResult
computeTriplewise(const GraphContext &ctx, const MachineModel &machine,
                  const std::vector<int> &earlyRC,
                  const std::vector<std::vector<int>> &lateRCPerBranch,
                  const PairwiseBounds &pw, const TriplewiseOptions &opts,
                  BoundCounters *counters, BoundScratch *scratch)
{
    PerfRegion perf(PerfPhase::TripleSweep);
    const Superblock &sb = ctx.sb();
    int numBr = sb.numBranches();

    TriplewiseResult result;
    if (numBr < 3 || numBr > opts.maxBranches) {
        result.wct = pw.superblockWct();
        result.fellBack = true;
        return result;
    }

    std::unique_ptr<BoundScratch> owned;
    if (!scratch) {
        owned = std::make_unique<BoundScratch>(machine);
        scratch = owned.get();
    }
    detail::SkeletonTable skeletons(ctx, earlyRC, lateRCPerBranch);
    BoundEngineStats &stats = scratch->stats;

    // Per-branch accumulation for the partial Theorem 3 extension,
    // folded in enumeration order.
    std::vector<double> sums(std::size_t(numBr), 0.0);
    std::vector<long long> counts(std::size_t(numBr), 0);
    auto fold = [&](int bi, int bj, int bk, const TripleSweep &s) {
        tick(counters, s.trips.trips);
        if (!s.counted)
            return;
        sums[std::size_t(bi)] += s.best.x;
        sums[std::size_t(bj)] += s.best.y;
        sums[std::size_t(bk)] += s.best.z;
        ++counts[std::size_t(bi)];
        ++counts[std::size_t(bj)];
        ++counts[std::size_t(bk)];
        ++result.triplesEvaluated;
    };

    if (!budgetCannotBind(numBr, opts)) {
        // maxEvals may truncate the enumeration, so its order is
        // load-bearing: visiting triples in any other order would
        // change which ones contribute to the partial aggregate. One
        // in-order sweep on this thread, evaluating every point.
        TripleSweepCache cache(ctx, machine, earlyRC, *scratch);
        long long evals = 0;
        for (int bi = 0; bi < numBr && evals < opts.maxEvals; ++bi) {
            for (int bj = bi + 1; bj < numBr && evals < opts.maxEvals;
                 ++bj) {
                for (int bk = bj + 1; bk < numBr && evals < opts.maxEvals;
                     ++bk) {
                    TripleGrid grid(
                        cache,
                        skeletons.get(bk, stats.tripleSkeletonHits,
                                      stats.tripleSkeletonMisses),
                        bi, bj, sb, opts);
                    TripleSweep s = sweepTriple(
                        cache, grid, opts.maxEvals - evals);
                    evals += s.evals;
                    fold(bi, bj, bk, s);
                }
            }
        }
    } else {
        // The budget cannot cut, so every triple is swept to its end
        // and its sweep depends on nothing outside it: pruning
        // compares points only with the triple's own best. The
        // triples run as slots on the pool and fold in enumeration
        // order, which reproduces the serial sweep's values, trips
        // and telemetry on any number of lanes.
        std::vector<std::array<int, 3>> triples;
        for (int bi = 0; bi < numBr; ++bi)
            for (int bj = bi + 1; bj < numBr; ++bj)
                for (int bk = bj + 1; bk < numBr; ++bk)
                    triples.push_back({bi, bj, bk});

        // Every skeleton is built here, before any lane reads it (the
        // build also fills GraphContext's unsynchronized closure
        // cache). As in the serial sweep, each triple binds its sink
        // once and all binds but a sink's first are hits.
        std::vector<const detail::SinkSkeleton *> sinks(
            std::size_t(numBr), nullptr);
        for (int bk = 2; bk < numBr; ++bk)
            sinks[std::size_t(bk)] =
                &skeletons.get(bk, stats.tripleSkeletonHits,
                               stats.tripleSkeletonMisses);
        stats.tripleSkeletonHits += (long long)triples.size() - (numBr - 2);

        // Lane 0 borrows the caller's scratch, which the caller leaves
        // alone until the fan-out joins; other lanes make their own.
        std::vector<TripleSweep> slots(triples.size());
        const int lanes = parallelLanes(triples.size(),
                                        ThreadPool::global().numThreads());
        std::vector<std::optional<BoundScratch>> laneScratch(
            static_cast<std::size_t>(lanes));
        parallelForLanes(
            triples.size(),
            [&](std::size_t t, int lane) {
                std::optional<BoundScratch> &own =
                    laneScratch[std::size_t(lane)];
                BoundScratch &s =
                    lane == 0 ? *scratch : own ? *own : own.emplace(machine);
                TripleSweepCache cache(ctx, machine, earlyRC, s);
                const auto &[bi, bj, bk] = triples[t];
                TripleGrid grid(cache, *sinks[std::size_t(bk)], bi, bj, sb,
                                opts);
                slots[t] = sweepTriplePruned(cache, grid);
            },
            lanes);
        for (const std::optional<BoundScratch> &own : laneScratch)
            if (own)
                scratch->absorbLane(*own);
        for (std::size_t t = 0; t < triples.size(); ++t)
            fold(triples[t][0], triples[t][1], triples[t][2], slots[t]);
    }

    long long cmax = *std::max_element(counts.begin(), counts.end());
    if (cmax == 0) {
        result.wct = pw.superblockWct();
        result.fellBack = true;
        return result;
    }

    // Partial Theorem 3: pad branches with fewer triples using the
    // singleton inequality t_m >= EarlyRC[m], then average by cmax.
    double wct = 0.0;
    for (int m = 0; m < numBr; ++m) {
        OpId opM = sb.branches()[std::size_t(m)];
        double w = sb.exitProb(opM);
        double padded = sums[std::size_t(m)] +
                        double(cmax - counts[std::size_t(m)]) *
                            double(earlyRC[std::size_t(opM)]);
        wct += w * (padded / double(cmax) + sb.op(opM).latency);
    }
    result.wct = wct;
    return result;
}

} // namespace balance
