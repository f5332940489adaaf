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
 * Sweep the (a, b) grid of the triple (bi, bj, sink) on @p cache.
 *
 * @param prune Skip points whose cost floor cannot beat the triple's
 *        best; sound only where the budget cannot bind.
 * @param evalsLeft Evaluations the budget still allows; a sweep that
 *        spends them with grid points left is cut and not counted.
 */
TripleSweep
sweepTriple(TripleSweepCache &cache, const detail::SinkSkeleton &sink,
            int bi, int bj, const Superblock &sb,
            const TriplewiseOptions &opts, bool prune, long long evalsLeft)
{
    TripleSweep out;
    cache.bindSink(sink);
    cache.bindTriple(bi, bj);
    int ei = cache.ei();
    int ej = cache.ej();
    int ek = cache.ek();

    OpId i = sb.branches()[std::size_t(bi)];
    OpId j = sb.branches()[std::size_t(bj)];
    double wi = sb.exitProb(i);
    double wj = sb.exitProb(j);
    double wk = sb.exitProb(sink.sink);
    int aMin = sb.op(i).latency;
    int bMin = sb.op(j).latency;
    // Unlike the pairwise case, Theorem 2's termination property does
    // not transfer to the i-coordinate of a triple (x derives from
    // the k-anchored bound), so the a-sweep may need to reach past
    // EarlyRC[j] + 1; the boundary column below keeps any cap sound.
    int aCap = std::min(ek + 1, aMin + opts.maxLatRange);
    int bCap = std::min(ek + 1, bMin + opts.maxLatRange);

    TriplePoint &best = out.best;
    double bestCost = 0.0;
    bool haveBest = false;
    bool cut = false;
    auto cost = [&](int x, int y, int z) {
        return wi * x + wj * y + wk * z;
    };
    auto record = [&](TriplePoint pt) {
        double c = cost(pt.x, pt.y, pt.z);
        if (!haveBest || c < bestCost) {
            best = pt;
            bestCost = c;
            haveBest = true;
        }
    };

    // Every point eval returns at (a, b) has x >= ei,
    // y >= max(ej, ei + a) and z >= min(cp(a, b), maxBoundCycle),
    // where cp is the critical path it composes (DESIGN.md §5), and
    // the boundary column pins (x, y) to (ei, ej). Priced by the same
    // expression as record, a floor at or above bestCost marks a
    // point that cannot win.
    auto dead = [&](int a, int b) {
        if (!prune || !haveBest)
            return false;
        int fy = a == aCap ? ej : std::max(ej, ei + a);
        int fz = int(std::min<long long>(cache.criticalPath(a, b),
                                         maxBoundCycle));
        return cost(ei, fy, fz) >= bestCost;
    };

    for (int a = aMin; a <= aCap; ++a) {
        // Floors rise with a up to the boundary column, whose pinned
        // (x, y) may sit lower: once both are dead, no later point or
        // capped fallback can win.
        if (dead(a, bMin) && dead(aCap, bMin))
            break;
        bool columnAllXAtFloor = true;
        int yFloor = std::max(ej, ei + a);
        bool innerBroke = false;
        bool pruned = false;
        TriplePoint last{};
        for (int b = bMin; b <= bCap; ++b) {
            // Floors rise with b, and the capped fallback costs at
            // least floor(a, bCap). The first point always runs:
            // x == ei forces the break below, so it alone decides
            // columnAllXAtFloor.
            if (b > bMin && dead(a, b)) {
                pruned = true;
                break;
            }
            TriplePoint pt = cache.eval(a, b, &out.trips);
            ++out.evals;
            // Boundary column: relax coordinates to the individual
            // bounds so separations beyond the sweep stay covered
            // (sound: only lowers).
            if (a == aCap) {
                pt.x = ei;
                pt.y = ej;
            }
            record(pt);
            last = pt;
            if (pt.x != ei)
                columnAllXAtFloor = false;
            // Once both x and y sit at their floors for this column,
            // larger b only raises z: schedules with larger
            // separations are dominated by this candidate.
            if (pt.x == ei && pt.y <= yFloor) {
                innerBroke = true;
                break;
            }
            if (out.evals >= evalsLeft && b < bCap) {
                cut = true;
                break;
            }
        }
        if (cut)
            break;
        if (!innerBroke && !pruned) {
            // Capped fallback covering separations past bCap at this
            // exact a.
            TriplePoint capped{ei, yFloor, last.z};
            if (a == aCap)
                capped.y = ej;
            record(capped);
        }
        if (columnAllXAtFloor)
            break;
        if (out.evals >= evalsLeft && a < aCap) {
            cut = true;
            break;
        }
    }
    // A triple the budget cuts mid-sweep is dropped: its minimum over
    // part of the (a, b) grid is not a lower bound.
    out.counted = haveBest && !cut;
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
                    TripleSweep s = sweepTriple(
                        cache,
                        skeletons.get(bk, stats.tripleSkeletonHits,
                                      stats.tripleSkeletonMisses),
                        bi, bj, sb, opts, /*prune=*/false,
                        opts.maxEvals - evals);
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
                slots[t] = sweepTriple(cache, *sinks[std::size_t(bk)], bi,
                                       bj, sb, opts, /*prune=*/true,
                                       opts.maxEvals);
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
