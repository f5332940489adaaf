#include "bounds/triplewise.hh"

#include <algorithm>
#include <memory>

#include "bounds/bound_limits.hh"
#include "bounds/bound_scratch.hh"
#include "bounds/pair_sweep.hh"
#include "bounds/relaxation.hh"
#include "support/diagnostics.hh"
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
 *         evaluation would otherwise move where the budget cuts.
 */
bool
budgetCannotBind(int numBr, const TriplewiseOptions &opts)
{
    long long triples =
        (long long)numBr * (numBr - 1) * (numBr - 2) / 6;
    long long span = (long long)opts.maxLatRange + 1;
    return span * span <= opts.maxEvals / triples;
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
    TripleSweepCache cache(ctx, machine, earlyRC, lateRCPerBranch,
                           *scratch);

    const bool pruneGate = budgetCannotBind(numBr, opts);

    // Per-branch accumulation for the partial Theorem 3 extension.
    std::vector<double> sums(std::size_t(numBr), 0.0);
    std::vector<long long> counts(std::size_t(numBr), 0);
    long long evals = 0;

    // The enumeration order is load-bearing: maxEvals may truncate
    // it, so visiting triples in any other order would change which
    // ones contribute to the partial aggregate. A triple the budget
    // cuts mid-sweep is dropped: its minimum over part of the (a, b)
    // grid is not a lower bound.
    for (int bi = 0; bi < numBr && evals < opts.maxEvals; ++bi) {
        for (int bj = bi + 1; bj < numBr && evals < opts.maxEvals; ++bj) {
            for (int bk = bj + 1; bk < numBr && evals < opts.maxEvals;
                 ++bk) {
                OpId i = sb.branches()[std::size_t(bi)];
                OpId j = sb.branches()[std::size_t(bj)];
                OpId k = sb.branches()[std::size_t(bk)];
                double wi = sb.exitProb(i);
                double wj = sb.exitProb(j);
                double wk = sb.exitProb(k);

                cache.bindSink(bk);
                cache.bindTriple(bi, bj);
                int ei = cache.ei();
                int ej = cache.ej();
                int ek = cache.ek();

                int aMin = sb.op(i).latency;
                int bMin = sb.op(j).latency;
                // Unlike the pairwise case, Theorem 2's termination
                // property does not transfer to the i-coordinate of
                // a triple (x derives from the k-anchored bound), so
                // the a-sweep may need to reach past EarlyRC[j] + 1;
                // the boundary column below keeps any cap sound.
                int aCap = std::min(ek + 1, aMin + opts.maxLatRange);
                int bCap = std::min(ek + 1, bMin + opts.maxLatRange);

                TriplePoint best;
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
                // y >= max(ej, ei + a) and z >= max(ek, ei + a + b)
                // (i reaches k through j; DESIGN.md §5), and the
                // boundary column pins (x, y) to (ei, ej). Priced by
                // the same expression as record, a floor at or above
                // bestCost marks a point that cannot win. The floor
                // on z holds only up to maxBoundCycle, where
                // composeBound saturates.
                const bool prune =
                    pruneGate &&
                    std::max(ek, ei + aCap + bCap) <= maxBoundCycle;
                auto dead = [&](int a, int b) {
                    if (!prune || !haveBest)
                        return false;
                    int fy = a == aCap ? ej : std::max(ej, ei + a);
                    return cost(ei, fy, std::max(ek, ei + a + b)) >=
                           bestCost;
                };

                for (int a = aMin; a <= aCap; ++a) {
                    // Floors rise with a up to the boundary column,
                    // whose pinned (x, y) may sit lower: once both
                    // are dead, no later point or capped fallback
                    // can win.
                    if (dead(a, bMin) && dead(aCap, bMin))
                        break;
                    bool columnAllXAtFloor = true;
                    int yFloor = std::max(ej, ei + a);
                    bool innerBroke = false;
                    bool pruned = false;
                    TriplePoint last{};
                    for (int b = bMin; b <= bCap; ++b) {
                        // Floors rise with b, and the capped fallback
                        // costs at least floor(a, bCap). The first
                        // point always runs: x == ei forces the break
                        // below, so it alone decides
                        // columnAllXAtFloor.
                        if (b > bMin && dead(a, b)) {
                            pruned = true;
                            break;
                        }
                        TriplePoint pt = cache.eval(a, b, counters);
                        ++evals;
                        // Boundary column: relax coordinates to the
                        // individual bounds so separations beyond the
                        // sweep stay covered (sound: only lowers).
                        if (a == aCap) {
                            pt.x = ei;
                            pt.y = ej;
                        }
                        record(pt);
                        last = pt;
                        if (pt.x != ei)
                            columnAllXAtFloor = false;
                        // Once both x and y sit at their floors for
                        // this column, larger b only raises z:
                        // schedules with larger separations are
                        // dominated by this candidate.
                        if (pt.x == ei && pt.y <= yFloor) {
                            innerBroke = true;
                            break;
                        }
                        if (evals >= opts.maxEvals && b < bCap) {
                            cut = true;
                            break;
                        }
                    }
                    if (cut)
                        break;
                    if (!innerBroke && !pruned) {
                        // Capped fallback covering separations past
                        // bCap at this exact a.
                        TriplePoint capped{ei, yFloor, last.z};
                        if (a == aCap)
                            capped.y = ej;
                        record(capped);
                    }
                    if (columnAllXAtFloor)
                        break;
                    if (evals >= opts.maxEvals && a < aCap) {
                        cut = true;
                        break;
                    }
                }

                if (haveBest && !cut) {
                    sums[std::size_t(bi)] += best.x;
                    sums[std::size_t(bj)] += best.y;
                    sums[std::size_t(bk)] += best.z;
                    ++counts[std::size_t(bi)];
                    ++counts[std::size_t(bj)];
                    ++counts[std::size_t(bk)];
                    ++result.triplesEvaluated;
                }
            }
        }
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
