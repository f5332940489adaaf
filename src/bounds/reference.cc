#include "bounds/reference.hh"

#include <algorithm>

#include "support/diagnostics.hh"

namespace balance
{

namespace reference
{

namespace
{

/**
 * Nested-vector DAG, exactly the pre-engine representation: one heap
 * allocation per node and per adjacency list. The main path moved to
 * a flat CSR Dag; this copy keeps the baseline honest.
 */
struct NaiveDag
{
    std::vector<OpClass> cls;
    std::vector<std::vector<Adjacent>> preds;
    std::vector<std::vector<Adjacent>> succs;

    int n() const { return int(cls.size()); }

    static NaiveDag
    fromSuperblock(const Superblock &sb)
    {
        NaiveDag dag;
        int v = sb.numOps();
        dag.cls.resize(std::size_t(v));
        dag.preds.resize(std::size_t(v));
        dag.succs.resize(std::size_t(v));
        for (OpId id = 0; id < v; ++id) {
            dag.cls[std::size_t(id)] = sb.op(id).cls;
            auto p = sb.preds(id);
            dag.preds[std::size_t(id)].assign(p.begin(), p.end());
            auto s = sb.succs(id);
            dag.succs[std::size_t(id)].assign(s.begin(), s.end());
        }
        return dag;
    }

    static NaiveDag
    reversedClosure(const Superblock &sb, const DynBitset &nodes,
                    std::vector<OpId> *newToOld)
    {
        bsAssert(nodes.size() == std::size_t(sb.numOps()),
                 "node mask universe mismatch");

        std::vector<OpId> order = nodes.toIndices().empty()
            ? std::vector<OpId>{}
            : [&] {
                  auto idx = nodes.toIndices();
                  std::vector<OpId> ord(idx.rbegin(), idx.rend());
                  return ord;
              }();
        bsAssert(!order.empty(), "reversedClosure of empty node set");

        std::vector<int> newIdOf(std::size_t(sb.numOps()), -1);
        for (std::size_t i = 0; i < order.size(); ++i)
            newIdOf[std::size_t(order[i])] = int(i);

        NaiveDag dag;
        dag.cls.resize(order.size());
        dag.preds.resize(order.size());
        dag.succs.resize(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            OpId orig = order[i];
            dag.cls[i] = sb.op(orig).cls;
            for (const Adjacent &e : sb.succs(orig)) {
                int nid = newIdOf[std::size_t(e.op)];
                if (nid >= 0)
                    dag.preds[i].push_back({OpId(nid), e.latency});
            }
            for (const Adjacent &e : sb.preds(orig)) {
                int nid = newIdOf[std::size_t(e.op)];
                if (nid >= 0)
                    dag.succs[i].push_back({OpId(nid), e.latency});
            }
        }
        if (newToOld)
            *newToOld = std::move(order);
        return dag;
    }
};

std::vector<int>
naiveLcEarlyRC(const NaiveDag &dag, const MachineModel &machine,
               const LcOptions &opts, BoundCounters *counters)
{
    int n = dag.n();
    std::vector<int> earlyRC(std::size_t(n), 0);
    std::vector<int> height(std::size_t(n), -1);
    std::vector<RelaxItem> items;

    for (int v = 0; v < n; ++v) {
        const auto &preds = dag.preds[std::size_t(v)];
        if (preds.empty()) {
            earlyRC[std::size_t(v)] = 0;
            continue;
        }

        int depEarly = 0;
        for (const Adjacent &e : preds) {
            depEarly = std::max(depEarly,
                                earlyRC[std::size_t(e.op)] + e.latency);
        }

        if (opts.useTheorem1 && preds.size() == 1 &&
            preds[0].latency > 0) {
            earlyRC[std::size_t(v)] = depEarly;
            tick(counters);
            continue;
        }

        std::fill(height.begin(), height.begin() + v + 1, -1);
        height[std::size_t(v)] = 0;
        for (int x = v; x >= 0; --x) {
            if (height[std::size_t(x)] < 0)
                continue;
            for (const Adjacent &e : dag.preds[std::size_t(x)]) {
                height[std::size_t(e.op)] =
                    std::max(height[std::size_t(e.op)],
                             height[std::size_t(x)] + e.latency);
                tick(counters);
            }
        }

        int cp = depEarly;
        for (int x = 0; x < v; ++x) {
            if (height[std::size_t(x)] >= 0) {
                cp = std::max(cp, earlyRC[std::size_t(x)] +
                                      height[std::size_t(x)]);
            }
            tick(counters);
        }

        items.clear();
        for (int x = 0; x <= v; ++x) {
            if (height[std::size_t(x)] < 0)
                continue;
            int early = x == v ? depEarly : earlyRC[std::size_t(x)];
            items.push_back({OpId(x), dag.cls[std::size_t(x)], early,
                             cp - height[std::size_t(x)]});
        }
        int tard = reference::rjMaxTardiness(machine, items, counters);
        earlyRC[std::size_t(v)] =
            std::max(depEarly, composeBound(cp, tard));
    }
    return earlyRC;
}

std::vector<int>
naiveCpEarly(const GraphContext &ctx)
{
    const Superblock &sb = ctx.sb();
    std::vector<int> out;
    out.reserve(std::size_t(sb.numBranches()));
    for (OpId b : sb.branches())
        out.push_back(ctx.earlyDC()[std::size_t(b)]);
    return out;
}

std::vector<int>
naiveHuEarly(const GraphContext &ctx, const MachineModel &machine,
             BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    std::vector<int> out;
    out.reserve(std::size_t(sb.numBranches()));

    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        int anchor = ctx.earlyDC()[std::size_t(b)];
        const std::vector<int> &height = ctx.heightToBranch(bi);

        std::vector<std::vector<int>> lateByPool(
            std::size_t(machine.numResources()));
        for (OpId v = 0; v <= b; ++v) {
            if (height[std::size_t(v)] < 0)
                continue;
            int late = anchor - height[std::size_t(v)];
            ResourceId r = machine.poolOf(sb.op(v).cls);
            lateByPool[std::size_t(r)].push_back(late);
            tick(counters);
        }

        int delay = 0;
        for (int r = 0; r < machine.numResources(); ++r) {
            auto &lates = lateByPool[std::size_t(r)];
            std::sort(lates.begin(), lates.end());
            int width = machine.width(r);
            for (std::size_t k = 0; k < lates.size(); ++k) {
                long long need = (long long)(k) + 1;
                long long avail = (long long)(width) * (lates[k] + 1);
                if (need > avail) {
                    int d = int((need - avail + width - 1) / width);
                    delay = std::max(delay, d);
                }
                tick(counters);
            }
        }
        out.push_back(anchor + delay);
    }
    return out;
}

std::vector<int>
naiveRjEarly(const GraphContext &ctx, const MachineModel &machine,
             BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    std::vector<int> out;
    out.reserve(std::size_t(sb.numBranches()));

    std::vector<RelaxItem> items;
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        int anchor = ctx.earlyDC()[std::size_t(b)];
        const std::vector<int> &height = ctx.heightToBranch(bi);

        items.clear();
        for (OpId v = 0; v <= b; ++v) {
            if (height[std::size_t(v)] < 0)
                continue;
            items.push_back({v, sb.op(v).cls,
                             ctx.earlyDC()[std::size_t(v)],
                             anchor - height[std::size_t(v)]});
            tick(counters);
        }
        int tard = reference::rjMaxTardiness(machine, items, counters);
        out.push_back(composeBound(anchor, tard));
    }
    return out;
}

double
naiveWctFromBranchEarly(const Superblock &sb,
                        const std::vector<int> &earlyPerBranch)
{
    double wct = 0.0;
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        wct += sb.exitProb(b) *
               (earlyPerBranch[std::size_t(bi)] + sb.op(b).latency);
    }
    return wct;
}

/** One sweep point of the naive pairwise search (two full passes). */
PairPoint
evalPair(const GraphContext &ctx, const MachineModel &machine,
         const std::vector<int> &earlyRC, const std::vector<int> &lateRCj,
         OpId i, OpId j, int bi, int bj, int latency,
         BoundCounters *counters)
{
    const std::vector<int> &heightI = ctx.heightToBranch(bi);
    const std::vector<int> &heightJ = ctx.heightToBranch(bj);
    int ei = earlyRC[std::size_t(i)];
    int ej = earlyRC[std::size_t(j)];

    int cp = ej;
    for (OpId x = 0; x <= j; ++x) {
        int hj = heightJ[std::size_t(x)];
        if (hj < 0)
            continue;
        int h = hj;
        int hi = heightI[std::size_t(x)];
        if (hi >= 0)
            h = std::max(h, hi + latency);
        cp = std::max(cp, earlyRC[std::size_t(x)] + h);
        tick(counters);
    }

    std::vector<RelaxItem> items;
    for (OpId x = 0; x <= j; ++x) {
        int hj = heightJ[std::size_t(x)];
        if (hj < 0)
            continue;
        int h = hj;
        int hi = heightI[std::size_t(x)];
        if (hi >= 0)
            h = std::max(h, hi + latency);
        int late = cp - h;
        if (lateRCj[std::size_t(x)] != lateUnconstrained)
            late = std::min(late, lateRCj[std::size_t(x)] + (cp - ej));
        items.push_back({x, ctx.sb().op(x).cls, earlyRC[std::size_t(x)],
                         late});
    }
    int tard = reference::rjMaxTardiness(machine, items, counters);

    PairPoint pt;
    pt.y = composeBound(cp, tard);
    pt.x = std::max(pt.y - latency, ei);
    return pt;
}

/** One grid point of the naive triplewise search. */
struct TriplePoint
{
    int x = 0;
    int y = 0;
    int z = 0;
};

TriplePoint
evalTriple(const GraphContext &ctx, const MachineModel &machine,
           const std::vector<int> &earlyRC,
           const std::vector<int> &lateRCk, OpId i, OpId j, OpId k,
           int bi, int bj, int bk, int a, int b, BoundCounters *counters)
{
    const std::vector<int> &heightI = ctx.heightToBranch(bi);
    const std::vector<int> &heightJ = ctx.heightToBranch(bj);
    const std::vector<int> &heightK = ctx.heightToBranch(bk);
    int ei = earlyRC[std::size_t(i)];
    int ej = earlyRC[std::size_t(j)];
    int ek = earlyRC[std::size_t(k)];

    int jToK = std::max(b, heightK[std::size_t(j)]);

    auto augHeight = [&](OpId x) {
        int h = heightK[std::size_t(x)];
        int hj = heightJ[std::size_t(x)];
        int hi = heightI[std::size_t(x)];
        int hjNew = hj;
        if (hi >= 0)
            hjNew = std::max(hjNew, hi + a);
        if (hjNew >= 0)
            h = std::max(h, hjNew + jToK);
        return h;
    };

    int cp = ek;
    for (OpId x = 0; x <= k; ++x) {
        if (heightK[std::size_t(x)] < 0)
            continue;
        cp = std::max(cp, earlyRC[std::size_t(x)] + augHeight(x));
        tick(counters);
    }

    std::vector<RelaxItem> items;
    for (OpId x = 0; x <= k; ++x) {
        if (heightK[std::size_t(x)] < 0)
            continue;
        int late = cp - augHeight(x);
        if (lateRCk[std::size_t(x)] != lateUnconstrained)
            late = std::min(late, lateRCk[std::size_t(x)] + (cp - ek));
        items.push_back({x, ctx.sb().op(x).cls, earlyRC[std::size_t(x)],
                         late});
    }
    int tard = reference::rjMaxTardiness(machine, items, counters);

    TriplePoint pt;
    pt.z = composeBound(cp, tard);
    pt.y = std::max(pt.z - b, ej);
    pt.x = std::max(pt.y - a, ei);
    return pt;
}

} // namespace

int
rjMaxTardiness(const MachineModel &machine, std::vector<RelaxItem> &items,
               BoundCounters *counters)
{
    if (items.empty())
        return negInfBound;

    std::sort(items.begin(), items.end(),
              [](const RelaxItem &a, const RelaxItem &b) {
                  if (a.late != b.late)
                      return a.late < b.late;
                  if (a.early != b.early)
                      return a.early < b.early;
                  return a.op < b.op;
              });

    ResourceState table(machine);
    int maxTardiness = negInfBound;
    for (const RelaxItem &item : items) {
        bsAssert(item.early >= 0, "negative early time in relaxation");
        int cycle = item.early;
        while (!table.hasSlot(cycle, item.cls)) {
            ++cycle;
            tick(counters);
        }
        table.reserve(cycle, item.cls);
        maxTardiness = std::max(maxTardiness, cycle - item.late);
        tick(counters);
    }
    return maxTardiness;
}

std::vector<int>
lcEarlyRC(const GraphContext &ctx, const MachineModel &machine,
          const LcOptions &opts, BoundCounters *counters)
{
    return naiveLcEarlyRC(NaiveDag::fromSuperblock(ctx.sb()), machine,
                          opts, counters);
}

std::vector<int>
lateRCFor(const GraphContext &ctx, const MachineModel &machine,
          int branchIdx, const std::vector<int> &earlyRC,
          BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    OpId b = sb.branches()[std::size_t(branchIdx)];

    std::vector<OpId> newToOld;
    NaiveDag reversed = NaiveDag::reversedClosure(
        sb, ctx.predSets().closure(b), &newToOld);
    std::vector<int> revEarly =
        naiveLcEarlyRC(reversed, machine, {}, counters);

    std::vector<int> lateRC(std::size_t(sb.numOps()), lateUnconstrained);
    int anchor = earlyRC[std::size_t(b)];
    for (std::size_t nid = 0; nid < newToOld.size(); ++nid) {
        lateRC[std::size_t(newToOld[nid])] = anchor - revEarly[nid];
    }
    return lateRC;
}

PairPoint
computePairBound(const GraphContext &ctx, const MachineModel &machine,
                 const std::vector<int> &earlyRC,
                 const std::vector<int> &lateRCj, int bi, int bj,
                 double wi, double wj, const PairwiseOptions &opts,
                 BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    bsAssert(bi >= 0 && bj > bi && bj < sb.numBranches(),
             "bad branch pair (", bi, ", ", bj, ")");
    OpId i = sb.branches()[std::size_t(bi)];
    OpId j = sb.branches()[std::size_t(bj)];
    int ei = earlyRC[std::size_t(i)];
    int ej = earlyRC[std::size_t(j)];

    int lMin = sb.op(i).latency;
    int lMax = ej + 1;

    std::vector<PairPoint> recorded;
    auto eval = [&](int l) {
        PairPoint pt = evalPair(ctx, machine, earlyRC, lateRCj, i, j, bi,
                                bj, l, counters);
        recorded.push_back(pt);
        return pt;
    };

    int l0 = std::clamp(ej - ei, lMin, lMax);
    PairPoint first = eval(l0);

    if (first.x == ei && first.y == ej)
        return first;

    if (first.y != ej) {
        int steps = 0;
        bool reached = false;
        for (int l = l0 - 1; l >= lMin; --l) {
            if (++steps > opts.maxSweepSteps)
                break;
            PairPoint pt = eval(l);
            if (pt.y == ej) {
                reached = true;
                break;
            }
        }
        if (!reached && l0 - 1 >= lMin && steps > opts.maxSweepSteps)
            recorded.push_back({ei, ej});
    }

    {
        int steps = 0;
        bool reached = first.x == ei;
        if (!reached) {
            for (int l = l0 + 1; l <= lMax; ++l) {
                if (++steps > opts.maxSweepSteps)
                    break;
                PairPoint pt = eval(l);
                if (pt.x == ei) {
                    reached = true;
                    break;
                }
            }
        }
        if (!reached)
            recorded.push_back({ei, std::max(ej, ei + lMax)});
    }

    PairPoint best = recorded.front();
    double bestCost = wi * best.x + wj * best.y;
    for (const PairPoint &pt : recorded) {
        double cost = wi * pt.x + wj * pt.y;
        if (cost < bestCost) {
            bestCost = cost;
            best = pt;
        }
    }
    return best;
}

PairwiseResult
pairwiseBounds(const GraphContext &ctx, const MachineModel &machine,
               const std::vector<int> &earlyRC,
               const std::vector<std::vector<int>> &lateRCPerBranch,
               const PairwiseOptions &opts, BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    PairwiseResult out;
    out.b = sb.numBranches();
    bsAssert(int(lateRCPerBranch.size()) == out.b,
             "need one LateRC vector per branch");

    out.pairs.resize(std::size_t(out.b) * std::size_t(out.b));
    for (int bi = 0; bi < out.b; ++bi) {
        OpId i = sb.branches()[std::size_t(bi)];
        double wi = sb.exitProb(i);
        for (int bj = bi + 1; bj < out.b; ++bj) {
            OpId j = sb.branches()[std::size_t(bj)];
            double wj = sb.exitProb(j);
            out.pairs[std::size_t(bi) * std::size_t(out.b) +
                      std::size_t(bj)] =
                reference::computePairBound(ctx, machine, earlyRC,
                                 lateRCPerBranch[std::size_t(bj)], bi, bj,
                                 wi, wj, opts, counters);
        }
    }

    out.wct = 0.0;
    for (int k = 0; k < out.b; ++k) {
        OpId opK = sb.branches()[std::size_t(k)];
        double w = sb.exitProb(opK);
        double avg;
        if (out.b == 1) {
            avg = double(earlyRC[std::size_t(opK)]);
        } else {
            double sum = 0.0;
            for (int other = 0; other < out.b; ++other) {
                if (other == k)
                    continue;
                sum += other > k ? double(out.pair(k, other).x)
                                 : double(out.pair(other, k).y);
            }
            avg = sum / double(out.b - 1);
        }
        out.wct += w * (avg + sb.op(opK).latency);
    }
    return out;
}

TriplewiseResult
computeTriplewise(const GraphContext &ctx, const MachineModel &machine,
                  const std::vector<int> &earlyRC,
                  const std::vector<std::vector<int>> &lateRCPerBranch,
                  double pairwiseWct, const TriplewiseOptions &opts,
                  BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    int numBr = sb.numBranches();

    TriplewiseResult result;
    if (numBr < 3 || numBr > opts.maxBranches) {
        result.wct = pairwiseWct;
        result.fellBack = true;
        return result;
    }

    std::vector<double> sums(std::size_t(numBr), 0.0);
    std::vector<long long> counts(std::size_t(numBr), 0);
    long long evals = 0;

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
                int ei = earlyRC[std::size_t(i)];
                int ej = earlyRC[std::size_t(j)];
                const std::vector<int> &lateRCk =
                    lateRCPerBranch[std::size_t(bk)];

                int aMin = sb.op(i).latency;
                int bMin = sb.op(j).latency;
                int ek = earlyRC[std::size_t(k)];
                int aCap = std::min(ek + 1, aMin + opts.maxLatRange);
                int bCap = std::min(ek + 1, bMin + opts.maxLatRange);

                TriplePoint best;
                bool haveBest = false;
                bool cut = false;
                auto record = [&](TriplePoint pt) {
                    double cost = wi * pt.x + wj * pt.y + wk * pt.z;
                    if (!haveBest ||
                        cost < wi * best.x + wj * best.y + wk * best.z) {
                        best = pt;
                        haveBest = true;
                    }
                };

                for (int a = aMin; a <= aCap; ++a) {
                    bool columnAllXAtFloor = true;
                    int yFloor = std::max(ej, ei + a);
                    bool innerBroke = false;
                    TriplePoint last{};
                    for (int b = bMin; b <= bCap; ++b) {
                        TriplePoint pt =
                            evalTriple(ctx, machine, earlyRC, lateRCk, i,
                                       j, k, bi, bj, bk, a, b, counters);
                        ++evals;
                        if (a == aCap) {
                            pt.x = ei;
                            pt.y = ej;
                        }
                        record(pt);
                        last = pt;
                        if (pt.x != ei)
                            columnAllXAtFloor = false;
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
                    if (!innerBroke) {
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
        result.wct = pairwiseWct;
        result.fellBack = true;
        return result;
    }

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

WctBounds
computeWctBounds(const GraphContext &ctx, const MachineModel &machine,
                 const BoundConfig &config, BoundCounterSet *counters)
{
    const Superblock &sb = ctx.sb();

    WctBounds out;
    out.cp = naiveWctFromBranchEarly(sb, naiveCpEarly(ctx));
    out.hu = naiveWctFromBranchEarly(
        sb,
        naiveHuEarly(ctx, machine, counters ? &counters->hu : nullptr));
    out.rj = naiveWctFromBranchEarly(
        sb,
        naiveRjEarly(ctx, machine, counters ? &counters->rj : nullptr));

    std::vector<int> earlyRC = reference::lcEarlyRC(
        ctx, machine, config.lc, counters ? &counters->lc : nullptr);

    std::vector<std::vector<int>> lateRCs;
    lateRCs.reserve(std::size_t(sb.numBranches()));
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        lateRCs.push_back(
            reference::lateRCFor(ctx, machine, bi, earlyRC,
                      counters ? &counters->lcReverse : nullptr));
    }

    std::vector<int> lcBranches;
    lcBranches.reserve(std::size_t(sb.numBranches()));
    for (OpId b : sb.branches())
        lcBranches.push_back(earlyRC[std::size_t(b)]);
    out.lc = naiveWctFromBranchEarly(sb, lcBranches);

    if (config.computePairwise) {
        PairwiseResult pw =
            reference::pairwiseBounds(ctx, machine, earlyRC, lateRCs,
                           config.pairwise,
                           counters ? &counters->pw : nullptr);
        out.pw = pw.wct;
        if (config.computeTriplewise) {
            TriplewiseResult tw = reference::computeTriplewise(
                ctx, machine, earlyRC, lateRCs, pw.wct,
                config.triplewise, counters ? &counters->tw : nullptr);
            out.tw = tw.wct;
        } else {
            out.tw = out.pw;
        }
    } else {
        out.pw = out.lc;
        out.tw = out.lc;
    }
    return out;
}

} // namespace reference

} // namespace balance
