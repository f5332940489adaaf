#include "bounds/branch_bounds.hh"

#include <algorithm>

#include "support/diagnostics.hh"
#include "support/perf_counters.hh"

namespace balance
{

std::vector<int>
cpEarly(const GraphContext &ctx)
{
    const Superblock &sb = ctx.sb();
    std::vector<int> out;
    out.reserve(std::size_t(sb.numBranches()));
    for (OpId b : sb.branches())
        out.push_back(ctx.earlyDC()[std::size_t(b)]);
    return out;
}

long long
cpTrips(const Superblock &sb)
{
    return (long long)(sb.numBranches()) * (sb.numOps() + sb.numEdges());
}

std::vector<int>
huEarly(const GraphContext &ctx, const MachineModel &machine,
        BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    std::vector<int> out;
    out.reserve(std::size_t(sb.numBranches()));

    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        int anchor = ctx.earlyDC()[std::size_t(b)];
        const std::vector<int> &height = ctx.heightToBranch(bi);

        // Collect late times per resource pool over closure(b).
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

        // For each pool, sweep deadlines in increasing order: the
        // k-th earliest deadline c needs k issue slots in cycles
        // [0, c], i.e. width * (c + 1) slots available.
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
rjEarly(const GraphContext &ctx, const MachineModel &machine,
        BoundCounters *counters)
{
    PerfRegion perf(PerfPhase::RjRelax);
    const Superblock &sb = ctx.sb();
    std::vector<int> out;
    out.reserve(std::size_t(sb.numBranches()));

    std::vector<RelaxItem> items;
    RelaxTable table(machine);
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
        int tard = rjMaxTardiness(machine, items, table, counters);
        out.push_back(composeBound(anchor, tard));
    }
    return out;
}

std::vector<int>
lcEarlyRC(const Dag &dag, const MachineModel &machine,
          const LcOptions &opts, BoundCounters *counters)
{
    PerfRegion perf(PerfPhase::RjRelax);
    int n = dag.n();
    std::vector<int> earlyRC(std::size_t(n), 0);
    std::vector<int> height(std::size_t(n), -1);
    std::vector<RelaxItem> items;
    RelaxTable table(machine);

    for (int v = 0; v < n; ++v) {
        auto preds = dag.preds(v);
        if (preds.empty()) {
            earlyRC[std::size_t(v)] = 0;
            continue;
        }

        int depEarly = 0;
        for (const Adjacent &e : preds) {
            depEarly = std::max(depEarly,
                                earlyRC[std::size_t(e.op)] + e.latency);
        }

        // Theorem 1 (trivial bound recursion): with a unique direct
        // predecessor and a positive latency, the relaxation for v is
        // the predecessor's relaxation with v appended one-or-more
        // cycles later, where a unit is always free.
        if (opts.useTheorem1 && preds.size() == 1 &&
            preds[0].latency > 0) {
            earlyRC[std::size_t(v)] = depEarly;
            tick(counters);
            continue;
        }

        // Heights within the closure of v (nodes <= v only).
        std::fill(height.begin(), height.begin() + v + 1, -1);
        height[std::size_t(v)] = 0;
        for (int x = v; x >= 0; --x) {
            if (height[std::size_t(x)] < 0)
                continue;
            for (const Adjacent &e : dag.preds(x)) {
                height[std::size_t(e.op)] =
                    std::max(height[std::size_t(e.op)],
                             height[std::size_t(x)] + e.latency);
                tick(counters);
            }
        }

        // Critical path to v with EarlyRC as early times.
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
        int tard = rjMaxTardiness(machine, items, table, counters);
        earlyRC[std::size_t(v)] =
            std::max(depEarly, composeBound(cp, tard));
    }
    return earlyRC;
}

std::vector<int>
lcEarlyRCForSuperblock(const GraphContext &ctx, const MachineModel &machine,
                       const LcOptions &opts, BoundCounters *counters)
{
    return lcEarlyRC(Dag::fromSuperblock(ctx.sb()), machine, opts,
                     counters);
}

std::vector<int>
lateRCFor(const GraphContext &ctx, const MachineModel &machine,
          int branchIdx, const std::vector<int> &earlyRC,
          BoundCounters *counters)
{
    const Superblock &sb = ctx.sb();
    OpId b = sb.branches()[std::size_t(branchIdx)];

    const GraphContext::ReversedClosure &rev =
        ctx.reversedClosure(branchIdx);
    std::vector<int> revEarly =
        lcEarlyRC(rev.dag, machine, {}, counters);

    std::vector<int> lateRC(std::size_t(sb.numOps()), lateUnconstrained);
    int anchor = earlyRC[std::size_t(b)];
    for (std::size_t nid = 0; nid < rev.newToOld.size(); ++nid) {
        lateRC[std::size_t(rev.newToOld[nid])] = anchor - revEarly[nid];
    }
    return lateRC;
}

} // namespace balance
