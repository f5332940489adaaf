#include "core/branch_dynamics.hh"

#include <algorithm>
#include <limits>

#include "support/diagnostics.hh"

namespace balance
{

BranchDynamics::BranchDynamics(const GraphContext &ctx,
                               const MachineModel &machine, int branchIdx,
                               const std::vector<int> &staticEarly,
                               const std::vector<int> &staticLate)
    : ctx(&ctx), machine(&machine), branchIdx(branchIdx),
      branch(ctx.sb().branches()[std::size_t(branchIdx)]),
      staticEarly(&staticEarly), staticLate(&staticLate),
      closure(&ctx.closureOps(branchIdx)),
      member(std::size_t(ctx.sb().numOps()), 0),
      early(std::size_t(ctx.sb().numOps()), 0),
      late(std::size_t(ctx.sb().numOps()), lateUnconstrained),
      ercs(std::size_t(machine.numResources())),
      latesByPool(std::size_t(machine.numResources())),
      tight(std::size_t(machine.numResources()))
{
    for (OpId v : *closure)
        member[std::size_t(v)] = 1;
}

void
BranchDynamics::rebind(const GraphContext &ctx,
                       const MachineModel &machine, int branchIdx,
                       const std::vector<int> &staticEarly,
                       const std::vector<int> &staticLate)
{
    this->ctx = &ctx;
    this->machine = &machine;
    this->branchIdx = branchIdx;
    branch = ctx.sb().branches()[std::size_t(branchIdx)];
    this->staticEarly = &staticEarly;
    this->staticLate = &staticLate;
    closure = &ctx.closureOps(branchIdx);
    member.assign(std::size_t(ctx.sb().numOps()), 0);
    early.assign(std::size_t(ctx.sb().numOps()), 0);
    late.assign(std::size_t(ctx.sb().numOps()), lateUnconstrained);
    anchor = 0;
    ercs.resize(std::size_t(machine.numResources()));
    for (auto &list : ercs)
        list.clear();
    latesByPool.resize(std::size_t(machine.numResources()));
    for (auto &lates : latesByPool)
        lates.clear();
    isRetired = false;
    ++epoch;
    tight.resize(std::size_t(machine.numResources()));
    for (OpId v : *closure)
        member[std::size_t(v)] = 1;
}

void
BranchDynamics::fullUpdate(const SchedState &state, SchedulerStats *stats)
{
    ++epoch;
    if (state.isScheduled(branch)) {
        isRetired = true;
        for (auto &list : ercs)
            list.clear();
        return;
    }

    const Superblock &sb = state.sb();
    int cycle = state.cycle();

    // Step 1a: forward dynamic early over the closure.
    for (OpId v : *closure) {
        if (stats)
            ++stats->loopTrips;
        if (state.isScheduled(v)) {
            early[std::size_t(v)] = state.issueOf(v);
            continue;
        }
        int e = std::max((*staticEarly)[std::size_t(v)], cycle);
        for (const Adjacent &p : sb.preds(v)) {
            // Predecessors of closure members are closure members.
            e = std::max(e, early[std::size_t(p.op)] + p.latency);
        }
        early[std::size_t(v)] = e;
    }
    anchor = early[std::size_t(branch)];

    // Step 1b: backward dynamic late from the anchor, tightened by
    // the static (resource-aware) late times shifted to the anchor.
    int staticAnchor = (*staticEarly)[std::size_t(branch)];
    int shift = anchor - staticAnchor;
    int violation = 0;
    for (auto it = closure->rbegin(); it != closure->rend(); ++it) {
        OpId v = *it;
        if (stats)
            ++stats->loopTrips;
        int l;
        if (v == branch) {
            l = anchor;
        } else {
            l = lateUnconstrained;
            for (const Adjacent &s : sb.succs(v)) {
                if (member[std::size_t(s.op)]) {
                    l = std::min(l,
                                 late[std::size_t(s.op)] - s.latency);
                }
            }
        }
        if ((*staticLate)[std::size_t(v)] != lateUnconstrained)
            l = std::min(l, (*staticLate)[std::size_t(v)] + shift);
        late[std::size_t(v)] = l;
        if (!state.isScheduled(v))
            violation = std::max(violation, early[std::size_t(v)] - l);
    }
    if (violation > 0) {
        // Some unscheduled operation got pushed past its window: the
        // branch slips by exactly that amount.
        anchor += violation;
        for (OpId v : *closure)
            late[std::size_t(v)] += violation;
    }

    // Step 2: ERC resource delays per pool (Hu-style counting from
    // the current cycle against the remaining free slots).
    int resourceDelay = 0;
    for (auto &lates : latesByPool)
        lates.clear();
    for (OpId v : *closure) {
        if (state.isScheduled(v))
            continue;
        ResourceId r = machine->poolOf(sb.op(v).cls);
        latesByPool[std::size_t(r)].push_back(late[std::size_t(v)]);
        if (stats)
            ++stats->loopTrips;
    }
    for (int r = 0; r < machine->numResources(); ++r) {
        auto &lates = latesByPool[std::size_t(r)];
        std::sort(lates.begin(), lates.end());
        int width = machine->width(r);
        int freeNow = state.freeNow(r);
        for (std::size_t k = 0; k < lates.size(); ++k) {
            if (stats)
                ++stats->loopTrips;
            int c = lates[k];
            long long need = (long long)(k) + 1;
            long long avail =
                freeNow + (long long)(width) * (c - cycle);
            if (need > avail) {
                int d = int((need - avail + width - 1) / width);
                resourceDelay = std::max(resourceDelay, d);
            }
        }
    }

    // Step 3: commit the more constraining bound.
    if (resourceDelay > 0) {
        anchor += resourceDelay;
        for (OpId v : *closure)
            late[std::size_t(v)] += resourceDelay;
    }

    // Step 4: empty-slot counts per distinct deadline.
    for (int r = 0; r < machine->numResources(); ++r) {
        auto &lates = latesByPool[std::size_t(r)];
        auto &list = ercs[std::size_t(r)];
        list.clear();
        if (lates.empty())
            continue;
        if (resourceDelay > 0) {
            for (int &l : lates)
                l += resourceDelay;
        }
        int width = machine->width(r);
        int freeNow = state.freeNow(r);
        for (std::size_t k = 0; k < lates.size(); ++k) {
            if (stats)
                ++stats->loopTrips;
            int c = lates[k];
            bool lastWithDeadline =
                k + 1 == lates.size() || lates[k + 1] != c;
            if (!lastWithDeadline)
                continue;
            long long need = (long long)(k) + 1;
            long long avail =
                freeNow + (long long)(width) * (c - cycle);
            list.push_back({c, int(avail - need)});
        }
    }
}

bool
BranchDynamics::lightUpdateOnOp(const SchedState &state, OpId lastOp,
                                SchedulerStats *stats)
{
    ++epoch;
    if (isRetired)
        return true;
    if (lastOp == branch) {
        isRetired = true;
        return true;
    }
    const Superblock &sb = state.sb();
    ResourceId r = machine->poolOf(sb.op(lastOp).cls);
    bool isPred = member[std::size_t(lastOp)];

    if (isPred && state.issueOf(lastOp) > late[std::size_t(lastOp)]) {
        // A needed operation slipped past its window: the branch is
        // delayed and every late time moves.
        return false;
    }
    if (isPred) {
        // The static (LateRC) component of a window is an upper
        // bound on the true latest issue, so even an in-window issue
        // can push a *successor* past its window; one level of
        // look-ahead suffices because the dependence component of
        // the windows is backward-consistent (late[s] >= late[v] +
        // latency along every closure edge).
        for (const Adjacent &e : sb.succs(lastOp)) {
            if (stats)
                ++stats->loopTrips;
            if (member[std::size_t(e.op)] &&
                !state.isScheduled(e.op) &&
                state.issueOf(lastOp) + e.latency >
                    late[std::size_t(e.op)]) {
                return false;
            }
        }
    }

    for (Erc &erc : ercs[std::size_t(r)]) {
        if (stats)
            ++stats->loopTrips;
        // A predecessor inside the ERC consumes a slot *and* leaves
        // the member set, so the empty count is unchanged; any other
        // operation wastes one of the window's slots.
        bool insideErc =
            isPred && late[std::size_t(lastOp)] <= erc.deadline;
        if (!insideErc)
            --erc.empty;
        if (erc.empty < 0)
            return false;
    }
    return true;
}

bool
BranchDynamics::lightUpdateOnCycleAdvance(const SchedState &state,
                                          const std::vector<int> &lostSlots,
                                          SchedulerStats *stats)
{
    ++epoch;
    if (isRetired)
        return true;

    // Any unscheduled member with a late time before the new cycle
    // means the branch already slipped: recompute.
    for (OpId v : *closure) {
        if (stats)
            ++stats->loopTrips;
        if (!state.isScheduled(v) &&
            late[std::size_t(v)] < state.cycle()) {
            return false;
        }
    }
    for (int r = 0; r < machine->numResources(); ++r) {
        int lost = lostSlots[std::size_t(r)];
        if (lost == 0)
            continue;
        for (Erc &erc : ercs[std::size_t(r)]) {
            if (stats)
                ++stats->loopTrips;
            erc.empty -= lost;
            if (erc.empty < 0)
                return false;
        }
    }
    return true;
}

void
BranchDynamics::needEach(const SchedState &state,
                         std::vector<OpId> &out) const
{
    out.clear();
    if (isRetired)
        return;
    for (OpId v : *closure) {
        if (!state.isScheduled(v) &&
            late[std::size_t(v)] <= state.cycle()) {
            out.push_back(v);
        }
    }
}

int
BranchDynamics::scanTightDeadline(const SchedState &state,
                                  ResourceId r) const
{
    // Smallest zero-empty deadline that still has an unscheduled
    // member: under light updates an ERC whose members all issued
    // keeps its (exact) empty count but imposes nothing anymore, so
    // the next tight window takes over (its members are a superset).
    // A window has an unscheduled member exactly when its deadline
    // reaches the pool's earliest unscheduled late time, so one
    // closure pass serves every window; it stops as soon as a member
    // falls inside the first tight one.
    const std::vector<Erc> &list = ercs[std::size_t(r)];
    auto firstTight = std::find_if(list.begin(), list.end(),
                                   [](const Erc &e) { return e.empty <= 0; });
    if (firstTight == list.end())
        return -1;
    const Superblock &sb = state.sb();
    int earliest = std::numeric_limits<int>::max();
    for (OpId v : *closure) {
        if (state.isScheduled(v) || machine->poolOf(sb.op(v).cls) != r)
            continue;
        earliest = std::min(earliest, late[std::size_t(v)]);
        if (earliest <= firstTight->deadline)
            return firstTight->deadline;
    }
    for (auto it = firstTight; it != list.end(); ++it) {
        if (it->empty <= 0 && earliest <= it->deadline)
            return it->deadline;
    }
    return -1;
}

void
BranchDynamics::needOne(const SchedState &state, ResourceId r,
                        std::vector<OpId> &out) const
{
    out.clear();
    if (isRetired)
        return;
    // With no unit of r free in the current cycle, nothing can be
    // taken from (or wasted against) the window in this decision:
    // the constraint binds again once a slot exists.
    if (state.freeNow(r) == 0)
        return;
    int deadline = tightDeadline(state, r);
    if (deadline < 0)
        return;
    const Superblock &sb = state.sb();
    for (OpId v : *closure) {
        if (!state.isScheduled(v) &&
            machine->poolOf(sb.op(v).cls) == r &&
            late[std::size_t(v)] <= deadline) {
            out.push_back(v);
        }
    }
}

bool
BranchDynamics::helps(const SchedState &state, OpId v) const
{
    if (isRetired || !member[std::size_t(v)])
        return false;
    if (late[std::size_t(v)] <= state.cycle())
        return true;
    ResourceId r = machine->poolOf(state.sb().op(v).cls);
    int deadline = tightDeadline(state, r);
    return deadline >= 0 && late[std::size_t(v)] <= deadline;
}

bool
BranchDynamics::wastes(const SchedState &state, OpId v) const
{
    if (isRetired)
        return false;
    ResourceId r = machine->poolOf(state.sb().op(v).cls);
    int deadline = tightDeadline(state, r);
    if (deadline < 0)
        return false;
    // Members of the tight ERC help; everything else of the same
    // pool burns one of the slots the branch is counting on.
    return !member[std::size_t(v)] || late[std::size_t(v)] > deadline;
}

bool
BranchDynamics::hasTightErc(const SchedState &state) const
{
    if (isRetired)
        return false;
    for (int r = 0; r < machine->numResources(); ++r) {
        if (tightDeadline(state, r) >= 0)
            return true;
    }
    return false;
}

} // namespace balance
