#include "core/sched_state.hh"

#include <algorithm>

#include "support/diagnostics.hh"

namespace balance
{

SchedState::SchedState(const Superblock &sb, const MachineModel &machine)
    : block(&sb), model(&machine), table(machine)
{
    rebind(sb, machine);
}

void
SchedState::rebind(const Superblock &sb, const MachineModel &machine)
{
    block = &sb;
    model = &machine;
    table.rebind(machine);
    issue.assign(std::size_t(sb.numOps()), -1);
    predsLeft.assign(std::size_t(sb.numOps()), 0);
    readyAt.assign(std::size_t(sb.numOps()), 0);
    predsDone.clear();
    curCycle = 0;
    placed = 0;
    for (OpId v = 0; v < sb.numOps(); ++v) {
        predsLeft[std::size_t(v)] = int(sb.preds(v).size());
        if (predsLeft[std::size_t(v)] == 0)
            predsDone.push_back(v);
    }
}

bool
SchedState::canIssueNow(OpId v) const
{
    return isDepReady(v) && table.hasSlot(curCycle, block->op(v).cls);
}

std::vector<OpId>
SchedState::depReadyOps() const
{
    std::vector<OpId> out;
    for (OpId v : predsDone) {
        if (readyAt[std::size_t(v)] <= curCycle)
            out.push_back(v);
    }
    return out;
}

void
SchedState::issuableNow(std::vector<OpId> &out) const
{
    out.clear();
    for (OpId v : predsDone) {
        if (canIssueNow(v))
            out.push_back(v);
    }
}

void
SchedState::scheduleNow(OpId v)
{
    bsAssert(canIssueNow(v), "op ", v, " cannot issue in cycle ",
             curCycle);
    table.reserve(curCycle, block->op(v).cls);
    issue[std::size_t(v)] = curCycle;
    ++placed;
    predsDone.erase(
        std::lower_bound(predsDone.begin(), predsDone.end(), v));
    for (const Adjacent &e : block->succs(v)) {
        if (--predsLeft[std::size_t(e.op)] == 0)
            predsDone.insert(std::lower_bound(predsDone.begin(),
                                              predsDone.end(), e.op),
                             e.op);
        // Zero-latency (anti) edges are serialized to the next
        // cycle, the policy shared by every forward scheduler and
        // the exact oracle in this library, so all of them explore
        // the same schedule space.
        readyAt[std::size_t(e.op)] =
            std::max(readyAt[std::size_t(e.op)],
                     curCycle + std::max(e.latency, 1));
    }
}

const std::vector<int> &
SchedState::advanceCycle()
{
    lostScratch.resize(std::size_t(model->numResources()));
    for (int r = 0; r < model->numResources(); ++r)
        lostScratch[std::size_t(r)] = table.freePoolSlots(curCycle, r);
    ++curCycle;
    return lostScratch;
}

bool
SchedState::anyIssuableNow() const
{
    for (OpId v : predsDone) {
        if (canIssueNow(v))
            return true;
    }
    return false;
}

Schedule
SchedState::toSchedule() const
{
    bsAssert(done(), "incomplete scheduling state");
    Schedule out(block->numOps());
    for (OpId v = 0; v < block->numOps(); ++v)
        out.setIssue(v, issue[std::size_t(v)]);
    return out;
}

} // namespace balance
