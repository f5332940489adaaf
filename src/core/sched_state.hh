/**
 * @file
 * Mutable in-progress scheduling state shared by the Help and
 * Balance heuristics: issue assignments, the ready set, and the
 * current cycle's resource reservations.
 */

#ifndef BALANCE_CORE_SCHED_STATE_HH
#define BALANCE_CORE_SCHED_STATE_HH

#include <vector>

#include "graph/superblock.hh"
#include "machine/machine_model.hh"
#include "machine/resource_state.hh"
#include "sched/schedule.hh"

namespace balance
{

/**
 * Forward list-scheduling state: operations are only ever placed in
 * the current cycle, which advances monotonically. The state keeps
 * the unscheduled operations whose predecessors have all issued in
 * one ascending list, so the per-decision queries walk that list
 * instead of every operation.
 */
class SchedState
{
  public:
    SchedState(const Superblock &sb, const MachineModel &machine);

    /** The state keeps pointers: temporaries are a bug. */
    SchedState(Superblock &&, const MachineModel &) = delete;
    SchedState(const Superblock &, MachineModel &&) = delete;
    SchedState(Superblock &&, MachineModel &&) = delete;

    /**
     * Reset to the freshly-constructed state for @p sb on
     * @p machine, reusing the existing buffers. Equivalent to
     * `*this = SchedState(sb, machine)` without the allocations.
     */
    void rebind(const Superblock &sb, const MachineModel &machine);

    /** @return the superblock being scheduled. */
    const Superblock &sb() const { return *block; }

    /** @return the machine model. */
    const MachineModel &machine() const { return *model; }

    /** @return the cycle operations are currently placed into. */
    int cycle() const { return curCycle; }

    /** @return the issue cycle of @p v, or -1. */
    int
    issueOf(OpId v) const
    {
        return issue[std::size_t(v)];
    }

    /** @return true when @p v has been placed. */
    bool
    isScheduled(OpId v) const
    {
        return issue[std::size_t(v)] >= 0;
    }

    /** @return the number of operations placed so far. */
    int scheduledCount() const { return placed; }

    /** @return true when every operation is placed. */
    bool done() const { return placed == block->numOps(); }

    /**
     * @return true when @p v can issue in the current cycle:
     *         unscheduled, all predecessors issued with latencies
     *         elapsed, and a unit of its class free.
     */
    bool canIssueNow(OpId v) const;

    /**
     * @return true when @p v is dependence-ready for the current
     *         cycle (ignores resource availability).
     */
    bool
    isDepReady(OpId v) const
    {
        return !isScheduled(v) && predsLeft[std::size_t(v)] == 0 &&
               readyAt[std::size_t(v)] <= curCycle;
    }

    /** @return all dependence-ready operations, in program order. */
    std::vector<OpId> depReadyOps() const;

    /**
     * Fill @p out with every operation that can issue in the current
     * cycle (canIssueNow()), in program order.
     */
    void issuableNow(std::vector<OpId> &out) const;

    /** @return free units of pool @p r in the current cycle. */
    int
    freeNow(ResourceId r) const
    {
        return table.freePoolSlots(curCycle, r);
    }

    /** Place @p v in the current cycle (must satisfy canIssueNow). */
    void scheduleNow(OpId v);

    /**
     * Advance to the next cycle.
     *
     * @return the per-pool free slots that went unused in the cycle
     *         being left (the "lost" slots of the light update). The
     *         reference points at internal scratch valid until the
     *         next advanceCycle() call.
     */
    const std::vector<int> &advanceCycle();

    /**
     * @return true when some dependence-ready operation can issue in
     *         the current cycle.
     */
    bool anyIssuableNow() const;

    /** Convert to an immutable Schedule (must be done()). */
    Schedule toSchedule() const;

  private:
    const Superblock *block;
    const MachineModel *model;
    ResourceState table;
    std::vector<int> issue;
    std::vector<int> predsLeft;
    std::vector<int> readyAt;
    /** Unscheduled ops with predsLeft == 0, ascending. */
    std::vector<OpId> predsDone;
    std::vector<int> lostScratch; //!< advanceCycle() result buffer
    int curCycle = 0;
    int placed = 0;
};

} // namespace balance

#endif // BALANCE_CORE_SCHED_STATE_HH
