/**
 * @file
 * Per-branch dynamic bound tracking for the Balance and Help
 * heuristics (Section 5.1 and 5.2):
 *
 *  - Step 1: dynamic Early/Late over the branch's predecessor
 *    closure, seeded with static EarlyRC/LateRC (or EarlyDC/LateDC
 *    for the no-bounds ablation) and the issue times of scheduled
 *    operations;
 *  - Step 2/3: Elementary Resource Constraints (ERCs) per resource
 *    type — Hu-style deadline counting from the current cycle — and
 *    the resulting dynamic delay of the branch;
 *  - Step 4: empty-slot counts per ERC;
 *  - the need sets: NeedEach (dependence-critical in the current
 *    cycle) and NeedOne per resource (one member of the tightest
 *    zero-empty ERC).
 *
 * A cheap "light" update (resource-waste bookkeeping) replaces the
 * full recomputation whenever the branch's late information is
 * provably unchanged, exactly as described at the end of
 * Section 5.1; the caller falls back to fullUpdate() when a light
 * update reports invalidation.
 */

#ifndef BALANCE_CORE_BRANCH_DYNAMICS_HH
#define BALANCE_CORE_BRANCH_DYNAMICS_HH

#include <algorithm>
#include <vector>

#include "core/sched_state.hh"
#include "graph/analysis.hh"
#include "sched/list_scheduler.hh"

namespace balance
{

/** One Elementary Resource Constraint summary. */
struct Erc
{
    int deadline = 0; //!< cycle c: members must issue by c
    int empty = 0;    //!< AvailSlot - NeedSlot over [cycle, c]
};

/** Dynamic bound state for one branch. */
class BranchDynamics
{
  public:
    /**
     * @param ctx Analysis context.
     * @param machine Resource widths.
     * @param branchIdx Position in sb().branches().
     * @param staticEarly Per-operation static early floor (EarlyRC,
     *        or EarlyDC for the ablation); must outlive this object.
     * @param staticLate Per-operation static late times for this
     *        branch, anchored at staticEarly of the branch (LateRC
     *        or anchored LateDC); lateUnconstrained outside the
     *        closure; must outlive this object.
     */
    BranchDynamics(const GraphContext &ctx, const MachineModel &machine,
                   int branchIdx, const std::vector<int> &staticEarly,
                   const std::vector<int> &staticLate);

    /**
     * Reset to the freshly-constructed state for a (possibly
     * different) context, branch, and machine, reusing the existing
     * buffers. Same parameter contract as the constructor.
     */
    void rebind(const GraphContext &ctx, const MachineModel &machine,
                int branchIdx, const std::vector<int> &staticEarly,
                const std::vector<int> &staticLate);

    /** @return the branch's operation id. */
    OpId branchOp() const { return branch; }

    /** @return the branch's index in branch order. */
    int branchIndex() const { return branchIdx; }

    /** @return true once the branch itself has been issued. */
    bool retired() const { return isRetired; }

    /** Full recomputation of Steps 1-4 from @p state. */
    void fullUpdate(const SchedState &state, SchedulerStats *stats);

    /**
     * Cheap update after @p lastOp issued in the current cycle.
     *
     * @return false when the state can no longer be maintained
     *         incrementally (branch got delayed); the caller must
     *         fullUpdate().
     */
    bool lightUpdateOnOp(const SchedState &state, OpId lastOp,
                         SchedulerStats *stats);

    /**
     * Cheap update after the scheduler moved to a new cycle and the
     * previous cycle left @p lostSlots free units per pool unused.
     *
     * @return false when a full update is required.
     */
    bool lightUpdateOnCycleAdvance(const SchedState &state,
                                   const std::vector<int> &lostSlots,
                                   SchedulerStats *stats);

    /** @return the current dynamic lower bound on the branch issue. */
    int dynEarly() const { return anchor; }

    /** @return the dynamic late time of @p v for this branch. */
    int
    lateOf(OpId v) const
    {
        return late[std::size_t(v)];
    }

    /** @return true when @p v precedes (or is) this branch. */
    bool
    inClosure(OpId v) const
    {
        return member[std::size_t(v)];
    }

    /**
     * NeedEach (Section 5.2): unscheduled closure operations whose
     * late time is at or before the current cycle. Every one of them
     * must issue in the current cycle or the branch slips. Replaces
     * the contents of @p out, ascending.
     */
    void needEach(const SchedState &state, std::vector<OpId> &out) const;

    /**
     * NeedOne for resource pool @p r: the members of the tightest
     * zero-empty ERC, of which one must be chosen in the current
     * scheduling decision. Empty when no ERC of @p r is tight.
     * Replaces the contents of @p out, ascending.
     */
    void needOne(const SchedState &state, ResourceId r,
                 std::vector<OpId> &out) const;

    /**
     * @return true when some pool has a tight (zero-empty) ERC with
     *         at least one unscheduled member.
     */
    bool hasTightErc(const SchedState &state) const;

    /**
     * Speculative-Hedge help test (Section 5.5): @p v helps this
     * branch when it is dependence-critical (late at or before the
     * current cycle) or a member of a tight ERC of its pool.
     */
    bool helps(const SchedState &state, OpId v) const;

    /**
     * Observation 1: @p v indirectly delays this branch when its
     * pool has a tight ERC but @p v is not one of the needed
     * members — issuing it wastes a critical slot.
     */
    bool wastes(const SchedState &state, OpId v) const;

    /** @return the ERC summaries for pool @p r (sorted by deadline). */
    const std::vector<Erc> &
    ercsOf(ResourceId r) const
    {
        return ercs[std::size_t(r)];
    }

  private:
    /**
     * Deadline of the tightest zero-empty ERC of @p r that still has
     * an unscheduled member, or -1. Memoized per pool: the answer
     * depends only on the ERCs and late times, which change only in
     * an update, and on which operations are scheduled, which only
     * grows within one state. So (scheduled count, update epoch) keys
     * it, and a decision's needOne/helps/wastes queries share one
     * scan per pool.
     */
    int
    tightDeadline(const SchedState &state, ResourceId r) const
    {
        if (tightPlaced != state.scheduledCount() || tightEpoch != epoch) {
            std::fill(tight.begin(), tight.end(), tightUnknown);
            tightPlaced = state.scheduledCount();
            tightEpoch = epoch;
        }
        int &slot = tight[std::size_t(r)];
        if (slot == tightUnknown)
            slot = scanTightDeadline(state, r);
        return slot;
    }

    /** tightDeadline without the memo. */
    int scanTightDeadline(const SchedState &state, ResourceId r) const;

    const GraphContext *ctx;
    const MachineModel *machine;
    int branchIdx;
    OpId branch;
    const std::vector<int> *staticEarly;
    const std::vector<int> *staticLate;

    /** Closure members, ascending; owned by the GraphContext cache. */
    const std::vector<OpId> *closure = nullptr;
    std::vector<char> member;       //!< closure membership per op
    std::vector<int> early;         //!< dynamic early per op
    std::vector<int> late;          //!< dynamic late per op
    int anchor = 0;                 //!< dynamic early of the branch
    std::vector<std::vector<Erc>> ercs; //!< per pool, sorted by c
    /** Step 2 scratch: per-pool late times, reused across updates. */
    std::vector<std::vector<int>> latesByPool;
    bool isRetired = false;
    /** Bumped by every update and rebind: the ERCs may have moved. */
    long long epoch = 0;
    /** tightDeadline memo per pool, valid for (tightPlaced,
     *  tightEpoch); tightUnknown where not yet scanned. */
    static constexpr int tightUnknown = -2;
    mutable std::vector<int> tight;
    mutable int tightPlaced = -1;
    mutable long long tightEpoch = -1;
};

} // namespace balance

#endif // BALANCE_CORE_BRANCH_DYNAMICS_HH
