/**
 * @file
 * Compatible-branch selection for the Balance heuristic
 * (Sections 5.3 and 5.4).
 *
 * Given each unretired branch's needs in the current scheduling
 * decision — NeedEach (dependence-critical operations that must all
 * issue this cycle) and NeedOne per resource pool (one member of the
 * tightest zero-empty ERC) — branches are admitted one at a time in
 * priority order while their needs stay jointly satisfiable:
 * TakeEach accumulates the union of dependence needs, and TakeOne
 * per pool narrows to the intersection of resource needs.
 *
 * The pairwise tradeoff pass then revises the outcomes: a delayed
 * branch whose pairwise-optimal issue is late anyway becomes
 * "delayedOK", and when the pairwise bound says the selected branch
 * should have yielded instead, the processing order is swapped and
 * the selection re-run. The selection with the highest rank
 * (selected + delayedOK - delayed, weighted) wins.
 */

#ifndef BALANCE_CORE_BRANCH_SELECT_HH
#define BALANCE_CORE_BRANCH_SELECT_HH

#include <span>
#include <vector>

#include "bounds/pairwise.hh"
#include "core/branch_dynamics.hh"
#include "core/sched_state.hh"

namespace balance
{

/** The needs of one branch in the current decision (Section 5.2). */
struct BranchNeeds
{
    int branchIdx = -1;   //!< position in sb().branches()
    double weight = 0.0;  //!< steering weight (exit probability)
    int dynEarly = 0;     //!< current dynamic bound on the branch
    /** Dependence needs: every one must issue this cycle. */
    std::vector<OpId> needEach;
    /** Resource needs per pool: one member must be picked now. */
    std::vector<std::vector<OpId>> needOne;

    /** @return true when the branch needs anything at all. */
    bool hasNeeds() const;
};

/** Outcome of a branch in one selection (Section 5.4). */
enum class BranchOutcome
{
    Selected,  //!< needs are jointly satisfied
    Delayed,   //!< has needs that the selection does not satisfy
    DelayedOk, //!< delayed, but the pairwise tradeoff favors it
    Ignored,   //!< has no needs this decision
};

/** Result of one (possibly reordered) selection. */
struct SelectionResult
{
    /** Outcome per entry of the needs vector. */
    std::vector<BranchOutcome> outcome;
    /** Union of selected branches' dependence needs. */
    std::vector<OpId> takeEach;
    /** Per-pool intersection of selected branches' resource needs. */
    std::vector<std::vector<OpId>> takeOne;
    /** Weighted rank of this selection. */
    double rank = 0.0;

    /**
     * Replace @p out with takeEach plus all takeOne members, sorted
     * and deduplicated.
     */
    void candidateOps(std::vector<OpId> &out) const;

    /** @return true when neither takeEach nor takeOne constrain. */
    bool unconstrained() const;
};

/** Inputs enabling the Section 5.4 tradeoff revision. */
struct TradeoffInputs
{
    /** Pairwise bounds; null disables the tradeoff pass. */
    const PairwiseBounds *pairwise = nullptr;
    /** Static EarlyRC per operation. */
    const std::vector<int> *earlyRC = nullptr;
    /** Branch operation ids, branch order. */
    const Superblock *sb = nullptr;
    /** Reorder attempts before keeping the best selection. */
    int maxReorders = 3;
};

/**
 * Optional observability record of one selectCompatibleBranches call
 * (filled only when the Balance decision log is active). The notes
 * belong to the *winning* selection; reorders counts the swap rounds
 * actually executed. Never read back into scheduling decisions.
 */
struct SelectionDebug
{
    /** One delayedOK grant of the winning selection. */
    struct Note
    {
        int delayedBranch = -1; //!< branchIdx revised to delayedOK
        int againstBranch = -1; //!< selected branchIdx justifying it
        int pairBound = 0;      //!< its pairwise-optimal issue cycle
        int staticEarly = 0;    //!< its static EarlyRC
        int dynEarly = 0;       //!< its dynamic bound at this step
    };

    std::vector<Note> notes;
    int reorders = 0;
};

/**
 * Reusable working set of the selection: selectPass's op sets and
 * staging buffers, the processing orders, and the results
 * selectCompatibleBranches compares. One scratch serves every
 * decision of a run, so the selection stops allocating once each
 * buffer has reached its largest size. The results live here, valid
 * until the next call with the same scratch.
 */
struct SelectionScratch
{
    SelectionResult best;    //!< selectCompatibleBranches' answer
    SelectionResult current; //!< the latest pass (selectPass' answer)
    std::vector<int> order;    //!< initial processing order
    std::vector<int> curOrder; //!< order after the swap rounds
    std::vector<SelectionDebug::Note> passNotes;

    /** TakeEach membership per op; all zero between passes. */
    std::vector<char> inTakeEach;
    std::vector<int> eachPool;  //!< TakeEach members per pool
    std::vector<int> eachCount; //!< the same, with staged additions
    std::vector<OpId> added;    //!< one branch's staged NeedEach
    std::vector<std::vector<OpId>> takeOne; //!< running intersections
    std::vector<char> takeOneActive;
    std::vector<std::vector<OpId>> staged; //!< one branch's TakeOne'
    std::vector<char> stagedSet;
};

/**
 * One selection pass in the given processing order (Fig. 7).
 *
 * @param state Scheduling state (readiness and free slots).
 * @param needs Per-branch needs.
 * @param order Indices into @p needs, highest priority first.
 * @param scratch Working set; holds the returned result.
 */
const SelectionResult &selectPass(const SchedState &state,
                                  std::span<const BranchNeeds> needs,
                                  const std::vector<int> &order,
                                  SelectionScratch &scratch);

/**
 * Full Section 5.3 + 5.4 selection: initial order by decreasing
 * weight, tradeoff-driven reordering, best rank wins.
 *
 * @param scratch Working set; holds the returned result.
 * @param debug Optional observability record; filling it does not
 *        change the returned selection.
 */
const SelectionResult &
selectCompatibleBranches(const SchedState &state,
                         std::span<const BranchNeeds> needs,
                         const TradeoffInputs &tradeoff,
                         SelectionScratch &scratch,
                         SchedulerStats *stats = nullptr,
                         SelectionDebug *debug = nullptr);

} // namespace balance

#endif // BALANCE_CORE_BRANCH_SELECT_HH
