/**
 * @file
 * The sequential subtree engine under bnbSchedule(): a non-recursive
 * depth-first search whose entire mutable state — frame stack, ready
 * lists, combination odometers, chosen sets, undo log — lives in
 * flat arrays carved from a per-worker ScratchArena, so a task
 * allocates nothing after its first superblock and an abandoned
 * subtree unwinds by resetting the arena.
 *
 * A subproblem (BnbPrefix) is a replayable prefix of (op, cycle)
 * assignments plus the lower bound certified for its subtree; the
 * orchestrator splits the root into prefixes serially, fans them out
 * as tasks, and keeps the bound of every subtree it abandons as the
 * gap certificate. Everything here is deterministic: enumeration
 * order is fixed by operation id, and the engine never reads shared
 * mutable state (the incumbent it prunes against is a per-call
 * parameter).
 */

#ifndef BALANCE_SCHED_BNB_BNB_SEARCH_HH
#define BALANCE_SCHED_BNB_BNB_SEARCH_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/analysis.hh"
#include "machine/machine_model.hh"
#include "support/arena.hh"

namespace balance
{

/** One subproblem: a replayable path from the root. */
struct BnbPrefix
{
    /** (operation, issue cycle) assignments, in application order. */
    std::vector<std::pair<OpId, int>> assign;
    /** First cycle the subtree may issue in (parent cycle + 1). */
    int nextCycle = 0;
    /** Certified lower bound for the whole subtree. */
    double lb = 0.0;
    /** Node chunk for the next attempt (doubled after an abort). */
    long long chunk = 0;
};

/** Per-run accounting, summed serially by the orchestrator. */
struct BnbSearchStats
{
    long long nodes = 0;
    long long prunedBound = 0;
    long long prunedDominance = 0;
    long long incumbentUpdates = 0;
};

/** What one subtree exploration produced. */
struct BnbSubtreeOutcome
{
    /** True when the subtree was exhausted within the node budget. */
    bool completed = false;
    bool haveBest = false;
    double bestWct = 0.0;
    /** Issue cycles of the best leaf (numOps entries). */
    std::vector<int> bestIssue;
    BnbSearchStats stats;
};

/**
 * Per-worker scratch for the engine: one arena reused across tasks.
 * Thread-local by convention (threadLocalBnbScratch()), never shared.
 */
struct BnbScratch
{
    ScratchArena arena{std::size_t(1) << 16};
};

/** @return the calling thread's engine scratch. */
BnbScratch &threadLocalBnbScratch();

/**
 * Read-only context shared by every engine of one bnbSchedule() call,
 * built serially before any task runs and never written afterwards.
 * It refers to the superblock and machine, which must outlive it.
 */
struct BnbContext
{
    /**
     * @param ctx Analysis context; only its eager state is read.
     * @param machine Resource widths.
     * @param staticEarly Per-operation issue floors valid in any
     *        complete schedule (EarlyRC when a toolkit is available,
     *        else the dependence-only early times).
     */
    BnbContext(const GraphContext &ctx, const MachineModel &machine,
               std::vector<int> staticEarly);

    const Superblock &sb;
    const MachineModel &machine;
    std::vector<int> staticEarly;
    /**
     * Interchangeable operations: two non-branch operations with the
     * same class and identical successor (op, latency) lists share a
     * class, and a combination that schedules a member while skipping
     * a ready lower-id member of the same class is dominated (swapping
     * the two yields an equal-WCT schedule the search visits anyway).
     * Branches are never grouped (class -1).
     */
    std::vector<std::int32_t> equivClass;
    int numClasses = 0; //!< 1 + max class id (0 when none)
    /** Resource pool of each operation. */
    std::vector<std::int32_t> pool;
    /**
     * Branch indices whose closure holds operation v (v <= b and
     * heightToBranch(bi)[v] >= 0), ascending, at
     * closureOf[closureBegin[v] .. closureBegin[v + 1]).
     */
    std::vector<std::int32_t> closureBegin;
    std::vector<std::int32_t> closureOf;
};

/**
 * The iterative engine. One instance explores subtrees of a single
 * (superblock, machine) pair; all working memory comes from the
 * arena passed at construction (reset it first — construction sizes
 * every buffer for the superblock).
 */
class BnbSubtreeSearch
{
  public:
    /**
     * @param context The call's shared context; must outlive the
     *        engine.
     * @param scratch The worker's arena; reset before constructing.
     */
    BnbSubtreeSearch(const BnbContext &context, ScratchArena &scratch);

    /**
     * Exhaust (or abandon at @p nodeBudget) the subtree under
     * @p prefix, pruning against @p incumbentWct (< 0 = none) and
     * any better leaf found along the way.
     */
    BnbSubtreeOutcome run(const BnbPrefix &prefix, double incumbentWct,
                          long long nodeBudget);

    /**
     * Expand @p prefix's root exactly one level: leaves update the
     * outcome's best, bound/dominance cuts are counted, and every
     * surviving child is appended to @p out in enumeration order
     * with its certified bound. Used by the serial splitter. Stops
     * early (outcome.completed = false, children discarded by the
     * caller) when @p nodeBudget is reached mid-enumeration.
     */
    BnbSubtreeOutcome splitChildren(const BnbPrefix &prefix,
                                    double incumbentWct,
                                    long long nodeBudget,
                                    std::vector<BnbPrefix> &out);

  private:
    struct Frame
    {
        std::int32_t cycle;
        double wctAtEntry;
        std::int32_t readyBegin;  //!< ready ops, pool-major
        std::int32_t groupBegin;  //!< R+1 offsets into readyBuf
        std::int32_t comboBegin;  //!< odometer indices, pool-major
        std::int32_t chosenBegin; //!< applied ops (totalTake of them)
        std::int32_t undoBegin;   //!< readyAt undo log start
        std::int32_t totalTake;
        std::uint8_t applied;
        std::uint8_t started;
    };

    void materialize(const BnbPrefix &prefix);
    int nextDecisionCycle(int cycle) const;
    bool pushFrame(int cycle, double wctAtEntry);
    void popFrame(const Frame &f);
    bool nextCombo(Frame &f);
    bool comboDominated(const Frame &f);
    double applyChoice(Frame &f);
    void undoChoice(Frame &f);
    void adjustClosureLeft(OpId v, int delta);
    double lowerBound(int cycle, double scheduledWct);
    /**
     * O(B·P) floor from kept state: at most lowerBound(dc, w) for
     * every dc >= @p cycle, so a prune it makes is one the full test
     * makes too (DESIGN.md §5).
     */
    double floorBound(int cycle, double scheduledWct) const;
    /** Branch @p bi's per-pool slot floor from closureLeft. */
    int slotFloor(int bi, int cycle) const;
    double replayedWct() const;

    const BnbContext &context;
    const Superblock &sb;
    const MachineModel &machine;

    int numOps;
    int numPools;

    // Per-operation state.
    std::span<std::int32_t> issue;
    std::span<std::int32_t> predsLeft;
    std::span<std::int32_t> readyAt;
    std::span<std::int32_t> sweep; //!< lowerBound() dependence sweep
    std::span<std::int32_t> perPool;
    /**
     * Unscheduled closure operations per (branch, pool), at
     * [bi * numPools + r]: set by materialize(), lowered by
     * applyChoice() and restored by undoChoice(), so lowerBound()
     * reads a branch's slot demand without scanning its closure.
     */
    std::span<std::int32_t> closureLeft;

    // Frame stack and its side buffers (offset stacks; each frame
    // records its begin offsets and pop rewinds the tops).
    std::span<Frame> frames;
    std::span<std::int32_t> readyBuf;
    std::span<std::int32_t> groupBuf;
    std::span<std::int32_t> comboBuf;
    std::span<std::int32_t> chosenBuf;
    struct Undo
    {
        std::int32_t op;
        std::int32_t prevReadyAt;
    };
    std::span<Undo> undoBuf;

    // Dominance epoch marking: one slot per equivalence class.
    std::span<std::int64_t> classMark;
    std::int64_t classEpoch = 0;

    int depth = 0; //!< live frames on the stack
    std::int32_t readyTop = 0;
    std::int32_t groupTop = 0;
    std::int32_t comboTop = 0;
    std::int32_t chosenTop = 0;
    std::int32_t undoTop = 0;
    int scheduledCount = 0;
};

} // namespace balance

#endif // BALANCE_SCHED_BNB_BNB_SEARCH_HH
