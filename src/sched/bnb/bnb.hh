/**
 * @file
 * Parallel branch-and-bound WCT minimization with certified gaps.
 *
 * Where sched/optimal.hh certifies only tiny (<= 12 op) instances by
 * recursive exhaustion, this engine scales the same schedule space —
 * cycle-by-cycle maximal resource-feasible subsets of the ready set,
 * zero-latency edges serialized to the next cycle — to 50-100-op
 * superblocks: a non-recursive DFS over array-ized frames in a
 * per-worker ScratchArena, dominance pruning over interchangeable
 * operations, lower-bound pruning strengthened by the BoundsToolkit's
 * EarlyRC floors, and a Best/Balance incumbent to start from.
 *
 * When the node budget runs out before exhaustion, the result is
 * still a *certificate*: `lowerBound` is a proven lower bound on the
 * optimum (the minimum over the incumbent and every abandoned
 * subtree's root bound, floored by the static RJ/PW/TW ladder), so
 * reports can say "within gap <= eps of optimal" instead of
 * "vs. bound".
 *
 * Determinism contract: the returned schedule, WCT, lower bound and
 * every counter are bitwise identical for any `threads` value.
 * Subtrees are split deterministically, every task of a round prunes
 * against the same incumbent snapshot (published through a shared
 * atomic that is written only between rounds), and outcomes merge in
 * task order — the same slots-then-serial-fold pattern the rest of
 * the library uses (docs/THREADING.md). Pinned by
 * tests/integration/bnb_determinism_test.
 */

#ifndef BALANCE_SCHED_BNB_BNB_HH
#define BALANCE_SCHED_BNB_BNB_HH

#include <string>

#include "bounds/superblock_bounds.hh"
#include "graph/analysis.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"

namespace balance
{

/**
 * Largest superblock, in operations, bnbSchedule() accepts: the
 * engine's ready-list arena grows with the square of the op count.
 * Larger inputs are a caller bug (the process aborts); the service
 * refuses certify requests above it.
 */
constexpr int maxBnbOps = 1024;

/** Search limits and parallel shape for bnbSchedule(). */
struct BnbOptions
{
    /**
     * Global node budget across splitting and every worker task; the
     * search never expands more nodes than this (pinned by the
     * property test), degrading to a gap certificate instead.
     */
    long long maxNodes = 2000000;
    /**
     * Node budget one task receives per round. A task that exhausts
     * its chunk is requeued with a doubled chunk, so a stubborn
     * subtree costs at most 2x its sequential node count.
     */
    long long taskChunk = 25000;
    /**
     * Serial breadth-first splitting stops once the frontier holds
     * at least this many subproblems. Independent of the thread
     * count, so the task decomposition — and therefore every result
     * byte — is too.
     */
    int splitTarget = 64;
    /** Worker count; 0 = hardware concurrency, 1 = serial. */
    int threads = 0;
    /**
     * Seed the incumbent with the Best envelope (primaries + combo
     * grid) before searching. Off only in tests that exercise the
     * pure search; without a seed the first leaf found becomes the
     * incumbent.
     */
    bool seedWithBest = true;
};

/**
 * Borrowed context for one bnbSchedule() call. Everything optional:
 * the toolkit lends EarlyRC floors to the per-node bound (else the
 * dependence-only early times are used), the seed schedule replaces
 * the internally computed Best incumbent, and the static lower bound
 * (typically WctBounds::tightest()) floors the certificate so the
 * ladder RJ <= PW <= TW <= lowerBound <= wct is monotone by
 * construction.
 */
struct BnbRequest
{
    const BoundsToolkit *toolkit = nullptr;
    const Schedule *seedSchedule = nullptr;
    double staticLowerBound = 0.0;
};

/**
 * Search accounting. All values are deterministic for a given
 * (superblock, machine, options) triple — including across thread
 * counts — so they can be folded into the MetricRegistry and gated
 * zero-tolerance in CI (tools/perf_budgets.json).
 */
struct BnbCounters
{
    long long nodesExpanded = 0;     //!< choices applied (split + DFS)
    long long prunedByBound = 0;     //!< subtrees cut by the lower bound
    long long prunedByDominance = 0; //!< combos cut by interchangeability
    long long incumbentUpdates = 0;  //!< improving leaves found
    long long tasksCompleted = 0;    //!< subtree tasks run to exhaustion
    long long tasksAborted = 0;      //!< tasks that hit their chunk
    long long rounds = 0;            //!< parallel rounds executed
};

/** Outcome of one branch-and-bound run. */
struct BnbResult
{
    Schedule schedule;       //!< best complete schedule found
    double wct = 0.0;        //!< its weighted completion time
    double lowerBound = 0.0; //!< certified lower bound on the optimum
    /** True when the optimum is certified (gap() <= 1e-9). */
    bool proven = false;
    /** True when the search space was exhausted (no budget cut). */
    bool exhausted = false;
    BnbCounters counters;

    /** @return the certified optimality gap, wct - lowerBound. */
    double
    gap() const
    {
        return wct - lowerBound;
    }

    /**
     * Canonical one-line JSON certificate (result values plus every
     * counter). Byte-identical across thread counts; the determinism
     * test compares certificates, not individual fields.
     */
    std::string certificate() const;
};

/**
 * Branch-and-bound WCT minimization over the same schedule space
 * optimalSchedule() explores (they agree exactly on instances both
 * certify — pinned by tests/integration/differential_small_test).
 *
 * @param ctx Analysis context. Lazily cached analyses are touched
 *        only before the parallel phase; concurrent tasks read only
 *        eager state.
 * @param machine Resource widths.
 * @param opts Budgets and parallel shape.
 * @param req Borrowed toolkit / seed / certificate floor.
 */
BnbResult bnbSchedule(const GraphContext &ctx,
                      const MachineModel &machine,
                      const BnbOptions &opts = {},
                      const BnbRequest &req = {});

} // namespace balance

#endif // BALANCE_SCHED_BNB_BNB_HH
