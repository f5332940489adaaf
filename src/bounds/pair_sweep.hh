/**
 * @file
 * The incremental sweep engine behind the Pairwise and Triplewise
 * bounds.
 *
 * Every sweep point (one forced-separation latency for a pair, one
 * (a, b) grid point for a triple) solves a Rim & Jain relaxation
 * over the same skeleton: the operations with a path to the sink
 * branch. The naive engine (bounds/reference.hh) rebuilds that world
 * from scratch per point — re-scans all ops below the sink, pushes a
 * fresh item vector, std::sorts it, and constructs a new reservation
 * table. This engine exploits what stays fixed across the sweep:
 *
 *  - Per sink branch, the skeleton (members, classes, EarlyRC,
 *    heights to the sink, LateRC slack) is built once and kept in a
 *    SkeletonTable for the lifetime of the sweep (SinkSkeleton).
 *  - Per source branch, the heights to the source are gathered once
 *    into a dense arena span (bindPair / bindTriple).
 *  - Per sweep point, only the composed heights change. The greedy's
 *    (late, early, op) order is repaired with one stable bucket pass
 *    over a precomputed (early, op) permutation instead of a full
 *    sort: late times are bucketed by value and members scatter in
 *    (early, op) order, which is exactly a stable counting sort and
 *    therefore yields the unique (late, early, op) sequence.
 *  - The relaxation places items through the caller's RelaxTable
 *    (path-compressed next-free-cycle pointers, O(1) epoch reset)
 *    instead of probing a freshly constructed reservation table.
 *
 * Because (late, early, op) is a strict total order, the repaired
 * sequence equals what std::sort produces, so bound values are
 * bitwise identical to the naive engine and loop-trip accounting
 * (Table 2) is unchanged — ordering work never ticks, in either
 * engine. tests/bounds/bound_engine_golden_test.cc pins this.
 */

#ifndef BALANCE_BOUNDS_PAIR_SWEEP_HH
#define BALANCE_BOUNDS_PAIR_SWEEP_HH

#include <memory>
#include <span>
#include <vector>

#include "bounds/bound_scratch.hh"
#include "bounds/counters.hh"
#include "bounds/pairwise.hh"
#include "graph/analysis.hh"
#include "machine/machine_model.hh"

namespace balance
{

/** One issue-cycle candidate for a branch triple. */
struct TriplePoint
{
    int x = 0;
    int y = 0;
    int z = 0;
};

namespace detail
{

/**
 * Cached per-sink-branch relaxation skeleton: everything about the
 * subgraph rooted at the sink that is invariant across sweep points
 * and source branches, plus the stable-bucket relaxation step.
 */
struct SinkSkeleton
{
    int n = 0;            //!< number of members
    int branch = -1;      //!< the sink's position in sb().branches()
    OpId sink = invalidOp;
    int sinkEarly = 0;    //!< EarlyRC of the sink
    /**
     * max(sinkEarly, max over members of EarlyRC + height to the
     * sink): the sink's own term of every composed critical path
     * (C_k, DESIGN.md §5).
     */
    int cpSink = 0;
    const OpId *ops = nullptr; //!< members, ascending (ctx-owned)
    std::vector<OpClass> cls;
    std::vector<int> early;   //!< EarlyRC per member
    std::vector<int> hSink;   //!< height to the sink per member
    /**
     * LateRC slack relative to the sink: LateRC[x] - EarlyRC[sink],
     * or lateUnconstrained when LateRC does not constrain x. The
     * tightened late time at critical path cp is then
     * cp + min(-H[x], relLate[x]) for every sweep point.
     */
    std::vector<int> relLate;
    /** Member indices in (EarlyRC, op) order — the tie-break tail. */
    std::vector<int> orderByEarly;

    /** Build for @p branchIdx using @p lateRC (lateRCFor output). */
    void build(const GraphContext &ctx, const std::vector<int> &earlyRC,
               const std::vector<int> &lateRC, int branchIdx);

    /**
     * Solve the relaxation for composed late keys scratch.keys
     * (callers fill keys[m] = min(-H[m], relLate[m]) along with
     * their min/max and the composed @p cp during the composition
     * pass, ticking once per member exactly like the naive
     * critical-path pass; the member's late time is cp + key).
     *
     * @return max tardiness, as rjMaxTardiness.
     */
    int relax(const MachineModel &machine, BoundScratch &scratch, int cp,
              int minKey, int maxKey, BoundCounters *counters) const;
};

/**
 * Sink skeletons by branch, each built on first request and kept for
 * the table's lifetime. Building fills GraphContext's lazy closure
 * cache, so a fan-out takes every skeleton it needs before it starts
 * and its lanes only read them.
 */
class SkeletonTable
{
  public:
    /** See PairSweepCache; the vectors must outlive the table. */
    SkeletonTable(const GraphContext &ctx,
                  const std::vector<int> &earlyRC,
                  const std::vector<std::vector<int>> &lateRCPerBranch);

    /**
     * @return the skeleton of branch @p branchIdx, built on first
     *         request; ticks @p misses when this call built it and
     *         @p hits otherwise (BoundEngineStats telemetry).
     */
    const SinkSkeleton &get(int branchIdx, long long &hits,
                            long long &misses);

  private:
    const GraphContext &ctx;
    const std::vector<int> &earlyRC;
    const std::vector<std::vector<int>> &lateRCPerBranch;
    std::vector<std::unique_ptr<SinkSkeleton>> perBranch;
};

} // namespace detail

/**
 * Sweep engine for the Pairwise bound. Bind a sink branch, then a
 * source branch, then evaluate separation latencies; skeletons are
 * cached per sink, so any bind order is cheap.
 */
class PairSweepCache
{
  public:
    /**
     * @param ctx Analysis context for the superblock.
     * @param machine Resource widths (must match @p scratch).
     * @param earlyRC EarlyRC for every operation.
     * @param lateRCPerBranch LateRC vectors, one per branch.
     * @param scratch Worker-private working storage.
     */
    PairSweepCache(const GraphContext &ctx, const MachineModel &machine,
                   const std::vector<int> &earlyRC,
                   const std::vector<std::vector<int>> &lateRCPerBranch,
                   BoundScratch &scratch);

    /** Select the later branch @p bj (the relaxation sink). */
    void bindSink(int bj);

    /** Select the earlier branch @p bi < bound sink. */
    void bindPair(int bi);

    /** @return EarlyRC of the bound source branch. */
    int ei() const { return eiVal; }
    /** @return EarlyRC of the bound sink branch. */
    int ej() const { return ejVal; }
    /** @return the smallest separation to consider (src latency). */
    int lMin() const { return lMinVal; }
    /** @return the largest separation worth considering (Thm 2). */
    int lMax() const { return lMaxVal; }

    /** Evaluate one separation latency for the bound (bi, bj). */
    PairPoint eval(int latency, BoundCounters *counters);

    /** Sweep-candidate buffer for the sweep driver. */
    std::vector<PairPoint> recorded;

  private:
    const GraphContext &ctx;
    const MachineModel &machine;
    const std::vector<int> &earlyRC;
    BoundScratch &scratch;

    detail::SkeletonTable skeletons;
    const detail::SinkSkeleton *sk = nullptr;
    std::span<int> hiBuf; //!< heights to the source, per member

    int eiVal = 0;
    int ejVal = 0;
    int lMinVal = 0;
    int lMaxVal = 0;
};

/**
 * Run the Figure 5 sweep for the pair (bi, sink) on a cache whose
 * sink is already bound. Equivalent to computePairBound of
 * pairwise.hh (which wraps this), but reuses the cache's skeletons
 * across calls.
 */
PairPoint computePairBound(PairSweepCache &cache, int bi, double wi,
                           double wj, const PairwiseOptions &opts,
                           BoundCounters *counters);

/**
 * Sweep engine for the Triplewise bound: same skeleton machinery
 * with two gathered height arrays and the j -> k funnel composition.
 * Skeletons come from a SkeletonTable the caller owns, so several
 * caches (one per lane of a fan-out, each on its own scratch) can
 * sweep different triples of one superblock at once.
 */
class TripleSweepCache
{
  public:
    /**
     * @param ctx Analysis context for the superblock.
     * @param machine Resource widths (must match @p scratch).
     * @param earlyRC EarlyRC for every operation.
     * @param scratch Working storage private to this cache's thread.
     */
    TripleSweepCache(const GraphContext &ctx, const MachineModel &machine,
                     const std::vector<int> &earlyRC,
                     BoundScratch &scratch);

    /** Select the last branch of the triple (the relaxation sink). */
    void bindSink(const detail::SinkSkeleton &sink);

    /** Select the earlier branches @p bi < @p bj < bound sink. */
    void bindTriple(int bi, int bj);

    /** @return EarlyRC of branch i / j / k of the bound triple. */
    int ei() const { return eiVal; }
    int ej() const { return ejVal; }
    int ek() const { return ekVal; }

    /**
     * The critical path eval(a, b) composes, in closed form and O(1):
     * max(C_k, C_j + t, C_i + a + t) with t = max(b, h_kj), where C_k
     * is the skeleton's cpSink and C_j, C_i are the maxima over the
     * members of EarlyRC plus height to j and i (a term drops when no
     * member reaches its branch). It rises with both a and b
     * (DESIGN.md §5).
     */
    long long criticalPath(int a, int b) const;

    /** Evaluate one (a, b) separation grid point. */
    TriplePoint eval(int a, int b, BoundCounters *counters);

    /** @return the critical path the last eval() composed. */
    int lastCriticalPath() const { return lastCp; }

  private:
    const GraphContext &ctx;
    const MachineModel &machine;
    const std::vector<int> &earlyRC;
    BoundScratch &scratch;

    const detail::SinkSkeleton *sk = nullptr;
    std::span<int> hiBuf; //!< heights to branch i, per member
    std::span<int> hjBuf; //!< heights to branch j, per member

    int eiVal = 0;
    int ejVal = 0;
    int ekVal = 0;
    int hKj = -1; //!< height of branch j toward the sink k
    long long cI = 0; //!< max EarlyRC + height to i over the members
    long long cJ = 0; //!< max EarlyRC + height to j over the members
    int lastCp = 0;
};

} // namespace balance

#endif // BALANCE_BOUNDS_PAIR_SWEEP_HH
