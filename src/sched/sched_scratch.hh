/**
 * @file
 * Per-worker scratch state for the scheduler engine, the analog of
 * bounds/bound_scratch.hh for the list-scheduler side:
 *
 *  - a ScratchArena for the per-run working set of the greedy core
 *    (issue/preds/ready buffers, rank permutation, ready bitset),
 *    rewound in O(1) between runs;
 *  - cached CP/SR/DHASY priority tables, raw and normalized, computed
 *    once per (superblock, steering weights) and blended by the Best
 *    combo grid instead of being recomputed 121 times;
 *  - the combo-grid deduplication memory (rank permutations already
 *    scheduled, with their WCT and stats deltas);
 *  - engine telemetry (table cache hits/misses, grid runs scheduled
 *    and skipped).
 *
 * A scratch is NOT thread-safe; the eval driver owns one per
 * superblock evaluation (keeping folded telemetry thread-invariant),
 * the serial benches one per process. Every scheduler accepts an
 * optional scratch through ScheduleRequest and falls back to a
 * thread-local one, so results never depend on whether a scratch was
 * passed — pinned by tests/sched/sched_engine_golden_test.
 */

#ifndef BALANCE_SCHED_SCHED_SCRATCH_HH
#define BALANCE_SCHED_SCHED_SCRATCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/analysis.hh"
#include "sched/list_scheduler.hh"
#include "support/arena.hh"

namespace balance
{

/** Scheduler-engine telemetry, folded like BoundScratch stats. */
struct SchedEngineStats
{
    long long tableHits = 0;   //!< priority tables served from cache
    long long tableMisses = 0; //!< priority tables computed
    long long gridRuns = 0;    //!< combo-grid points scheduled
    long long gridSkipped = 0; //!< combo-grid points deduplicated
};

/**
 * Hook for higher layers (the Balance/Help engine in src/core) to
 * park reusable state in a SchedScratch without a sched -> core
 * dependency; they downcast their own derived type.
 */
struct SchedScratchExtension
{
    virtual ~SchedScratchExtension() = default;
};

/** Per-worker scheduler scratch (see file comment). */
class SchedScratch
{
  public:
    SchedScratch() = default;

    SchedScratch(const SchedScratch &) = delete;
    SchedScratch &operator=(const SchedScratch &) = delete;

    /** Raw Critical Path key for ctx's superblock (cached). */
    const std::vector<double> &cpKey(const GraphContext &ctx);

    /** Raw Successive Retirement key (cached). */
    const std::vector<double> &srKey(const GraphContext &ctx);

    /** Raw DHASY key for @p weights (cached per weight vector). */
    const std::vector<double> &dhKey(const GraphContext &ctx,
                                     const std::vector<double> &weights);

    /** Normalized variants of the three keys (cached alongside). */
    const std::vector<double> &cpKeyNormalized(const GraphContext &ctx);
    const std::vector<double> &srKeyNormalized(const GraphContext &ctx);
    const std::vector<double> &
    dhKeyNormalized(const GraphContext &ctx,
                    const std::vector<double> &weights);

    /** Arena backing the greedy core's per-run working set. */
    ScratchArena &runArena() { return arena; }

    /** @return the arena's high-water mark (telemetry). */
    std::size_t
    highWaterBytes() const
    {
        return arena.highWaterBytes();
    }

    SchedEngineStats stats;

    /**
     * Combo-grid dedup memory: one entry per unique rank permutation
     * scheduled so far in the current grid sweep. The schedule (and
     * the stats it accrues) depend on the priority vector only
     * through the rank permutation, so an equal permutation is
     * proof the run would be bit-for-bit identical.
     */
    struct GridMemory
    {
        std::vector<std::uint64_t> hashes;    //!< permutation hashes
        /** The permutations back to back, numOps entries each. */
        std::vector<std::int32_t> perms;
        std::vector<double> wcts;             //!< per unique run
        std::vector<SchedulerStats> deltas;   //!< stats per unique run
        /** The latest point's rank order, repaired into the next. */
        std::vector<std::int32_t> order;

        void
        clear()
        {
            hashes.clear();
            perms.clear();
            wcts.clear();
            deltas.clear();
            order.clear();
        }
    };

    GridMemory grid;

    /** Persistent buffers for the grid sweep (blend key, best issue). */
    std::vector<double> blendBuf;
    std::vector<int> bestIssueBuf;

    /** Opaque parking spot for the core engine's reusable state. */
    std::unique_ptr<SchedScratchExtension> coreExt;

  private:
    /** Rebind the cache to @p ctx when it changed (uid keyed). */
    void ensureSb(const GraphContext &ctx);

    /** Make sure the DHASY entry matches @p weights. */
    void ensureDh(const GraphContext &ctx,
                  const std::vector<double> &weights);

    ScratchArena arena;

    std::uint64_t cachedUid = 0; //!< 0 = nothing cached
    bool haveCpSr = false;
    bool haveCpNorm = false;
    bool haveSrNorm = false;
    bool haveDh = false;
    bool haveDhNorm = false;
    std::vector<double> cp, sr, dh;
    std::vector<double> cpNorm, srNorm, dhNorm;
    std::vector<double> dhWeights;
};

/**
 * The fallback scratch used whenever a caller passes none: one per
 * thread, reused across calls. Results never depend on which scratch
 * served a run.
 */
SchedScratch &threadLocalSchedScratch();

} // namespace balance

#endif // BALANCE_SCHED_SCHED_SCRATCH_HH
