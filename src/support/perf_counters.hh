/**
 * @file
 * Hardware performance-counter profiling with per-phase attribution
 * (docs/OBSERVABILITY.md). A `PerfRegion` is an RAII scope that
 * charges the cycles, instructions, branches, branch misses, cache
 * references, cache misses, and task-clock it covers to one of a
 * fixed set of engine phases (pair/triple sweeps, RJ relaxation, the
 * rank-permutation list scheduler, the Best combo grid, Balance, and
 * B&B search); the aggregated per-phase totals become the
 * `hwcounters.json` artifact with derived IPC / branch-miss /
 * cache-miss rates per phase.
 *
 * Three tiers, resolved once at enable() time:
 *
 *  - Hardware: one `perf_event_open` counter group per thread
 *    (grouped read, so all seven values come from a single read()
 *    and describe the same interval). Kernel multiplexing is
 *    accounted: the group's enabled/running times ride along and
 *    values are linearly scaled, with the running fraction reported
 *    so a heavily multiplexed measurement is visible as such.
 *  - Fallback: when `perf_event_open` is unavailable or denied
 *    (containers, CI, `kernel.perf_event_paranoid`), regions still
 *    measure wall time (steady_clock) and per-thread CPU time
 *    (CLOCK_THREAD_CPUTIME_ID, the getrusage-equivalent), and the
 *    artifact keeps the full schema with zeroed hardware columns.
 *    `BALANCE_PERF=fallback` in the environment forces this tier,
 *    simulating a perf_event-denied kernel for tests and CI.
 *  - Disabled (the default): a `PerfRegion` is one relaxed atomic
 *    load and nothing else.
 *
 * The profiler follows the telemetry never-perturb rules: counters
 * observe, never steer — no algorithm reads them back — so enabling
 * `--hw-counters` leaves every schedule, bound, trip count, and
 * non-counter telemetry byte bitwise identical for any --threads
 * value (tests/integration/telemetry_determinism_test). Counter
 * *values* are inherently machine- and run-dependent; the artifact's
 * structure (tier, phase set, key order) is deterministic, and the
 * per-phase `entries` counts are exact integral sums, thread-count
 * invariant like every other metric.
 *
 * A `PerfRegion` also embeds a `TraceSpan` named after its phase, so
 * the same scopes appear on the Chrome-trace timeline whenever
 * tracing is enabled — one instrumentation point, both sinks.
 */

#ifndef BALANCE_SUPPORT_PERF_COUNTERS_HH
#define BALANCE_SUPPORT_PERF_COUNTERS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/trace.hh"

namespace balance
{

class JsonWriter;

/** Measurement tier (resolved when the profiler is enabled). */
enum class PerfTier
{
    Disabled, //!< collection off; regions cost one atomic load
    Hardware, //!< perf_event_open counter groups
    Fallback, //!< wall + thread-CPU time only (no perf_event access)
};

/** @return "off" / "hardware" / "fallback". */
const char *perfTierName(PerfTier tier);

/** The attributed engine phases, in artifact order. */
enum class PerfPhase : int
{
    PairSweep,   //!< pairwise bound sweeps
    TripleSweep, //!< triplewise bound enumeration
    RjRelax,     //!< Rim & Jain relaxation
    ListSched,   //!< rank-permutation list-scheduler core
    BestGrid,    //!< Best's combo-grid sweep
    Balance,     //!< the Balance scheduler proper
    Bnb,         //!< branch-and-bound certifier search
    Count,
};

constexpr int numPerfPhases = int(PerfPhase::Count);

/** @return the stable dotted phase name ("bounds.pair_sweep", ...). */
const char *perfPhaseName(PerfPhase phase);

/**
 * One tier-independent counter sample (monotonic totals for a
 * sampler, deltas once subtracted). Hardware columns are zero in the
 * fallback tier.
 */
struct PerfCounterValues
{
    std::uint64_t wallNs = 0;      //!< steady_clock
    std::uint64_t taskClockNs = 0; //!< thread CPU time / sw task-clock
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t cacheReferences = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t enabledNs = 0; //!< group time enabled (multiplexing)
    std::uint64_t runningNs = 0; //!< group time actually on the PMU

    /** Member-wise a - b (callers pass samples from one sampler). */
    static PerfCounterValues delta(const PerfCounterValues &a,
                                   const PerfCounterValues &b);

    /** Member-wise accumulate. */
    void accumulate(const PerfCounterValues &d);
};

/**
 * A per-thread counter sampler that measures explicit intervals;
 * PerfProfiler keeps one per thread and attributes its deltas to
 * phases. Opens its own counter group on construction,
 * honoring the BALANCE_PERF override; now() reads the monotonic
 * totals. Not thread-safe: use from the constructing thread only.
 */
class PerfSampler
{
  public:
    PerfSampler();

    /**
     * As the default constructor, but pin the tier: Fallback skips
     * the perf_event probe entirely (used by the profiler so every
     * thread of a run measures at the same tier).
     */
    explicit PerfSampler(PerfTier forced);

    ~PerfSampler();
    PerfSampler(const PerfSampler &) = delete;
    PerfSampler &operator=(const PerfSampler &) = delete;

    /** @return Hardware or Fallback (never Disabled). */
    PerfTier tier() const { return samplerTier; }

    /** @return current monotonic counter totals. */
    PerfCounterValues now();

  private:
    PerfTier samplerTier = PerfTier::Fallback;
    int groupFd = -1;          //!< leader fd (-1 in fallback)
    std::vector<int> eventFds; //!< every opened fd, leader first
};

/** Aggregated totals for one phase. */
struct PerfPhaseTotals
{
    long long entries = 0; //!< PerfRegion scopes closed
    PerfCounterValues v;   //!< summed deltas (inclusive of nesting)
};

/** The merged profiler state (see PerfProfiler::snapshot). */
struct PerfSnapshot
{
    PerfTier tier = PerfTier::Disabled;
    PerfPhaseTotals phases[numPerfPhases];

    /** @return true when any phase saw runningNs < enabledNs. */
    bool multiplexed() const;

    /**
     * Serialize the artifact document: tier, multiplexing flag, and
     * one object per phase in enum order with raw columns
     * (multiplexing-scaled in the hardware tier) and derived ipc /
     * cpi / branch_miss_rate / cache_miss_rate fields. The key
     * order and phase set are fixed, so the schema is identical on
     * every machine and tier.
     */
    void writeJson(JsonWriter &w) const;

    /** @return writeJson() as a document string. */
    std::string toJson() const;
};

/**
 * The process-wide profiler behind --hw-counters. Off by default;
 * enable() resolves the tier and regions start accumulating into
 * per-thread states owned by the profiler (they survive worker
 * threads that exit, like trace buffers). snapshot() merges all
 * thread states in registration-independent phase order.
 */
class PerfProfiler
{
  public:
    PerfProfiler() = default;
    PerfProfiler(const PerfProfiler &) = delete;
    PerfProfiler &operator=(const PerfProfiler &) = delete;

    /**
     * Turn collection on. Resolves the tier once: Hardware when a
     * probe counter group opens, Fallback otherwise (or when
     * BALANCE_PERF=fallback). Idempotent.
     */
    void enable();

    /** Stop collecting (accumulated totals stay until reset()). */
    void disable() { on.store(false, std::memory_order_relaxed); }

    /** @return true while regions are accumulating. */
    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** @return the resolved tier (Disabled before first enable()). */
    PerfTier tier() const { return resolvedTier; }

    /** @return the merged per-phase totals across all threads. */
    PerfSnapshot snapshot();

    /** Zero all accumulators and entry counts (tests). */
    void reset();

    /** The process-wide profiler driven by --hw-counters. */
    static PerfProfiler &global();

  private:
    friend class PerfRegion;
    struct ThreadState;

    ThreadState &localState();

    std::atomic<bool> on{false};
    PerfTier resolvedTier = PerfTier::Disabled;
    std::uint64_t profilerId = 0; //!< lazy unique id for tl caching
    std::mutex registryMutex;
    std::vector<std::unique_ptr<ThreadState>> states;
};

/**
 * RAII phase scope: charges the covered interval to @p phase on the
 * calling thread when the global profiler is enabled, and records a
 * TraceSpan of the phase name whenever tracing is enabled. Regions
 * may nest (inner phases are also counted in the outer phase's
 * totals — attribution is inclusive, like trace spans).
 */
class PerfRegion
{
  public:
    explicit PerfRegion(PerfPhase phase);
    ~PerfRegion();
    PerfRegion(const PerfRegion &) = delete;
    PerfRegion &operator=(const PerfRegion &) = delete;

  private:
    TraceSpan span;
    PerfProfiler::ThreadState *state = nullptr; //!< null = off
    PerfPhase regionPhase;
    PerfCounterValues start;
};

} // namespace balance

#endif // BALANCE_SUPPORT_PERF_COUNTERS_HH
