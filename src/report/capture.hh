/**
 * @file
 * Run capture: evaluate the suite with full per-superblock
 * instrumentation and write a self-contained run directory — the
 * manifest, a JSON-lines row per (superblock, machine), the Balance
 * decision logs, and a metrics snapshot whose counters equal the row
 * sums bit for bit (the report pipeline's end-to-end identity,
 * pinned by tests/report/report_pipeline_test).
 *
 * Rows come from the same pipeline as evaluateSuperblock
 * (eval/pipeline.hh), with every telemetry receiver attached.
 *
 * Capture owns a *local* MetricRegistry: the identical integers that
 * go into each row are folded — serially, in suite order — into that
 * registry, so the snapshot is a pure function of the rows and never
 * touches the process-global telemetry state. Like every eval
 * driver, the parallel phase fills pre-sized slots and the reduction
 * is serial, so all artifacts are bitwise identical for any thread
 * count.
 */

#ifndef BALANCE_REPORT_CAPTURE_HH
#define BALANCE_REPORT_CAPTURE_HH

#include <string>
#include <vector>

#include "bounds/superblock_bounds.hh"
#include "machine/machine_model.hh"
#include "report/manifest.hh"
#include "workload/suite.hh"

namespace balance
{

/** Options for captureRun. */
struct CaptureOptions
{
    SuiteOptions suite;
    /** Machine configurations to run; empty = GP4. */
    std::vector<MachineModel> machines;
    BoundConfig bounds;
    /** Include the Best envelope (121 extra schedules per SB). */
    bool withBest = false;
    /**
     * Run the branch-and-bound certifier on each superblock up to
     * bnbMaxOps ops, seeded with the Best envelope's winner (the best
     * primary when withBest is off), and emit a "bnb" object per row
     * (certified WCT, proven lower bound, search counters). Upgrades
     * the rendered gap attribution from "vs. bound" to "vs. proven
     * optimum (or certified gap)".
     */
    bool withBnb = false;
    /** Node budget per superblock for the certifier. */
    long long bnbMaxNodes = 200000;
    /** Superblocks above this op count skip the certifier. */
    int bnbMaxOps = 100;
    /** Worker threads; 0 = hardware concurrency, 1 = serial. */
    int threads = 0;
    /**
     * Attribute hardware counters (perf_event groups, or the
     * CPU-time fallback tier without perf_event access) to the
     * engine phases and write a manifest-bound hwcounters.json with
     * per-phase IPC / branch-miss / cache-miss rates. Observation
     * only: rows, metrics, and decision logs are bitwise identical
     * with this on or off, for any thread count.
     */
    bool hwCounters = false;
    /**
     * Sample the capture's local registry every this-many ms into a
     * manifest-bound metrics.timeline.jsonl (0 = off). Observation
     * only, like hwCounters: the sampler reads the same snapshot
     * path the final metrics.json uses, so every other artifact is
     * bitwise identical with this on or off.
     */
    long long metricsIntervalMs = 0;
    /** Existing directory the artifacts are written into. */
    std::string outDir;
};

/** What captureRun produced. */
struct CaptureResult
{
    RunManifest manifest;
    std::string manifestPath; //!< outDir + "/manifest.json"
};

/**
 * Evaluate the suite on every configured machine and write the run
 * directory (see file comment): manifest.json, metrics.json,
 * superblocks.jsonl, and one decisions.<machine>.jsonl per machine.
 * Panics on I/O failure (the harness treats that as fatal).
 */
CaptureResult captureRun(const CaptureOptions &opts);

} // namespace balance

#endif // BALANCE_REPORT_CAPTURE_HH
