/**
 * @file
 * The run manifest: one JSON document binding every artifact of an
 * experiment run together — suite parameters, machine configs, the
 * per-superblock row dump, the metrics snapshot, the decision logs,
 * and per-machine wall clocks. Written by `report_tool run` (and
 * `tools/run_experiments.sh --report-out`), read back by the render
 * and compare passes (docs/REPORTING.md).
 *
 * Artifact paths are stored relative to the manifest's own
 * directory, so a run directory (or a committed baseline under
 * tools/baselines/) can be moved or checked out anywhere.
 */

#ifndef BALANCE_REPORT_MANIFEST_HH
#define BALANCE_REPORT_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.hh"

namespace balance
{

/** One machine configuration's wall clock within a run. */
struct MachineWall
{
    std::string machine;
    double ms = 0.0;
};

/** A per-machine decision-log artifact. */
struct DecisionLogRef
{
    std::string machine;
    std::string path; //!< relative to the manifest directory
};

/** The manifest proper (see file comment). */
struct RunManifest
{
    /** Manifest schema version; bumped on incompatible changes. */
    static constexpr int currentVersion = 1;

    int version = currentVersion;
    std::string bench = "report_run"; //!< producing harness
    std::uint64_t seed = 0;
    double scale = 1.0;
    int threads = 0;    //!< worker count requested (0 = hardware)
    bool withBest = false;
    /** Rows carry "bnb" certificate objects (absent in old runs). */
    bool withBnb = false;
    std::vector<std::string> machines;   //!< config names, run order
    std::vector<std::string> heuristics; //!< wct key order in rows

    /** Artifact paths, relative to the manifest directory ("" = absent). */
    std::string metricsPath;     //!< metric-registry snapshot JSON
    std::string superblocksPath; //!< per-superblock rows, JSON lines
    std::string tracePath;       //!< optional Chrome trace
    std::string hwCountersPath;  //!< optional per-phase hw counters
    /** Optional --metrics-interval JSONL time-series. */
    std::string metricsTimelinePath;
    std::vector<DecisionLogRef> decisionLogs;

    /**
     * "http://addr:port" of the diagnostics server that was live
     * during the run ("" = none). An address, not an artifact: it
     * records where /metrics and /progress could be scraped, for
     * log forensics and the live-telemetry CI leg.
     */
    std::string debugServerAddress;

    std::vector<MachineWall> wall; //!< per-machine wall clock

    /** @return the manifest as a JSON document. */
    std::string toJson() const;

    /**
     * Parse a manifest document.
     * @param doc Parsed JSON tree.
     * @param out Filled on success.
     * @param error Set to a diagnostic on failure.
     * @return true on success.
     */
    static bool fromJson(const JsonValue &doc, RunManifest *out,
                         std::string *error);
};

/**
 * A manifest plus its loaded artifacts, ready for attribution /
 * rendering / comparison.
 */
struct RunArtifacts
{
    RunManifest manifest;
    std::string dir; //!< the manifest's directory ("" = cwd)

    JsonValue metrics;                 //!< parsed snapshot (Null if absent)
    std::vector<JsonValue> superblocks; //!< parsed rows (suite order)
    /** Parsed decision records, parallel to manifest.decisionLogs. */
    std::vector<std::vector<JsonValue>> decisions;
    JsonValue hwCounters;  //!< parsed hwcounters.json (Null if absent)
};

/** @return @p path resolved against @p dir (absolute paths kept). */
std::string resolveArtifactPath(const std::string &dir,
                                const std::string &path);

/** Read a whole file. @return false with @p error set on failure. */
bool readTextFile(const std::string &path, std::string *out,
                  std::string *error);

/** Write a whole file. @return false with @p error set on failure. */
bool writeTextFile(const std::string &path, const std::string &text,
                   std::string *error);

/**
 * Load a manifest and every artifact it references. A referenced
 * path that cannot be read or parsed is an error; absent (empty)
 * paths simply leave their slot empty, so a metrics-only baseline
 * loads without the row dump.
 *
 * @param manifestPath Path to the manifest JSON.
 * @param out Filled on success.
 * @param error Set to a diagnostic on failure.
 * @return true on success.
 */
bool loadRunArtifacts(const std::string &manifestPath, RunArtifacts *out,
                      std::string *error);

} // namespace balance

#endif // BALANCE_REPORT_MANIFEST_HH
