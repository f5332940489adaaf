/**
 * @file
 * End-to-end report pipeline (the acceptance contract of the report
 * subsystem, docs/REPORTING.md): capture a small suite run, load it
 * back through the manifest, and pin
 *
 *  - every ladder stage >= 0 on every machine (the bounds are
 *    ordered, and no valid schedule beats a valid bound);
 *  - the Table 2 trip totals summed over the rows equal the metrics
 *    snapshot counters bit for bit;
 *  - `compare` of a run against itself under the committed
 *    zero-tolerance budget passes, and the same compare against a
 *    tampered snapshot (inflated sched.balance.loop_trips) fails;
 *  - the rendered Markdown report flags no consistency mismatch;
 *  - artifacts are byte-identical across thread counts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report/attribution.hh"
#include "report/capture.hh"
#include "report/compare.hh"
#include "report/manifest.hh"
#include "report/render.hh"
#include "support/json.hh"
#include "temp_dir.hh"

namespace balance
{
namespace
{

/** The committed budget's gate set (tools/perf_budgets.json). */
PerfBudget
committedStyleBudget()
{
    PerfBudget budget;
    budget.metrics = {{"bounds.trips.*", 0.0},
                      {"sched.balance.loop_trips", 0.0},
                      {"sched.balance.decisions", 0.0},
                      {"sched.balance.full_updates", 0.0},
                      {"sched.balance.light_updates", 0.0},
                      {"sched.balance.selection_passes", 0.0},
                      {"sched.balance.candidates", 0.0},
                      {"report.superblocks", 0.0}};
    budget.wallTolerancePct = -1.0; // walls never gate in-process
    return budget;
}

std::string
captureInto(const std::string &dir, double scale, int threads,
            bool hwCounters = false)
{
    CaptureOptions opts;
    opts.suite.scale = scale;
    opts.threads = threads;
    opts.outDir = dir;
    opts.hwCounters = hwCounters;
    return captureRun(opts).manifestPath;
}

/** One pipeline run shared by the assertions below. */
class ReportPipelineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        run = new RunArtifacts();
        // ctest runs each discovered case as its own process, and
        // each process re-runs this suite setup into its own
        // directory, so parallel ctest jobs never write into each
        // other's capture.
        std::string manifestPath = captureInto(
            makeTempDir("balance_report_pipeline"), 0.05, 0);
        std::string error;
        ASSERT_TRUE(loadRunArtifacts(manifestPath, run, &error))
            << error;
    }

    static void
    TearDownTestSuite()
    {
        delete run;
        run = nullptr;
    }

    static RunArtifacts *run;
};

RunArtifacts *ReportPipelineTest::run = nullptr;

TEST_F(ReportPipelineTest, CaptureProducesEveryArtifact)
{
    EXPECT_FALSE(run->metrics.isNull());
    EXPECT_FALSE(run->superblocks.empty());
    ASSERT_EQ(run->manifest.machines.size(), 1u) << "default = GP4";
    EXPECT_EQ(run->manifest.machines[0], "GP4");
    ASSERT_EQ(run->decisions.size(), 1u);
    EXPECT_FALSE(run->decisions[0].empty());
    EXPECT_EQ(run->superblocks.size(),
              (std::size_t)(run->metrics.get("counters")
                                .get("report.superblocks").asInt()));
    ASSERT_EQ(run->manifest.wall.size(), 1u);
    EXPECT_GT(run->manifest.wall[0].ms, 0.0);
}

TEST_F(ReportPipelineTest, LadderStagesAreNonNegativeEverywhere)
{
    AttributionReport attr = attributeRun(*run);
    ASSERT_EQ(attr.machines.size(), 1u);
    for (const MachineAttribution &m : attr.machines) {
        EXPECT_GE(m.rjToPw.mean, 0.0);
        EXPECT_GE(m.pwToTw.mean, 0.0);
        EXPECT_GE(m.twToAchieved.mean, 0.0);
        EXPECT_GT(m.superblocks, 0);
        for (const SuperblockAttribution &sba : m.outliers) {
            EXPECT_GE(sba.rjToPw, 0.0) << sba.superblock;
            EXPECT_GE(sba.pwToTw, 0.0) << sba.superblock;
            EXPECT_GE(sba.twToAchieved, 0.0) << sba.superblock;
            EXPECT_FALSE(sba.dominantCause.empty());
        }
    }
    // The per-row ladder holds on EVERY row, not just outliers.
    for (const JsonValue &row : run->superblocks) {
        const JsonValue &bounds = row.get("bounds");
        double rj = bounds.get("rj").asDouble();
        double pw = bounds.get("pw").asDouble();
        double tw = bounds.get("tw").asDouble();
        double achieved = row.get("wct").get("Balance").asDouble();
        EXPECT_LE(rj, pw + 1e-9);
        EXPECT_LE(pw, tw + 1e-9);
        EXPECT_LE(tw, achieved + 1e-9);
    }
}

TEST_F(ReportPipelineTest, TripTotalsMatchSnapshotBitForBit)
{
    AttributionReport attr = attributeRun(*run);
    const JsonValue &counters = run->metrics.get("counters");
    ASSERT_FALSE(attr.tripTotals.empty());
    for (const auto &kv : attr.tripTotals) {
        const JsonValue *snap =
            counters.find("bounds.trips." + kv.first);
        ASSERT_NE(snap, nullptr) << kv.first;
        EXPECT_EQ(snap->asInt(), kv.second)
            << "bounds.trips." << kv.first
            << ": rows and snapshot disagree";
    }
}

TEST_F(ReportPipelineTest, RenderedReportShowsNoMismatch)
{
    AttributionReport attr = attributeRun(*run);
    std::string md = renderReport(*run, attr);
    EXPECT_NE(md.find("# Balance run report"), std::string::npos);
    EXPECT_NE(md.find("## Trip totals vs metrics snapshot"),
              std::string::npos);
    EXPECT_NE(md.find("bounds.trips.tw"), std::string::npos);
    EXPECT_EQ(md.find("| NO"), std::string::npos)
        << "a consistency row flagged NO";
}

TEST_F(ReportPipelineTest, CompareAgainstSelfPasses)
{
    CompareResult result =
        compareRuns(*run, *run, committedStyleBudget());
    EXPECT_TRUE(result.ok) << result.render();
    bool sawGated = false;
    for (const CompareLine &line : result.lines)
        sawGated = sawGated || line.gated;
    EXPECT_TRUE(sawGated) << "the budget matched nothing";
}

TEST_F(ReportPipelineTest, CompareFlagsInflatedLoopTrips)
{
    RunArtifacts tampered = *run;
    JsonValue counters = tampered.metrics.get("counters");
    long long trips =
        counters.get("sched.balance.loop_trips").asInt();
    counters.set("sched.balance.loop_trips",
                 JsonValue::makeInt(trips + 1000));
    tampered.metrics.set("counters", counters);

    CompareResult result =
        compareRuns(*run, tampered, committedStyleBudget());
    EXPECT_FALSE(result.ok)
        << "a 0-tolerance counter grew and the gate stayed green";
    bool flagged = false;
    for (const CompareLine &line : result.lines) {
        if (line.metric == "sched.balance.loop_trips") {
            EXPECT_TRUE(line.regressed);
            flagged = line.regressed;
        }
    }
    EXPECT_TRUE(flagged);

    // The tampered run regressed; the original (as "current" against
    // the tampered base) only improved, which passes.
    EXPECT_TRUE(compareRuns(tampered, *run, committedStyleBudget()).ok);
}

TEST(ReportHwCounters, CaptureBindsArtifactWithoutPerturbingRows)
{
    std::string plainDir = makeTempDir("balance_report_hw_off");
    std::string hwDir = makeTempDir("balance_report_hw_on");
    std::string plainManifest = captureInto(plainDir, 0.02, 2);
    std::string hwManifest =
        captureInto(hwDir, 0.02, 2, /*hwCounters=*/true);

    std::string error;
    RunArtifacts plain, hw;
    ASSERT_TRUE(loadRunArtifacts(plainManifest, &plain, &error))
        << error;
    ASSERT_TRUE(loadRunArtifacts(hwManifest, &hw, &error)) << error;

    // Off by default: no artifact, no manifest key, Null on load.
    EXPECT_TRUE(plain.manifest.hwCountersPath.empty());
    EXPECT_TRUE(plain.hwCounters.isNull());

    // On: the manifest binds hwcounters.json and the loaded document
    // carries the full schema with real phase attributions.
    EXPECT_EQ(hw.manifest.hwCountersPath, "hwcounters.json");
    ASSERT_TRUE(hw.hwCounters.isObject());
    const JsonValue *tier = hw.hwCounters.find("tier");
    ASSERT_NE(tier, nullptr);
    EXPECT_TRUE(tier->asString() == "hardware" ||
                tier->asString() == "fallback");
    const JsonValue &phases = hw.hwCounters.get("phases");
    EXPECT_GT(phases.get("bounds.pair_sweep").get("entries").asInt(),
              0);
    EXPECT_GT(phases.get("sched.balance").get("entries").asInt(), 0);

    // Observation only: row and snapshot artifacts are bitwise
    // identical with and without counters.
    for (const char *name :
         {"metrics.json", "superblocks.jsonl", "decisions.GP4.jsonl"}) {
        std::string off, on;
        ASSERT_TRUE(readTextFile(plainDir + "/" + std::string(name),
                                 &off, &error))
            << error;
        ASSERT_TRUE(readTextFile(hwDir + "/" + std::string(name), &on,
                                 &error))
            << error;
        EXPECT_EQ(off, on) << name;
    }
}

TEST(ReportDeterminism, ArtifactsAreByteIdenticalAcrossThreadCounts)
{
    std::string serialDir = makeTempDir("balance_report_serial");
    std::string threadedDir = makeTempDir("balance_report_threaded");
    captureInto(serialDir, 0.02, 1);
    captureInto(threadedDir, 0.02, 4);

    std::string error;
    for (const char *name :
         {"metrics.json", "superblocks.jsonl", "decisions.GP4.jsonl"}) {
        std::string serial, threaded;
        ASSERT_TRUE(readTextFile(serialDir + "/" + std::string(name),
                                 &serial, &error))
            << error;
        ASSERT_TRUE(readTextFile(threadedDir + "/" + std::string(name),
                                 &threaded, &error))
            << error;
        EXPECT_EQ(serial, threaded) << name;
    }
}

} // namespace
} // namespace balance
