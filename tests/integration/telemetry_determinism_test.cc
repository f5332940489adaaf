/**
 * The telemetry never-perturb contract (docs/OBSERVABILITY.md): with
 * metrics collection and decision-log capture on, every schedule,
 * bound, and Table 2 trip count is bitwise identical to a run with
 * telemetry off, at every --threads value — and the telemetry output
 * itself (metrics snapshot bytes, decision-log bytes) is
 * thread-invariant, because all hot-path accounting lands in
 * per-superblock slots folded serially in suite order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/bounds_eval.hh"
#include "eval/experiment.hh"
#include "graph/analysis.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/perf_counters.hh"
#include "support/telemetry.hh"

namespace balance
{
namespace
{

/** Force both capture switches off on scope exit. */
struct TelemetryGuard
{
    ~TelemetryGuard()
    {
        setMetricsCollection(false);
        setDecisionLogCapture(false);
    }
};

/** Per-superblock results plus rendered decision logs, suite order. */
struct Captured
{
    std::vector<std::string> names;
    std::vector<WctBounds> bounds;
    std::vector<double> tightest;
    std::vector<std::vector<double>> wct;
    std::vector<std::string> decisionLogs;
};

Captured
runAt(const std::vector<BenchmarkProgram> &suite,
      const MachineModel &machine, int threads)
{
    HeuristicSet set = HeuristicSet::paperSet();
    Captured out;
    evaluatePopulation(
        suite, machine, set, {},
        [&](const Superblock &sb, const SuperblockEval &eval) {
            out.names.push_back(sb.name());
            out.bounds.push_back(eval.bounds);
            out.tightest.push_back(eval.tightest);
            out.wct.push_back(eval.wct);
            out.decisionLogs.push_back(
                eval.telemetry ? eval.telemetry->decisionLog
                               : std::string());
        },
        threads);
    return out;
}

/**
 * The suite at scale 0.004, plus one 9-12-branch superblock borrowed
 * from a larger sample: none of the sampled ones has six branches,
 * and with 84 or more triples the borrowed one runs the Triplewise
 * fan-out under every check here.
 */
std::vector<BenchmarkProgram>
tinySuite()
{
    SuiteOptions opts;
    opts.scale = 0.004;
    std::vector<BenchmarkProgram> suite = buildSuite(opts);
    opts.scale = 0.01;
    for (BenchmarkProgram &prog : buildSuite(opts)) {
        for (Superblock &sb : prog.superblocks) {
            if (sb.numBranches() >= 9 && sb.numBranches() <= 12) {
                suite.front().superblocks.push_back(std::move(sb));
                return suite;
            }
        }
    }
    ADD_FAILURE() << "no 9-12-branch superblock at scale 0.01";
    return suite;
}

void
expectSameResults(const Captured &a, const Captured &b)
{
    ASSERT_EQ(a.names, b.names);
    for (std::size_t i = 0; i < a.names.size(); ++i) {
        EXPECT_EQ(a.tightest[i], b.tightest[i]) << a.names[i];
        EXPECT_EQ(a.bounds[i].cp, b.bounds[i].cp);
        EXPECT_EQ(a.bounds[i].hu, b.bounds[i].hu);
        EXPECT_EQ(a.bounds[i].rj, b.bounds[i].rj);
        EXPECT_EQ(a.bounds[i].lc, b.bounds[i].lc);
        EXPECT_EQ(a.bounds[i].pw, b.bounds[i].pw);
        EXPECT_EQ(a.bounds[i].tw, b.bounds[i].tw);
        ASSERT_EQ(a.wct[i].size(), b.wct[i].size());
        for (std::size_t h = 0; h < a.wct[i].size(); ++h)
            EXPECT_EQ(a.wct[i][h], b.wct[i][h])
                << a.names[i] << " heuristic " << h;
    }
}

TEST(TelemetryDeterminism, TelemetryOnNeverPerturbsResults)
{
    TelemetryGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs6();

    setMetricsCollection(false);
    setDecisionLogCapture(false);
    Captured off = runAt(suite, machine, 1);
    ASSERT_FALSE(off.names.empty());
    for (const std::string &log : off.decisionLogs)
        EXPECT_TRUE(log.empty()) << "capture off must record nothing";

    setMetricsCollection(true);
    setDecisionLogCapture(true, /*json=*/true);
    for (int threads : {1, 8}) {
        Captured on = runAt(suite, machine, threads);
        expectSameResults(off, on);
    }
}

TEST(TelemetryDeterminism, MetricsSnapshotBytesAreThreadInvariant)
{
    TelemetryGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs6();
    setMetricsCollection(true);

    auto snapshotAt = [&](int threads) {
        MetricRegistry::global().reset();
        runAt(suite, machine, threads);
        evaluateBoundCost(suite, machine, {}, threads);
        return MetricRegistry::global().snapshotJson();
    };

    std::string serial = snapshotAt(1);
    EXPECT_TRUE(jsonLooksValid(serial));
    for (const char *name :
         {"sched.balance.decisions", "sched.list.decisions",
          "bounds.pair_skeleton.", "bounds.relax.epoch_resets",
          "bounds.scratch.high_water_bytes", "bounds.trips.tw"})
        EXPECT_NE(serial.find(name), std::string::npos) << name;

    EXPECT_EQ(snapshotAt(8), serial);
}

TEST(TelemetryDeterminism, DecisionLogBytesAreThreadInvariant)
{
    TelemetryGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs4();

    for (bool json : {false, true}) {
        setMetricsCollection(false);
        setDecisionLogCapture(true, json);
        Captured serial = runAt(suite, machine, 1);
        Captured par = runAt(suite, machine, 8);
        ASSERT_EQ(serial.decisionLogs, par.decisionLogs)
            << "json=" << json;

        bool sawSteps = false;
        for (const std::string &log : serial.decisionLogs) {
            if (log.empty())
                continue;
            sawSteps = true;
            if (!json)
                continue;
            // Every line of the JSON rendering is a valid document.
            std::size_t pos = 0;
            while (pos < log.size()) {
                std::size_t nl = log.find('\n', pos);
                ASSERT_NE(nl, std::string::npos);
                EXPECT_TRUE(
                    jsonLooksValid(log.substr(pos, nl - pos)))
                    << log.substr(pos, nl - pos);
                pos = nl + 1;
            }
        }
        EXPECT_TRUE(sawSteps) << "capture produced no decision steps";
    }
}

TEST(TelemetryDeterminism, HwCountersNeverPerturbResultsOrBytes)
{
    TelemetryGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs6();
    setMetricsCollection(true);

    // Baseline with the profiler off: results plus the exact
    // metrics-snapshot bytes every later configuration must match.
    PerfProfiler &profiler = PerfProfiler::global();
    profiler.disable();
    MetricRegistry::global().reset();
    Captured off = runAt(suite, machine, 1);
    evaluateBoundCost(suite, machine, {}, 1);
    std::string offSnapshot = MetricRegistry::global().snapshotJson();
    ASSERT_FALSE(off.names.empty());

    // Counters on: schedules, bounds, WCTs, Table 2 trips, and the
    // non-counter telemetry bytes stay bitwise identical at every
    // thread count. Only hwcounters output itself may vary (its
    // measured values are nondeterministic by nature), and even
    // there the per-phase entry counts are exact.
    profiler.enable();
    std::vector<long long> entriesAtOneThread;
    for (int threads : {1, 8}) {
        profiler.reset();
        MetricRegistry::global().reset();
        Captured on = runAt(suite, machine, threads);
        evaluateBoundCost(suite, machine, {}, threads);
        expectSameResults(off, on);
        EXPECT_EQ(MetricRegistry::global().snapshotJson(),
                  offSnapshot)
            << "threads=" << threads;

        PerfSnapshot snap = profiler.snapshot();
        std::string doc = snap.toJson();
        EXPECT_TRUE(jsonLooksValid(doc)) << doc;
        std::vector<long long> entries;
        for (int p = 0; p < numPerfPhases; ++p)
            entries.push_back(snap.phases[std::size_t(p)].entries);
        if (threads == 1)
            entriesAtOneThread = entries;
        else
            EXPECT_EQ(entries, entriesAtOneThread)
                << "per-phase region entries must be exact sums, "
                   "independent of the worker count";
    }
    profiler.disable();
}

TEST(TelemetryDeterminism, TripCountersMatchBoundCounterSums)
{
    TelemetryGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs6();

    setMetricsCollection(true);
    MetricRegistry::global().reset();
    evaluateBoundCost(suite, machine, {}, 8);

    // Recompute the Table 2 totals serially, straight from
    // BoundCounters, the way bench/table2 reports them.
    long long expected[8] = {};
    for (const BenchmarkProgram &prog : suite) {
        for (const Superblock &sb : prog.superblocks) {
            GraphContext ctx(sb);
            for (int bi = 0; bi < sb.numBranches(); ++bi)
                expected[0] += sb.numOps() + sb.numEdges();

            BoundCounters hu;
            huEarly(ctx, machine, &hu);
            expected[1] += hu.trips;

            BoundCounters rj;
            rjEarly(ctx, machine, &rj);
            expected[2] += rj.trips;

            BoundCounters lc;
            std::vector<int> earlyRC =
                lcEarlyRCForSuperblock(ctx, machine, {}, &lc);
            expected[3] += lc.trips;

            BoundCounters lcOrig;
            LcOptions noTheorem1;
            noTheorem1.useTheorem1 = false;
            lcEarlyRCForSuperblock(ctx, machine, noTheorem1, &lcOrig);
            expected[4] += lcOrig.trips;

            BoundCounters lcRev;
            std::vector<std::vector<int>> lateRCs;
            for (int bi = 0; bi < sb.numBranches(); ++bi)
                lateRCs.push_back(
                    lateRCFor(ctx, machine, bi, earlyRC, &lcRev));
            expected[5] += lcRev.trips;

            BoundCounters pwC;
            PairwiseBounds pw(ctx, machine, earlyRC, lateRCs, {},
                              &pwC);
            expected[6] += pwC.trips;

            BoundCounters twC;
            computeTriplewise(ctx, machine, earlyRC, lateRCs, pw, {},
                              &twC);
            expected[7] += twC.trips;
        }
    }

    static const char *metricNames[8] = {
        "bounds.trips.cp",          "bounds.trips.hu",
        "bounds.trips.rj",          "bounds.trips.lc",
        "bounds.trips.lc_original", "bounds.trips.lc_reverse",
        "bounds.trips.pw",          "bounds.trips.tw"};
    MetricRegistry &reg = MetricRegistry::global();
    for (int i = 0; i < 8; ++i) {
        EXPECT_GT(expected[i], 0) << metricNames[i];
        EXPECT_EQ(reg.counter(metricNames[i]).value(), expected[i])
            << metricNames[i];
    }
}

} // namespace
} // namespace balance
