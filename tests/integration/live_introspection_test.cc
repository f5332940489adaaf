/**
 * Live introspection end to end (docs/OBSERVABILITY.md): hammering
 * the diagnostics server's /metrics and /progress endpoints from
 * several threads during a full parallel evaluation must leave every
 * schedule, bound, and telemetry byte identical to a server-off run
 * (the non-perturbation guarantee); /progress must reflect the eval
 * sweep and the branch-and-bound publications; and the metrics
 * timeline's final sample must equal the at-rest snapshot exactly.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.hh"
#include "graph/analysis.hh"
#include "loopback_http.hh"
#include "sched/bnb/bnb.hh"
#include "support/debug_server.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/metrics_timeline.hh"
#include "support/progress.hh"
#include "support/telemetry.hh"

namespace balance
{
namespace
{

/** Force capture switches and the tracker off on scope exit. */
struct IntrospectionGuard
{
    ~IntrospectionGuard()
    {
        setMetricsCollection(false);
        setDecisionLogCapture(false);
        ProgressTracker::global().disable();
    }
};

/** Per-superblock results, suite order. */
struct Captured
{
    std::vector<std::string> names;
    std::vector<double> tightest;
    std::vector<std::vector<double>> wct;
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
            out.tightest.push_back(eval.tightest);
            out.wct.push_back(eval.wct);
        },
        threads);
    return out;
}

std::vector<BenchmarkProgram>
tinySuite()
{
    SuiteOptions opts;
    opts.scale = 0.004;
    return buildSuite(opts);
}

void
expectSameResults(const Captured &a, const Captured &b)
{
    ASSERT_EQ(a.names, b.names);
    for (std::size_t i = 0; i < a.names.size(); ++i) {
        EXPECT_EQ(a.tightest[i], b.tightest[i]) << a.names[i];
        ASSERT_EQ(a.wct[i].size(), b.wct[i].size());
        for (std::size_t h = 0; h < a.wct[i].size(); ++h)
            EXPECT_EQ(a.wct[i][h], b.wct[i][h])
                << a.names[i] << " heuristic " << h;
    }
}

TEST(LiveIntrospection, ConcurrentScrapesNeverPerturbResults)
{
    IntrospectionGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs6();
    setMetricsCollection(true);

    // Baseline: server off.
    MetricRegistry::global().reset();
    Captured off = runAt(suite, machine, 8);
    std::string offSnapshot = MetricRegistry::global().snapshotJson();
    ASSERT_FALSE(off.names.empty());

    // Server on, scrapers hammering /metrics and /progress the whole
    // time the evaluation runs.
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    std::atomic<bool> stopScrape{false};
    std::atomic<long long> scrapes{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 4; ++t) {
        scrapers.emplace_back([&] {
            while (!stopScrape.load(std::memory_order_relaxed)) {
                std::string m = httpGet(server.port(), "/metrics");
                std::string p = httpGet(server.port(), "/progress");
                if (!m.empty() && !p.empty())
                    scrapes.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    MetricRegistry::global().reset();
    Captured on = runAt(suite, machine, 8);
    std::string onSnapshot = MetricRegistry::global().snapshotJson();

    stopScrape.store(true, std::memory_order_relaxed);
    for (std::thread &t : scrapers)
        t.join();
    server.stop();

    EXPECT_GT(scrapes.load(), 0)
        << "the scrapers never completed a request; the test did not "
           "actually exercise concurrent scraping";
    expectSameResults(off, on);
    EXPECT_EQ(onSnapshot, offSnapshot)
        << "scraping must not change a single metrics byte";
}

TEST(LiveIntrospection, ProgressReflectsEvalSweep)
{
    IntrospectionGuard guard;
    auto suite = tinySuite();
    MachineModel machine = MachineModel::fs4();

    ProgressTracker &tracker = ProgressTracker::global();
    tracker.enable();
    tracker.reset();
    Captured run = runAt(suite, machine, 4);

    PhaseProgress &eval = tracker.phase("eval");
    EXPECT_FALSE(eval.active()) << "sweep finished";
    EXPECT_EQ(eval.total(), (long long)(run.names.size()));
    EXPECT_EQ(eval.done(), eval.total());
    EXPECT_GE(eval.starts(), 1);

    std::string doc = tracker.snapshotJson();
    EXPECT_TRUE(jsonLooksValid(doc)) << doc;
    EXPECT_NE(doc.find("\"name\":\"eval\""), std::string::npos);
}

TEST(LiveIntrospection, ProgressReflectsBnbRounds)
{
    IntrospectionGuard guard;
    auto suite = tinySuite();
    ASSERT_FALSE(suite.empty());
    ASSERT_FALSE(suite[0].superblocks.empty());
    const Superblock &sb = suite[0].superblocks[0];
    MachineModel machine = MachineModel::gp4();

    ProgressTracker &tracker = ProgressTracker::global();
    tracker.enable();
    tracker.reset();

    GraphContext ctx(sb);
    BnbOptions opts;
    opts.maxNodes = 20000;
    opts.threads = 2;
    BnbResult result = bnbSchedule(ctx, machine, opts, {});

    BnbProgress progress = tracker.bnbProgress();
    EXPECT_EQ(progress.searches, 1);
    EXPECT_EQ(progress.nodesExpanded, result.counters.nodesExpanded);
    EXPECT_DOUBLE_EQ(progress.incumbent, result.wct);
    EXPECT_DOUBLE_EQ(progress.certifiedFloor, result.lowerBound);
    // Every published delta sums into nodesTotal, and a single
    // search was published since reset(), so the totals agree.
    EXPECT_EQ(progress.nodesTotal, result.counters.nodesExpanded);
}

TEST(LiveIntrospection, BnbResultIdenticalWithTrackerOnAndOff)
{
    IntrospectionGuard guard;
    auto suite = tinySuite();
    const Superblock &sb = suite[0].superblocks[0];
    MachineModel machine = MachineModel::gp4();
    GraphContext ctx(sb);
    BnbOptions opts;
    opts.maxNodes = 20000;
    opts.threads = 2;

    ProgressTracker::global().disable();
    BnbResult off = bnbSchedule(ctx, machine, opts, {});
    ProgressTracker::global().enable();
    BnbResult on = bnbSchedule(ctx, machine, opts, {});

    EXPECT_EQ(off.wct, on.wct);
    EXPECT_EQ(off.lowerBound, on.lowerBound);
    EXPECT_EQ(off.counters.nodesExpanded, on.counters.nodesExpanded);
    EXPECT_EQ(off.counters.rounds, on.counters.rounds);
}

TEST(LiveIntrospection, TimelineFinalSampleEqualsSnapshot)
{
    MetricRegistry reg;
    reg.counter("timeline.test").add(7);
    reg.histogram("timeline.hist").observe(12);

    std::string path =
        "/tmp/balance_timeline_test." + std::to_string(getpid()) +
        ".jsonl";
    {
        MetricsTimeline timeline(reg, path, 5);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        reg.counter("timeline.test").add(3);
        timeline.stop();
        EXPECT_GE(timeline.samplesWritten(), 1);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line, last;
    long long expectSeq = 0;
    while (std::getline(in, line)) {
        ASSERT_TRUE(jsonLooksValid(line)) << line;
        EXPECT_NE(line.find("\"seq\":" + std::to_string(expectSeq)),
                  std::string::npos)
            << "seq must be dense: " << line;
        ++expectSeq;
        last = line;
    }
    ASSERT_FALSE(last.empty());
    // The final sample is taken after writers quiesced: its metrics
    // document is byte-identical to the registry snapshot.
    EXPECT_NE(last.find(reg.snapshotJson()), std::string::npos)
        << "final sample:\n" << last << "\nsnapshot:\n"
        << reg.snapshotJson();
    std::remove(path.c_str());
}

TEST(LiveIntrospection, FlusherIsIdempotent)
{
    // With no sinks configured this is a pure no-op; the contract
    // under test is that calling it repeatedly (atexit + signal
    // watcher + tests) is safe.
    TelemetryFlusher::flushAll();
    TelemetryFlusher::flushAll();
}

} // namespace
} // namespace balance
