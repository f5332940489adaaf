/**
 * The service scheduling engine (service/engine.hh): result shape,
 * bound-ladder consistency, scheduler dispatch, B&B certification,
 * and the determinism contract — batch responses bitwise identical
 * to one-at-a-time responses and to every thread count, cache hit
 * indistinguishable from miss in the body.
 */

#include "service/engine.hh"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "graph/builder.hh"
#include "sched/bnb/bnb.hh"
#include "workload/generator.hh"
#include "workload/paper_figures.hh"

namespace balance
{
namespace
{

ServiceRequest
makeRequest(Superblock sb, const std::string &scheduler = "balance")
{
    ServiceRequest r;
    r.sb = std::move(sb);
    r.scheduler = scheduler;
    return r;
}

std::vector<ServiceRequest>
mixedBatch(int n)
{
    GeneratorParams params;
    Rng rng(0x5eedf00dULL);
    std::vector<ServiceRequest> reqs;
    for (int i = 0; i < n; ++i) {
        reqs.push_back(makeRequest(generateSuperblock(
            rng, params, "engine_sb_" + std::to_string(i))));
    }
    return reqs;
}

TEST(ScheduleEngine, SchedulesOneRequestWithSaneOutput)
{
    ScheduleEngine engine;
    ServiceRequest req = makeRequest(paperFigure6());
    ServiceResult r = engine.run(req);

    EXPECT_EQ(r.machine, "GP4");
    EXPECT_EQ(r.scheduler, "balance");
    EXPECT_EQ(int(r.issue.size()), req.sb.numOps());
    EXPECT_GT(r.wct, 0.0);
    EXPECT_GT(r.makespan, 0);
    ASSERT_TRUE(r.haveBounds);
    // The schedule can never beat any lower bound, and "tightest"
    // must dominate the whole ladder.
    EXPECT_GE(r.wct, r.tightest - 1e-9);
    for (double b : {r.bounds.cp, r.bounds.hu, r.bounds.rj,
                     r.bounds.lc, r.bounds.pw, r.bounds.tw})
        EXPECT_LE(b, r.tightest + 1e-9);
    EXPECT_FALSE(r.haveBnb);
    EXPECT_FALSE(r.cacheHit);

    // Second run of the same content: cache hit, identical body.
    ServiceResult again = engine.run(req);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_EQ(renderServiceResponse({r}, false),
              renderServiceResponse({again}, false));
}

TEST(ScheduleEngine, DispatchesEverySchedulerKey)
{
    ScheduleEngine engine;
    for (const char *key :
         {"balance", "cp", "sr", "gstar", "dhasy", "help", "best"}) {
        ServiceRequest req = makeRequest(paperFigure6(), key);
        req.bounds = false;
        ServiceResult r = engine.run(req);
        EXPECT_EQ(r.scheduler, key);
        EXPECT_GT(r.wct, 0.0) << key;
        EXPECT_FALSE(r.haveBounds);
    }
}

TEST(ScheduleEngine, CertifyRunsBnbAndBoundsTheSchedule)
{
    ScheduleEngine engine;
    ServiceRequest req = makeRequest(paperFigure6());
    req.certify = true;
    ServiceResult r = engine.run(req);
    ASSERT_TRUE(r.haveBnb);
    EXPECT_GE(r.bnbNodes, 0); // 0 when the seed is proven outright
    EXPECT_LE(r.bnbLowerBound, r.bnbWct + 1e-9);
    EXPECT_LE(r.bnbWct, r.wct + 1e-9); // certifier can only improve
    if (r.bnbProven) {
        EXPECT_NEAR(r.bnbWct, r.bnbLowerBound, 1e-9);
    }
}

TEST(ScheduleEngine, CertifyAboveTheCertifierLimitIsSkippedNotFatal)
{
    // The parser refuses such requests; a caller that builds one
    // directly gets its schedule without a certificate instead of the
    // certifier's abort.
    const int n = 1100;
    ASSERT_GT(n, maxBnbOps);
    SuperblockBuilder b("chain");
    OpId prev = b.addOp(OpClass::IntAlu);
    for (int k = 2; k < n; ++k) {
        OpId v = b.addOp(OpClass::IntAlu);
        b.addEdge(prev, v);
        prev = v;
    }
    b.addEdge(prev, b.addBranch(1.0));
    ServiceRequest req = makeRequest(b.build(), "cp");
    req.machine = "GP2";
    req.bounds = false;
    req.certify = true;
    req.bnbMaxNodes = 1000;
    ServiceResult r = ScheduleEngine().run(req);
    EXPECT_FALSE(r.haveBnb);
    EXPECT_EQ(r.issue.size(), std::size_t(n));
}

TEST(ScheduleEngine, BatchMatchesSingleRunsBitwise)
{
    std::vector<ServiceRequest> reqs = mixedBatch(6);

    ScheduleEngine batchEngine;
    std::string batched =
        renderServiceResponse(batchEngine.runBatch(reqs), true);

    ScheduleEngine singleEngine;
    std::vector<ServiceResult> singles;
    for (const ServiceRequest &r : reqs)
        singles.push_back(singleEngine.run(r));
    EXPECT_EQ(batched, renderServiceResponse(singles, true));
}

TEST(ScheduleEngine, BatchIsBitwiseIdenticalAcrossThreadCounts)
{
    std::vector<ServiceRequest> reqs = mixedBatch(8);
    std::vector<std::string> rendered;
    for (int threads : {1, 2, 0}) {
        EngineOptions opts;
        opts.threads = threads;
        ScheduleEngine engine(opts);
        rendered.push_back(
            renderServiceResponse(engine.runBatch(reqs), true));
    }
    EXPECT_EQ(rendered[0], rendered[1]);
    EXPECT_EQ(rendered[0], rendered[2]);
}

TEST(ScheduleEngine, CacheHitPathMatchesMissPathBitwise)
{
    std::vector<ServiceRequest> reqs = mixedBatch(4);
    ScheduleEngine engine;
    std::string cold =
        renderServiceResponse(engine.runBatch(reqs), true);
    std::string warm =
        renderServiceResponse(engine.runBatch(reqs), true);
    EXPECT_EQ(cold, warm);
    EXPECT_GE(engine.cache().hits(), 4);
    EXPECT_EQ(engine.cache().misses(), 4);
}

TEST(ScheduleEngine, ConcurrentCallersGetIndependentResults)
{
    // Hammer one engine from many threads with the same request mix;
    // per-slot scratch means no caller can corrupt another (run under
    // TSan via the parallel label).
    std::vector<ServiceRequest> reqs = mixedBatch(3);
    ScheduleEngine engine;
    std::vector<ServiceResult> expected;
    for (const ServiceRequest &r : reqs)
        expected.push_back(engine.run(r));

    std::vector<std::thread> callers;
    std::vector<std::string> got(8);
    for (int t = 0; t < 8; ++t) {
        callers.emplace_back([&engine, &reqs, &expected, &got, t] {
            const ServiceRequest &req =
                reqs[std::size_t(t) % reqs.size()];
            ServiceResult r = engine.run(req);
            got[std::size_t(t)] =
                renderServiceResponse({r}, false);
            (void)expected;
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (int t = 0; t < 8; ++t) {
        EXPECT_EQ(got[std::size_t(t)],
                  renderServiceResponse(
                      {expected[std::size_t(t) % reqs.size()]},
                      false));
    }
}

} // namespace
} // namespace balance
