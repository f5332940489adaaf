/**
 * @file
 * Golden equivalence between the allocation-free scheduler engine and
 * the retained naive reference (sched/reference/reference.hh). The
 * engine promises *bitwise identical* schedules, weighted completion
 * times, and SchedulerStats — same issue cycles, same doubles, same
 * trip counts — across a seeded workload covering all eight program
 * profiles and the six paper machine configurations, with one
 * SchedScratch reused across every (superblock, machine) pair, and
 * for every thread count of the parallel evaluation driver.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/balance_scheduler.hh"
#include "eval/experiment.hh"
#include "machine/machine_model.hh"
#include "sched/best_scheduler.hh"
#include "sched/heuristics.hh"
#include "sched/reference/reference.hh"
#include "sched/sched_scratch.hh"
#include "support/rng.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

namespace balance
{
namespace
{

void
expectScheduleIdentical(const Schedule &got, const Schedule &want,
                        const Superblock &sb, const std::string &where)
{
    ASSERT_EQ(got.numOps(), want.numOps()) << where;
    for (OpId v = 0; v < sb.numOps(); ++v) {
        ASSERT_EQ(got.issueOf(v), want.issueOf(v))
            << where << " op " << v;
    }
    // EXPECT_EQ on doubles is exact comparison: bitwise identity is
    // the contract, not closeness.
    EXPECT_EQ(got.wct(sb), want.wct(sb)) << where;
}

void
expectStatsIdentical(const SchedulerStats &got,
                     const SchedulerStats &want,
                     const std::string &where)
{
    EXPECT_EQ(got.decisions, want.decisions) << where;
    EXPECT_EQ(got.loopTrips, want.loopTrips) << where;
    EXPECT_EQ(got.cycles, want.cycles) << where;
    EXPECT_EQ(got.readySum, want.readySum) << where;
    EXPECT_EQ(got.fullUpdates, want.fullUpdates) << where;
    EXPECT_EQ(got.lightUpdates, want.lightUpdates) << where;
    EXPECT_EQ(got.selectionPasses, want.selectionPasses) << where;
    EXPECT_EQ(got.candidatesSum, want.candidatesSum) << where;
}

void
expectKeyIdentical(const std::vector<double> &got,
                   const std::vector<double> &want,
                   const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << where << " index " << i;
}

/** The reference Best envelope's primary lineup, in its order. */
std::vector<std::shared_ptr<const Scheduler>>
bestPrimaries()
{
    return {std::make_shared<SuccessiveRetirementScheduler>(),
            std::make_shared<CriticalPathScheduler>(),
            std::make_shared<GStarScheduler>(),
            std::make_shared<DhasyScheduler>()};
}

TEST(SchedEngineGolden, SuiteBitwiseIdenticalAcrossMachines)
{
    // All eight program profiles at a sampled scale; every machine
    // config from the paper. One SchedScratch reused across every
    // superblock — stale cached priority tables or grid memory bleed
    // between calls would show up as a mismatch here.
    std::vector<BenchmarkProgram> suite =
        buildSuite({0x5eedbeefcafe1995ULL, 0.005});
    ASSERT_EQ(suite.size(), 8u);

    std::vector<MachineModel> machines = MachineModel::paperConfigs();
    ASSERT_EQ(machines.size(), 6u);

    CriticalPathScheduler cp;
    SuccessiveRetirementScheduler sr;
    DhasyScheduler dhasy;
    GStarScheduler gstar;
    BestScheduler best(bestPrimaries());

    for (const MachineModel &m : machines) {
        SchedScratch scratch;
        for (const BenchmarkProgram &prog : suite) {
            ASSERT_FALSE(prog.superblocks.empty()) << prog.name;
            for (const Superblock &sb : prog.superblocks) {
                GraphContext ctx(sb);
                std::string where =
                    prog.name + "/" + sb.name() + "/" + m.name();
                std::vector<double> weights =
                    steeringWeights(sb, {});

                // The cached priority tables themselves.
                expectKeyIdentical(scratch.cpKey(ctx),
                                   sched_reference::criticalPathKey(ctx),
                                   where + " cpKey");
                expectKeyIdentical(
                    scratch.srKey(ctx),
                    sched_reference::successiveRetirementKey(ctx),
                    where + " srKey");
                expectKeyIdentical(
                    scratch.dhKey(ctx, weights),
                    sched_reference::dhasyKey(ctx, weights),
                    where + " dhKey");

                ScheduleRequest req;
                req.scratch = &scratch;

                struct Case
                {
                    const char *tag;
                    const Scheduler *engine;
                    Schedule ref;
                    SchedulerStats refStats;
                };
                std::vector<Case> cases;
                cases.push_back({"CP", &cp, {}, {}});
                cases.back().ref = sched_reference::listSchedule(
                    sb, m, sched_reference::criticalPathKey(ctx),
                    &cases.back().refStats);
                cases.push_back({"SR", &sr, {}, {}});
                cases.back().ref = sched_reference::listSchedule(
                    sb, m,
                    sched_reference::successiveRetirementKey(ctx),
                    &cases.back().refStats);
                cases.push_back({"DHASY", &dhasy, {}, {}});
                cases.back().ref = sched_reference::listSchedule(
                    sb, m, sched_reference::dhasyKey(ctx, weights),
                    &cases.back().refStats);
                cases.push_back({"G*", &gstar, {}, {}});
                cases.back().ref = sched_reference::gstarSchedule(
                    ctx, m, weights, &cases.back().refStats);
                cases.push_back({"Best", &best, {}, {}});
                cases.back().ref = sched_reference::bestSchedule(
                    ctx, m, weights, &cases.back().refStats);

                for (Case &c : cases) {
                    SchedulerStats engineStats;
                    req.stats = &engineStats;
                    Schedule got = c.engine->run(ctx, m, req);
                    got.validate(sb, m);
                    expectScheduleIdentical(got, c.ref, sb,
                                            where + " " + c.tag);
                    expectStatsIdentical(engineStats, c.refStats,
                                         where + " " + c.tag);
                }
            }
        }
    }
}

TEST(SchedEngineGolden, BestOnAWideShapeMatchesReference)
{
    // From 128 ops up the grid ranks by the mapped u64 keys through
    // the radix sort, and each point's order is repaired from the
    // previous point's; the suite above stays below that size. This
    // is perfbench's `large` shape 0, the giant path at 40 blocks.
    GeneratorParams params;
    params.giantProb = 1.0;
    params.giantMinBlocks = params.giantMaxBlocks = 40;
    Rng rng = Rng::stream(0x1a26e, 0);
    Superblock sb = generateSuperblock(rng, params, "large.sb0");
    ASSERT_GE(sb.numOps(), 128);
    GraphContext ctx(sb);
    std::vector<double> weights = steeringWeights(sb, {});
    BestScheduler best(bestPrimaries());
    SchedScratch scratch;

    for (const MachineModel &m : MachineModel::paperConfigs()) {
        std::string where = sb.name() + "/" + m.name();
        SchedulerStats refStats;
        Schedule ref =
            sched_reference::bestSchedule(ctx, m, weights, &refStats);
        SchedulerStats gotStats;
        ScheduleRequest req;
        req.scratch = &scratch;
        req.stats = &gotStats;
        Schedule got = best.run(ctx, m, req);
        got.validate(sb, m);
        expectScheduleIdentical(got, ref, sb, where);
        expectStatsIdentical(gotStats, refStats, where);
    }
}

TEST(SchedEngineGolden, GridDedupActuallySkipsRuns)
{
    // The dedup memory must be doing real work (otherwise the perf
    // claim is vacuous) while the suite above pins correctness.
    std::vector<BenchmarkProgram> suite =
        buildSuite({0x5eedbeefcafe1995ULL, 0.005});
    const MachineModel m = MachineModel::gp4();
    SchedScratch scratch;
    BestScheduler best(bestPrimaries());

    for (const BenchmarkProgram &prog : suite) {
        for (const Superblock &sb : prog.superblocks) {
            GraphContext ctx(sb);
            ScheduleRequest req;
            req.scratch = &scratch;
            best.run(ctx, m, req);
        }
    }
    // Every grid point is either scheduled or deduplicated.
    long long total =
        scratch.stats.gridRuns + scratch.stats.gridSkipped;
    EXPECT_EQ(total % 121, 0) << "11x11 grid points per superblock";
    EXPECT_GT(scratch.stats.gridSkipped, 0);
    EXPECT_GT(scratch.stats.tableHits, 0);
    EXPECT_GT(scratch.highWaterBytes(), 0u);
}

TEST(SchedEngineGolden, ScratchVsNoScratchIdentity)
{
    // Passing a SchedScratch (and reusing it) must not change any
    // schedule or stat relative to the thread-local fallback — for
    // the grid-based Best, for Balance (RC bounds, the coreExt
    // extension), and for Help (DC mode, the dcLate buffers).
    std::vector<BenchmarkProgram> suite =
        buildSuite({0xfeedULL, 0.005});
    BestScheduler best(bestPrimaries());
    BalanceScheduler bal;
    HelpScheduler help;
    const Scheduler *schedulers[] = {&best, &bal, &help};

    for (const MachineModel &m :
         {MachineModel::gp4(), MachineModel::fs8()}) {
        SchedScratch scratch;
        for (const Superblock &sb : suite.front().superblocks) {
            GraphContext ctx(sb);
            std::string where = sb.name() + "/" + m.name();
            for (const Scheduler *s : schedulers) {
                SchedulerStats plainStats;
                ScheduleRequest plain;
                plain.stats = &plainStats;
                Schedule baseline = s->run(ctx, m, plain);

                // Twice through the same scratch: the second run
                // exercises every rebind/reset path.
                for (int round = 0; round < 2; ++round) {
                    SchedulerStats scratchStats;
                    ScheduleRequest withScratch;
                    withScratch.stats = &scratchStats;
                    withScratch.scratch = &scratch;
                    Schedule got = s->run(ctx, m, withScratch);
                    std::string tag = where + " " + s->name() +
                                      " round " +
                                      std::to_string(round);
                    expectScheduleIdentical(got, baseline, sb, tag);
                    expectStatsIdentical(scratchStats, plainStats,
                                         tag);
                }
            }
        }
    }
}

TEST(SchedEngineGolden, ThreadCountsBitwiseIdentical)
{
    // The full evaluation driver at --threads 1 and --threads N must
    // produce bitwise-identical per-superblock WCT vectors and
    // aggregate metrics: per-superblock scratches keep the engine's
    // caching invisible to the parallel schedule of work.
    std::vector<BenchmarkProgram> suite =
        buildSuite({0x5eedbeefcafe1995ULL, 0.005});
    HeuristicSet set = HeuristicSet::paperSet(true);

    for (const MachineModel &m :
         {MachineModel::gp4(), MachineModel::fs8()}) {
        std::vector<std::vector<double>> serialWcts, parallelWcts;
        PopulationMetrics serial = evaluatePopulation(
            suite, m, set, {},
            [&](const Superblock &, const SuperblockEval &eval) {
                serialWcts.push_back(eval.wct);
            },
            1);
        PopulationMetrics parallel = evaluatePopulation(
            suite, m, set, {},
            [&](const Superblock &, const SuperblockEval &eval) {
                parallelWcts.push_back(eval.wct);
            },
            0);

        ASSERT_EQ(serialWcts.size(), parallelWcts.size()) << m.name();
        for (std::size_t i = 0; i < serialWcts.size(); ++i) {
            ASSERT_EQ(serialWcts[i].size(), parallelWcts[i].size());
            for (std::size_t h = 0; h < serialWcts[i].size(); ++h) {
                EXPECT_EQ(serialWcts[i][h], parallelWcts[i][h])
                    << m.name() << " superblock " << i
                    << " heuristic " << h;
            }
        }
        EXPECT_EQ(serial.boundCycles, parallel.boundCycles);
        EXPECT_EQ(serial.nontrivialSlowdown,
                  parallel.nontrivialSlowdown);
        EXPECT_EQ(serial.optimalFraction, parallel.optimalFraction);
    }
}

} // namespace
} // namespace balance
