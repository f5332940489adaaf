/**
 * The one evaluation pipeline (eval/pipeline.hh): the certifier is
 * seeded with the Best envelope's winner, its certificate ladder
 * holds at the paper's target sizes, the plan runs the toolkit only
 * when something needs it, and the adapters agree with a direct
 * evaluate() call.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/experiment.hh"
#include "support/rng.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

/**
 * The certifier's target-size population, the one perfbench's certify
 * workload draws (perfbench/inputs.cc): 50-100-op superblocks drawn
 * from per-stream generators, kept in draw order.
 */
std::vector<Superblock>
bnbPerfPopulation(int count)
{
    GeneratorParams params;
    params.blockGeoP = 0.22;
    params.opsPerBlockMu = 1.7;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 100;
    params.maxBlocks = 20;

    std::vector<Superblock> out;
    std::size_t stream = 0;
    while (int(out.size()) < count) {
        Rng rng = Rng::stream(0xb2b5eedULL, stream++);
        Superblock sb = generateSuperblock(
            rng, params, "bnbperf.sb" + std::to_string(out.size()));
        if (sb.numOps() < 50 || sb.numOps() > 100)
            continue;
        out.push_back(std::move(sb));
    }
    return out;
}

TEST(Pipeline, CertifierSeededWithGridWinner)
{
    // On this instance the combo grid beats every primary, and 1000
    // nodes are too few for the search to find the grid's WCT on its
    // own: seeded with the best primary alone, the certificate would
    // be worse than Best, and evaluateSuperblock asserts it is not.
    std::vector<Superblock> pop = bnbPerfPopulation(26);
    const Superblock &sb = pop[25];
    ASSERT_EQ(sb.name(), "bnbperf.sb25");
    ASSERT_EQ(sb.numOps(), 64);
    ASSERT_EQ(sb.numBranches(), 10);

    HeuristicSet set = HeuristicSet::paperSet(true);
    EvalOptions opts;
    opts.computeBnb = true;
    opts.bnbMaxNodes = 1000;
    SuperblockEval eval =
        evaluateSuperblock(sb, MachineModel::gp2(), set, opts);

    const double best = eval.wct.back();
    const double bestPrimary =
        *std::min_element(eval.wct.begin(), eval.wct.end() - 1);
    EXPECT_LT(best, bestPrimary) << "the grid must win here";

    ASSERT_TRUE(eval.bnb);
    EXPECT_GE(eval.bnb->lowerBound, eval.tightest - 1e-9);
    EXPECT_LE(eval.bnb->lowerBound, eval.bnb->wct + 1e-9);
    EXPECT_LE(eval.bnb->wct, best + 1e-9);
    EXPECT_LE(eval.bnb->counters.nodesExpanded, opts.bnbMaxNodes);
}

TEST(Pipeline, CertificateLadderAtTargetSizes)
{
    // The unseeded search at the paper's target sizes, on every paper
    // machine: its incumbent is a legal schedule, and its certificate
    // satisfies tightest <= lowerBound <= wct.
    std::vector<Superblock> pop = bnbPerfPopulation(6);
    for (const MachineModel &machine : MachineModel::paperConfigs()) {
        for (const Superblock &sb : pop) {
            GraphContext ctx(sb);
            BoundsToolkit toolkit(ctx, machine);
            const double tightest =
                computeWctBounds(ctx, machine).tightest();
            BnbOptions bo;
            bo.maxNodes = 20000;
            BnbRequest req;
            req.toolkit = &toolkit;
            req.staticLowerBound = tightest;
            BnbResult r = bnbSchedule(ctx, machine, bo, req);
            r.schedule.validate(sb, machine);
            EXPECT_GE(r.lowerBound, tightest - 1e-9)
                << sb.name() << " on " << machine.name();
            EXPECT_LE(r.lowerBound, r.wct + 1e-9)
                << sb.name() << " on " << machine.name();
        }
    }
}

TEST(Pipeline, LadderOffLeavesSchedulesAlone)
{
    // A lineup without Balance needs no toolkit when the ladder is
    // off; its schedules must not depend on whether the ladder ran.
    std::vector<Superblock> pop = bnbPerfPopulation(3);
    for (const SchedulerEntry &e : schedulerTable()) {
        for (const Superblock &sb : pop) {
            GraphContext ctx(sb);
            EvalPlan plan;
            plan.lineup = std::span(&e.scheduler, 1);
            EvalOutcome with = evaluate(ctx, MachineModel::fs8(), plan);
            plan.ladder = false;
            EvalOutcome without =
                evaluate(ctx, MachineModel::fs8(), plan);
            EXPECT_EQ(without.tightest, 0.0);
            EXPECT_GT(with.tightest, 0.0);
            ASSERT_EQ(with.wct, without.wct) << e.key;
            for (OpId op = 0; op < sb.numOps(); ++op) {
                EXPECT_EQ(with.schedules[0].issueOf(op),
                          without.schedules[0].issueOf(op));
            }
        }
    }
}

TEST(Pipeline, EnvelopeMatchesBestScheduler)
{
    // The pipeline's envelope over the paper lineup is the schedule
    // BestScheduler::run returns.
    std::vector<Superblock> pop = bnbPerfPopulation(4);
    HeuristicSet set = HeuristicSet::paperSet(false);
    const SchedulerEntry *best = schedulerByKey("best");
    ASSERT_NE(best, nullptr);
    for (const Superblock &sb : pop) {
        GraphContext ctx(sb);
        EvalPlan plan;
        plan.ladder = false;
        plan.lineup = set.primaries;
        plan.withBest = true;
        EvalOutcome r = evaluate(ctx, MachineModel::gp4(), plan);
        Schedule want = best->scheduler->run(ctx, MachineModel::gp4());
        EXPECT_EQ(r.best.wct(), want.wct(sb));
        for (OpId op = 0; op < sb.numOps(); ++op)
            EXPECT_EQ(r.best.schedule().issueOf(op), want.issueOf(op));
    }
}

TEST(Pipeline, SchedulerTableKeysAndNames)
{
    const char *keys[] = {"sr", "cp", "gstar", "dhasy", "help",
                          "balance", "best"};
    const std::vector<SchedulerEntry> &table = schedulerTable();
    ASSERT_EQ(table.size(), 7u);
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_STREQ(table[i].key, keys[i]);
        EXPECT_EQ(table[i].scheduler->name(), table[i].name);
        EXPECT_EQ(schedulerByKey(keys[i]), &table[i]);
    }
    EXPECT_EQ(schedulerByKey("Balance"), nullptr);
    EXPECT_EQ(HeuristicSet::paperSet(false).names(),
              (std::vector<std::string>{"SR", "CP", "G*", "DHASY",
                                        "Help", "Balance"}));
}

} // namespace
} // namespace balance
