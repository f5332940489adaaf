/**
 * End-to-end checks of the paper's motivating claims (Sections 1-3)
 * on the figure fixtures, pinning the qualitative story the
 * reproduction must tell.
 */

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "core/balance_scheduler.hh"
#include "eval/pipeline.hh"
#include "sched/heuristics.hh"
#include "sched/optimal.hh"
#include "workload/paper_figures.hh"

namespace balance
{
namespace
{

TEST(Motivation, Figure1StoryHolds)
{
    // CP delays the side exit; SR is optimal; the bound knows both
    // exits can make (2, 8).
    Superblock sb = paperFigure1(0.2);
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp2();

    WctBounds bounds = computeWctBounds(ctx, m);
    double lb = 0.2 * 3 + 0.8 * 9;
    EXPECT_NEAR(bounds.tightest(), lb, 1e-9);

    double sr = SuccessiveRetirementScheduler().run(ctx, m).wct(sb);
    double cp = CriticalPathScheduler().run(ctx, m).wct(sb);
    double bal = BalanceScheduler().run(ctx, m).wct(sb);
    EXPECT_NEAR(sr, lb, 1e-9);
    EXPECT_GT(cp, lb + 1e-9);
    EXPECT_NEAR(bal, lb, 1e-9);
}

TEST(Motivation, Figure2HelpCountingIsOutperformed)
{
    // Observation 1: Balance reaches the optimum (2, 3); a pure
    // help-count pick (Help with dependence bounds only) may give
    // the three block-1 feeders priority and lose a cycle on the
    // final exit. Balance must match the exact optimum.
    Superblock sb = paperFigure2(0.4);
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp2();
    OptimalResult opt = optimalSchedule(ctx, m);
    ASSERT_TRUE(opt.proven);
    EXPECT_NEAR(BalanceScheduler().run(ctx, m).wct(sb), opt.wct, 1e-9);
    EXPECT_NEAR(opt.wct, 0.4 * 3 + 0.6 * 4, 1e-9);
}

TEST(Motivation, Figure3BoundsComponentMatters)
{
    // Observation 2: with RC bounds Balance is optimal; the
    // DC-bounds ablation can miss that op 4 must issue in cycle 0.
    Superblock sb = paperFigure3(0.4);
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp2();
    OptimalResult opt = optimalSchedule(ctx, m);
    ASSERT_TRUE(opt.proven);

    double withBounds = BalanceScheduler().run(ctx, m).wct(sb);
    EXPECT_NEAR(withBounds, opt.wct, 1e-9);

    BalanceConfig noBounds;
    noBounds.useRcBounds = false;
    noBounds.useTradeoff = false;
    double without =
        BalanceScheduler(noBounds, "noBounds").run(ctx, m).wct(sb);
    EXPECT_GE(without, withBounds - 1e-9);
}

TEST(Motivation, Figure4OptimalDependsOnProbability)
{
    // Observation 3: three probability regimes, two distinct branch
    // time frontiers.
    MachineModel m = MachineModel::gp2();
    auto issueTimes = [&](double p) {
        Superblock sb = paperFigure4(p);
        GraphContext ctx(sb);
        OptimalResult opt = optimalSchedule(ctx, m);
        EXPECT_TRUE(opt.proven);
        return std::pair<int, int>(
            opt.schedule.issueOf(sb.branches()[0]),
            opt.schedule.issueOf(sb.branches()[1]));
    };
    auto low = issueTimes(0.2);
    EXPECT_EQ(low.first, 3);
    EXPECT_EQ(low.second, 4);
    auto high = issueTimes(0.8);
    EXPECT_EQ(high.first, 2);
    EXPECT_EQ(high.second, 5);
}

TEST(Motivation, Figure4BalanceTracksOptimal)
{
    MachineModel m = MachineModel::gp2();
    for (double p : {0.1, 0.3, 0.45, 0.55, 0.7, 0.9}) {
        Superblock sb = paperFigure4(p);
        GraphContext ctx(sb);
        OptimalResult opt = optimalSchedule(ctx, m);
        ASSERT_TRUE(opt.proven);
        double bal = BalanceScheduler().run(ctx, m).wct(sb);
        EXPECT_NEAR(bal, opt.wct, 1e-9) << "P = " << p;
    }
}

TEST(Motivation, Figure6HuBeatsNaiveCount)
{
    Superblock sb = paperFigure6();
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp2();
    WctBounds bounds = computeWctBounds(ctx, m);
    // Naive resource count says 4; the ERC bound says 5.
    EXPECT_NEAR(bounds.cp, 5.0, 1e-9); // EarlyDC = 4, +1 latency
    EXPECT_NEAR(bounds.hu, 6.0, 1e-9);
    OptimalResult opt = optimalSchedule(ctx, m);
    ASSERT_TRUE(opt.proven);
    EXPECT_NEAR(opt.wct, 6.0, 1e-9);
}

} // namespace
} // namespace balance
