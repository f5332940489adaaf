#include "bounds/superblock_bounds.hh"

#include <gtest/gtest.h>

#include "eval/pipeline.hh"
#include "workload/generator.hh"
#include "workload/paper_figures.hh"

namespace balance
{
namespace
{

TEST(WctFromBranchEarly, WeightsAndLatencies)
{
    Superblock sb = paperFigure1(0.25);
    // Branch latencies are 1: wct = 0.25*(2+1) + 0.75*(8+1).
    EXPECT_NEAR(wctFromBranchEarly(sb, {2, 8}),
                0.25 * 3 + 0.75 * 9, 1e-12);
}

TEST(WctBounds, TightestIsMax)
{
    WctBounds b;
    b.cp = 1.0;
    b.hu = 2.0;
    b.rj = 1.5;
    b.lc = 2.5;
    b.pw = 3.0;
    b.tw = 2.9;
    EXPECT_DOUBLE_EQ(b.tightest(), 3.0);
}

TEST(ComputeWctBounds, OrderingOnFigures)
{
    for (const Superblock &sb :
         {paperFigure1(), paperFigure2(), paperFigure3(),
          paperFigure4(0.3), paperFigure6()}) {
        for (const MachineModel &m : MachineModel::paperConfigs()) {
            GraphContext ctx(sb);
            WctBounds b = computeWctBounds(ctx, m);
            // Resource-aware bounds dominate the dependence bound.
            EXPECT_GE(b.hu, b.cp - 1e-9) << sb.name() << m.name();
            EXPECT_GE(b.rj, b.cp - 1e-9) << sb.name() << m.name();
            EXPECT_GE(b.lc, b.rj - 1e-9) << sb.name() << m.name();
            // PW clamps to the EarlyRC floor, so it dominates LC.
            EXPECT_GE(b.pw, b.lc - 1e-9) << sb.name() << m.name();
        }
    }
}

TEST(ComputeWctBounds, OrderingOnRandomPopulation)
{
    Rng rng(4242);
    GeneratorParams params;
    for (int trial = 0; trial < 30; ++trial) {
        Rng child = rng.fork();
        Superblock sb = generateSuperblock(child, params,
                                           "r" + std::to_string(trial));
        GraphContext ctx(sb);
        for (const MachineModel &m :
             {MachineModel::gp1(), MachineModel::gp4(),
              MachineModel::fs6()}) {
            WctBounds b = computeWctBounds(ctx, m);
            EXPECT_GE(b.hu, b.cp - 1e-9);
            EXPECT_GE(b.rj, b.cp - 1e-9);
            EXPECT_GE(b.lc, b.rj - 1e-9);
            EXPECT_GE(b.pw, b.lc - 1e-9);
            EXPECT_GT(b.cp, 0.0);
        }
    }
}

TEST(ComputeWctBounds, DisablingPairwiseFallsBack)
{
    Superblock sb = paperFigure4(0.3);
    GraphContext ctx(sb);
    BoundConfig config;
    config.computePairwise = false;
    WctBounds b = computeWctBounds(ctx, MachineModel::gp2(), config);
    EXPECT_DOUBLE_EQ(b.pw, b.lc);
    EXPECT_DOUBLE_EQ(b.tw, b.lc);
}

TEST(BoundsToolkit, ProvidesArtifacts)
{
    Superblock sb = paperFigure3();
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp2();
    BoundsToolkit toolkit(ctx, m);
    EXPECT_EQ(int(toolkit.earlyRC().size()), sb.numOps());
    EXPECT_NE(toolkit.pairwise(), nullptr);
    for (int bi = 0; bi < sb.numBranches(); ++bi)
        EXPECT_EQ(int(toolkit.lateRC(bi).size()), sb.numOps());
}

TEST(BoundsToolkit, CountersAccumulate)
{
    Superblock sb = paperFigure1();
    GraphContext ctx(sb);
    BoundCounterSet counters;
    BoundsToolkit toolkit(ctx, MachineModel::gp2(), {}, &counters);
    EXPECT_GT(counters.lc.trips, 0);
    EXPECT_GT(counters.lcReverse.trips, 0);
    EXPECT_GT(counters.pw.trips, 0);
}

TEST(ComputeWctBounds, PairwiseBeatsLcOnFigure4)
{
    // The paper's Observation 3 example: PW captures the branch
    // tradeoff that per-branch bounds cannot.
    Superblock sb = paperFigure4(0.3);
    GraphContext ctx(sb);
    WctBounds b = computeWctBounds(ctx, MachineModel::gp2());
    EXPECT_GT(b.pw, b.lc + 1e-9);
}

} // namespace
} // namespace balance
