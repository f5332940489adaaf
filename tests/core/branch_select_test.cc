#include "core/branch_select.hh"

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "graph/builder.hh"
#include "workload/paper_figures.hh"

namespace balance
{
namespace
{

/** Six independent int ops feeding two branches (GP2). */
Superblock
twoBranchSb()
{
    SuperblockBuilder b("sel");
    for (int i = 0; i < 3; ++i)
        b.addOp(OpClass::IntAlu, 1);
    OpId s = b.addBranch(0.5);
    for (OpId v = 0; v < 3; ++v)
        b.addEdge(v, s);
    for (int i = 0; i < 2; ++i)
        b.addOp(OpClass::IntAlu, 1);
    OpId f = b.addBranch(0.5);
    b.addEdge(4, f);
    b.addEdge(5, f);
    return b.build();
}

BranchNeeds
needsOf(int branchIdx, double weight, std::vector<OpId> each,
        std::vector<std::vector<OpId>> one)
{
    BranchNeeds n;
    n.branchIdx = branchIdx;
    n.weight = weight;
    n.needEach = std::move(each);
    n.needOne = std::move(one);
    return n;
}

TEST(SelectPass, IgnoredWithoutNeeds)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    std::vector<BranchNeeds> needs = {needsOf(0, 0.5, {}, {{}}),
                                      needsOf(1, 0.5, {}, {{}})};
    SelectionResult sel = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Ignored);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Ignored);
    EXPECT_TRUE(sel.unconstrained());
    EXPECT_DOUBLE_EQ(sel.rank, 0.0);
}

TEST(SelectPass, CompatibleNeedsBothSelected)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    // Branch 0 needs op 0 now; branch 1 needs one of {4, 5}.
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.6, {0}, {{}}),
        needsOf(1, 0.4, {}, {{4, 5}}),
    };
    SelectionResult sel = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Selected);
    ASSERT_EQ(sel.takeEach.size(), 1u);
    EXPECT_EQ(sel.takeEach[0], 0);
    ASSERT_EQ(sel.takeOne[0].size(), 2u);
    EXPECT_DOUBLE_EQ(sel.rank, 1.0);
    std::vector<OpId> cands;
    sel.candidateOps(cands);
    EXPECT_EQ(cands.size(), 3u);
}

TEST(SelectPass, ResourceExhaustionDelaysLater)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    // Branch 0 claims both GP2 slots; branch 1's resource need
    // cannot be accommodated on top.
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.6, {0, 1}, {{}}),
        needsOf(1, 0.4, {}, {{4, 5}}),
    };
    SelectionResult sel = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Delayed);
    EXPECT_DOUBLE_EQ(sel.rank, 0.6 - 0.4);
}

TEST(SelectPass, OrderDecidesWinnerUnderContention)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.6, {0, 1}, {{}}),
        needsOf(1, 0.4, {4, 5}, {{}}),
    };
    SelectionResult first = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(first.outcome[0], BranchOutcome::Selected);
    EXPECT_EQ(first.outcome[1], BranchOutcome::Delayed);
    SelectionResult second = selectPass(state, needs, {1, 0}, scratch);
    EXPECT_EQ(second.outcome[0], BranchOutcome::Delayed);
    EXPECT_EQ(second.outcome[1], BranchOutcome::Selected);
}

TEST(SelectPass, TakeOneIntersection)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    // Both branches have resource needs with overlap {1}.
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.6, {}, {{0, 1}}),
        needsOf(1, 0.4, {}, {{1, 4}}),
    };
    SelectionResult sel = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Selected);
    ASSERT_EQ(sel.takeOne[0].size(), 1u);
    EXPECT_EQ(sel.takeOne[0][0], 1);
}

TEST(SelectPass, DisjointTakeOneDelays)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.6, {}, {{0}}),
        needsOf(1, 0.4, {}, {{4}}),
    };
    // Disjoint singleton needs in the same pool: both fit in GP2's
    // two slots? Each TakeOne needs one slot; two needs in the same
    // pool cannot be tracked jointly by a single intersection, so
    // the second branch is delayed.
    SelectionResult sel = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Delayed);
}

TEST(SelectPass, NeedMetByTakeEachIsFree)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    // Branch 1's resource need is already satisfied by branch 0's
    // dependence need for op 0.
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.6, {0, 1}, {{}}),
        needsOf(1, 0.4, {}, {{0, 4}}),
    };
    SelectionResult sel = selectPass(state, needs, {0, 1}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Selected);
}

TEST(SelectPass, UnreadyNeedEachDelays)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    // Branch 1 "needs" its own branch op, which is not dep-ready.
    std::vector<BranchNeeds> needs = {
        needsOf(1, 0.9, {sb.branches()[1]}, {{}}),
    };
    SelectionResult sel = selectPass(state, needs, {0}, scratch);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Delayed);
}

TEST(SelectCompatible, TradeoffMarksDelayedOk)
{
    // Figure 4 at P = 0.26: the pairwise point is (3, 4) -- the
    // optimal joint solution delays the side exit past its
    // individual bound of 2. When the selection cannot serve both,
    // the delayed side exit must be revised to delayedOK and its
    // weight must flip from penalty to reward in the rank.
    Superblock sb = paperFigure4(0.26);
    GraphContext ctx(sb);
    MachineModel machine = MachineModel::gp2();
    BoundsToolkit toolkit(ctx, machine);
    ASSERT_NE(toolkit.pairwise(), nullptr);
    const PairPoint &pt = toolkit.pairwise()->pair(0, 1);
    ASSERT_EQ(pt.x, 3);
    ASSERT_EQ(pt.y, 4);

    SchedState state(sb, machine);
    SelectionScratch scratch;
    // Conflicting dependence needs: the side exit claims two int
    // feeders, the final exit claims its chain head plus a feeder;
    // three ops do not fit GP2's two slots.
    std::vector<BranchNeeds> needs = {
        needsOf(0, sb.exitProb(sb.branches()[0]), {0, 1}, {{}}),
        needsOf(1, sb.exitProb(sb.branches()[1]), {5, 2}, {{}}),
    };
    needs[0].dynEarly = 2;
    needs[1].dynEarly = 4;

    TradeoffInputs tradeoff;
    tradeoff.pairwise = toolkit.pairwise();
    tradeoff.earlyRC = &toolkit.earlyRC();
    tradeoff.sb = &sb;
    SelectionResult sel =
        selectCompatibleBranches(state, needs, tradeoff, scratch);
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::DelayedOk);
    EXPECT_NEAR(sel.rank, 0.26 + 0.74, 1e-12);

    // Without tradeoff inputs the same selection penalizes the
    // delayed branch instead.
    TradeoffInputs none;
    SelectionResult plain =
        selectCompatibleBranches(state, needs, none, scratch);
    EXPECT_EQ(plain.outcome[0], BranchOutcome::Delayed);
    EXPECT_NEAR(plain.rank, 0.74 - 0.26, 1e-12);
}

TEST(SelectCompatible, OrdersByWeight)
{
    Superblock sb = twoBranchSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    SelectionScratch scratch;
    std::vector<BranchNeeds> needs = {
        needsOf(0, 0.2, {0, 1}, {{}}),
        needsOf(1, 0.8, {4, 5}, {{}}),
    };
    TradeoffInputs none;
    SelectionResult sel =
        selectCompatibleBranches(state, needs, none, scratch);
    // The heavier branch wins the contention.
    EXPECT_EQ(sel.outcome[1], BranchOutcome::Selected);
    EXPECT_EQ(sel.outcome[0], BranchOutcome::Delayed);
}

} // namespace
} // namespace balance
