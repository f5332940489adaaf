#include "core/branch_dynamics.hh"

#include <gtest/gtest.h>

#include "bounds/branch_bounds.hh"
#include "graph/builder.hh"
#include "workload/paper_figures.hh"

namespace balance
{
namespace
{

/** Bundle that prepares DC-based statics for one superblock. */
struct DynFixture
{
    Superblock sb;
    GraphContext ctx;
    MachineModel machine;
    std::vector<int> earlyRC;
    std::vector<std::vector<int>> lateRCs;

    explicit DynFixture(Superblock s,
                        MachineModel m = MachineModel::gp2())
        : sb(std::move(s)), ctx(sb), machine(std::move(m)),
          earlyRC(lcEarlyRCForSuperblock(ctx, machine))
    {
        for (int bi = 0; bi < sb.numBranches(); ++bi)
            lateRCs.push_back(lateRCFor(ctx, machine, bi, earlyRC));
    }

    BranchDynamics
    dyn(int bi) const
    {
        return BranchDynamics(ctx, machine, bi, earlyRC,
                              lateRCs[std::size_t(bi)]);
    }
};

std::vector<OpId>
needEachOf(const BranchDynamics &d, const SchedState &state)
{
    std::vector<OpId> out;
    d.needEach(state, out);
    return out;
}

std::vector<OpId>
needOneOf(const BranchDynamics &d, const SchedState &state, ResourceId r)
{
    std::vector<OpId> out;
    d.needOne(state, r, out);
    return out;
}

TEST(BranchDynamics, InitialBoundsMatchStatics)
{
    DynFixture f(paperFigure2(0.4));
    SchedState state(f.sb, f.machine);

    BranchDynamics d0 = f.dyn(0);
    BranchDynamics d1 = f.dyn(1);
    d0.fullUpdate(state, nullptr);
    d1.fullUpdate(state, nullptr);
    EXPECT_EQ(d0.dynEarly(), 2); // branch 3: ceil(3/2) preds
    EXPECT_EQ(d1.dynEarly(), 3); // branch 6: ceil(6/2) resource
}

TEST(BranchDynamics, NeedSetsOfFigure2)
{
    // In cycle 0 branch 6 needs op 4 by dependence (late 0) and
    // branch 3 needs one of {0,1,2} by resources.
    DynFixture f(paperFigure2(0.4));
    SchedState state(f.sb, f.machine);

    BranchDynamics d1 = f.dyn(1);
    d1.fullUpdate(state, nullptr);
    auto each = needEachOf(d1, state);
    ASSERT_EQ(each.size(), 1u);
    EXPECT_EQ(each[0], 4);

    BranchDynamics d0 = f.dyn(0);
    d0.fullUpdate(state, nullptr);
    EXPECT_TRUE(needEachOf(d0, state).empty());
    // With all slots still free there is one spare slot in branch
    // 3's window, so no resource need yet.
    EXPECT_FALSE(d0.hasTightErc(state));

    // After op 4 takes a cycle-0 slot the window {0,1,2} by cycle 1
    // becomes exact: branch 3 now needs one of them per decision.
    state.scheduleNow(4);
    d0.fullUpdate(state, nullptr);
    auto one = needOneOf(d0, state, f.machine.poolOf(OpClass::IntAlu));
    ASSERT_EQ(one.size(), 3u);
    EXPECT_EQ(one[0], 0);
    EXPECT_EQ(one[2], 2);
}

TEST(BranchDynamics, DelayDetectedAfterBadDecisions)
{
    DynFixture f(paperFigure2(0.4));
    SchedState state(f.sb, f.machine);

    // Issue 0 and 1 in cycle 0: op 4 missed its window; branch 6
    // slips to 4 on the next full update.
    state.scheduleNow(0);
    state.scheduleNow(1);
    BranchDynamics d1 = f.dyn(1);
    d1.fullUpdate(state, nullptr);
    // Cycle 0 is full, so op 4 misses its deadline-0 window and the
    // ERC delay pushes the branch: 1 + chain(3) = 4.
    EXPECT_EQ(d1.dynEarly(), 4);
    state.advanceCycle();
    d1.fullUpdate(state, nullptr);
    EXPECT_EQ(d1.dynEarly(), 4);
}

TEST(BranchDynamics, RetiresWithBranch)
{
    SuperblockBuilder b("tiny");
    OpId x = b.addOp(OpClass::IntAlu, 1);
    OpId br = b.addBranch(1.0);
    b.addEdge(x, br);
    DynFixture f(b.build());
    SchedState state(f.sb, f.machine);
    BranchDynamics d = f.dyn(0);
    d.fullUpdate(state, nullptr);
    EXPECT_FALSE(d.retired());
    state.scheduleNow(x);
    EXPECT_TRUE(d.lightUpdateOnOp(state, x, nullptr));
    state.advanceCycle();
    EXPECT_TRUE(d.lightUpdateOnCycleAdvance(
        state, std::vector<int>{1}, nullptr));
    state.scheduleNow(br);
    EXPECT_TRUE(d.lightUpdateOnOp(state, br, nullptr));
    EXPECT_TRUE(d.retired());
}

TEST(BranchDynamics, LightUpdateMatchesFullUpdateNeeds)
{
    // Light updates must preserve the tight-ERC structure whenever
    // they report success; cross-check against a fresh full update.
    DynFixture f(paperFigure1(0.3));
    SchedState state(f.sb, f.machine);

    BranchDynamics light = f.dyn(1);
    light.fullUpdate(state, nullptr);

    // Schedule the two chain heads (helping the final exit).
    state.scheduleNow(4);
    bool ok = light.lightUpdateOnOp(state, 4, nullptr);
    if (!ok)
        light.fullUpdate(state, nullptr);

    BranchDynamics fresh = f.dyn(1);
    fresh.fullUpdate(state, nullptr);
    EXPECT_EQ(light.dynEarly(), fresh.dynEarly());
    EXPECT_EQ(needEachOf(light, state), needEachOf(fresh, state));
    for (int r = 0; r < f.machine.numResources(); ++r)
        EXPECT_EQ(needOneOf(light, state, r), needOneOf(fresh, state, r));
}

TEST(BranchDynamics, WasteTriggersFullUpdateSignal)
{
    // Figure 1 on GP2: the final exit has zero slack in cycles 0..7
    // after one wasted slot... its ERC empties shrink via light
    // updates and eventually demand a recomputation.
    DynFixture f(paperFigure1(0.3));
    SchedState state(f.sb, f.machine);
    BranchDynamics d = f.dyn(1);
    d.fullUpdate(state, nullptr);

    // The 16-pred exit at bound 8 has exactly one empty slot in its
    // widest ERC (17 slots needed in 16+2 available)... waste slots
    // by scheduling nothing and advancing cycles: each advance loses
    // two slots and must eventually invalidate.
    bool invalidated = false;
    for (int i = 0; i < 4 && !invalidated; ++i) {
        auto lost = state.advanceCycle();
        invalidated = !d.lightUpdateOnCycleAdvance(state, lost, nullptr);
    }
    EXPECT_TRUE(invalidated);
}

TEST(BranchDynamics, NeedOneVacuousWhenPoolFull)
{
    // Regression: with every unit of a pool already reserved in the
    // current cycle, a tight ERC imposes no need on this decision --
    // nothing can be taken from or wasted against the window. The
    // selection must not mark the branch incompatible (which used to
    // drop its genuine dependence needs on FS8).
    DynFixture f(paperFigure2(0.4));
    SchedState state(f.sb, f.machine);
    state.scheduleNow(4);
    BranchDynamics d0 = f.dyn(0);
    d0.fullUpdate(state, nullptr);
    ResourceId intPool = f.machine.poolOf(OpClass::IntAlu);
    ASSERT_FALSE(needOneOf(d0, state, intPool).empty());

    // Fill the remaining GP2 slot: the need becomes vacuous.
    state.scheduleNow(0);
    d0.fullUpdate(state, nullptr);
    EXPECT_EQ(state.freeNow(intPool), 0);
    EXPECT_TRUE(needOneOf(d0, state, intPool).empty());
}

TEST(BranchDynamics, HelpsAndWastes)
{
    DynFixture f(paperFigure2(0.4));
    SchedState state(f.sb, f.machine);
    BranchDynamics d0 = f.dyn(0);
    BranchDynamics d1 = f.dyn(1);
    d0.fullUpdate(state, nullptr);
    d1.fullUpdate(state, nullptr);

    // Op 4 helps branch 6 (dependence-critical now).
    EXPECT_TRUE(d1.helps(state, 4));
    // Op 4 is outside branch 3's closure and its window still has a
    // spare slot: no help, no waste yet.
    EXPECT_FALSE(d0.helps(state, 4));
    EXPECT_FALSE(d0.wastes(state, 4));

    // Once op 4 consumes a cycle-0 slot, branch 3's ERC tightens.
    state.scheduleNow(4);
    d0.fullUpdate(state, nullptr);
    EXPECT_TRUE(d0.hasTightErc(state));
    // Ops 0..2 help branch 3 (members of its tight ERC).
    EXPECT_TRUE(d0.helps(state, 0));
    // Op 5 would waste one of branch 3's critical int slots.
    EXPECT_TRUE(d0.wastes(state, 5));
    // Members do not waste.
    EXPECT_FALSE(d0.wastes(state, 1));
}

TEST(BranchDynamics, TightWindowFollowsIssuesAndUpdates)
{
    // p and q must issue by cycle 0 and, with r and s, fill both GP2
    // slots of cycles 0 and 1: two tight windows, deadlines 0 and 1.
    // Issuing p and q in cycle 0 empties the first window, so the
    // second takes over at once, before any update of the branch.
    // The tight window is memoized per decision; a memo that did not
    // notice the issues (or, below, the update) answers with a stale
    // window here.
    SuperblockBuilder b("windows");
    OpId p = b.addOp(OpClass::IntAlu, 1);
    OpId q = b.addOp(OpClass::IntAlu, 1);
    OpId r = b.addOp(OpClass::IntAlu, 1);
    OpId s = b.addOp(OpClass::IntAlu, 1);
    OpId x = b.addBranch(1.0);
    b.addEdge(p, r);
    b.addEdge(q, s);
    b.addEdge(r, x);
    b.addEdge(s, x);
    DynFixture f(b.build());
    ResourceId pool = f.machine.poolOf(OpClass::IntAlu);

    SchedState state(f.sb, f.machine);
    BranchDynamics d = f.dyn(0);
    d.fullUpdate(state, nullptr);
    EXPECT_EQ(d.dynEarly(), 2);
    EXPECT_EQ(needOneOf(d, state, pool), (std::vector<OpId>{p, q}));
    EXPECT_FALSE(d.helps(state, r));

    state.scheduleNow(p);
    EXPECT_EQ(needOneOf(d, state, pool), (std::vector<OpId>{q}));
    EXPECT_FALSE(d.helps(state, r));
    state.scheduleNow(q);
    EXPECT_TRUE(d.helps(state, r));
    EXPECT_TRUE(d.helps(state, s));
    EXPECT_TRUE(d.lightUpdateOnOp(state, p, nullptr));
    EXPECT_TRUE(d.lightUpdateOnOp(state, q, nullptr));
    EXPECT_TRUE(d.helps(state, r));
    EXPECT_TRUE(d.lightUpdateOnCycleAdvance(state, state.advanceCycle(),
                                            nullptr));
    EXPECT_EQ(needOneOf(d, state, pool), (std::vector<OpId>{r, s}));

    // A cycle that goes by with nothing issued: p and q slip, the full
    // update moves both windows a cycle later, and the scheduled count
    // never changed.
    SchedState idle(f.sb, f.machine);
    BranchDynamics e = f.dyn(0);
    e.fullUpdate(idle, nullptr);
    EXPECT_EQ(needOneOf(e, idle, pool), (std::vector<OpId>{p, q}));
    EXPECT_FALSE(e.lightUpdateOnCycleAdvance(idle, idle.advanceCycle(),
                                             nullptr));
    e.fullUpdate(idle, nullptr);
    EXPECT_EQ(e.dynEarly(), 3);
    EXPECT_EQ(needOneOf(e, idle, pool), (std::vector<OpId>{p, q}));
    EXPECT_FALSE(e.helps(idle, r));
}

} // namespace
} // namespace balance
