#include "core/sched_state.hh"

#include <string>

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "support/rng.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

Superblock
chainSb()
{
    SuperblockBuilder b("chain");
    OpId x = b.addOp(OpClass::IntAlu, 1);
    OpId y = b.addOp(OpClass::Memory, 2);
    OpId f = b.addBranch(1.0);
    b.addEdge(x, y);
    b.addEdge(y, f);
    return b.build();
}

TEST(SchedState, InitialReadiness)
{
    Superblock sb = chainSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    EXPECT_EQ(state.cycle(), 0);
    EXPECT_TRUE(state.canIssueNow(0));
    EXPECT_FALSE(state.canIssueNow(1)); // depends on op 0
    EXPECT_FALSE(state.canIssueNow(2));
    auto ready = state.depReadyOps();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 0);
}

TEST(SchedState, ScheduleAdvancesReadiness)
{
    Superblock sb = chainSb();
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    state.scheduleNow(0);
    EXPECT_TRUE(state.isScheduled(0));
    EXPECT_EQ(state.issueOf(0), 0);
    EXPECT_FALSE(state.isDepReady(1)); // latency 1 -> next cycle
    state.advanceCycle();
    EXPECT_TRUE(state.canIssueNow(1));
    state.scheduleNow(1);
    // Load latency 2: branch ready at cycle 3.
    state.advanceCycle();
    EXPECT_FALSE(state.isDepReady(2));
    state.advanceCycle();
    EXPECT_TRUE(state.canIssueNow(2));
    state.scheduleNow(2);
    EXPECT_TRUE(state.done());
    Schedule s = state.toSchedule();
    s.validate(sb, MachineModel::gp2());
}

TEST(SchedState, ResourceLimitsGateIssue)
{
    SuperblockBuilder b("wide");
    b.addOp(OpClass::IntAlu, 1);
    b.addOp(OpClass::IntAlu, 1);
    b.addBranch(1.0);
    Superblock sb = b.build(true);
    MachineModel machine = MachineModel::gp1();
    SchedState state(sb, machine);
    EXPECT_TRUE(state.canIssueNow(0));
    state.scheduleNow(0);
    EXPECT_TRUE(state.isDepReady(1));
    EXPECT_FALSE(state.canIssueNow(1)); // GP1 slot used
    EXPECT_FALSE(state.anyIssuableNow());
}

TEST(SchedState, AdvanceReportsLostSlots)
{
    SuperblockBuilder b("slots");
    b.addOp(OpClass::IntAlu, 1);
    b.addBranch(1.0);
    Superblock sb = b.build(true);
    MachineModel machine = MachineModel::fs6();
    SchedState state(sb, machine);
    state.scheduleNow(0); // one int slot of two used
    auto lost = state.advanceCycle();
    ASSERT_EQ(lost.size(), 4u);
    EXPECT_EQ(lost[0], 1); // int pool lost one
    EXPECT_EQ(lost[1], 2); // memory pool fully unused
    EXPECT_EQ(lost[3], 1); // branch pool unused
}

TEST(SchedState, FreeNowTracksCurrentCycle)
{
    SuperblockBuilder b("free");
    b.addOp(OpClass::IntAlu, 1);
    b.addOp(OpClass::IntAlu, 1);
    b.addBranch(1.0);
    Superblock sb = b.build(true);
    MachineModel machine = MachineModel::gp2();
    SchedState state(sb, machine);
    EXPECT_EQ(state.freeNow(0), 2);
    state.scheduleNow(0);
    EXPECT_EQ(state.freeNow(0), 1);
    state.scheduleNow(1);
    EXPECT_EQ(state.freeNow(0), 0);
    state.advanceCycle();
    EXPECT_EQ(state.freeNow(0), 2);
}

TEST(SchedState, ReadyListMatchesFullScan)
{
    // A random walk through each superblock's schedule space: at every
    // step the kept list's answers must equal a scan over all ops.
    GeneratorParams params;
    params.blockGeoP = 0.22; // more, larger blocks: wider ready sets
    params.opsPerBlockMu = 1.7;
    for (const MachineModel &machine :
         {MachineModel::gp2(), MachineModel::fs4()}) {
        for (std::uint64_t i = 0; i < 40; ++i) {
            Rng gen = Rng::stream(0x5c4edULL, i);
            Superblock sb =
                generateSuperblock(gen, params, "walk" + std::to_string(i));
            SCOPED_TRACE(sb.name() + " on " + machine.name());
            SchedState state(sb, machine);
            Rng walk = Rng::stream(0x3a1cULL, i);
            std::vector<OpId> issuable;
            while (!state.done()) {
                std::vector<OpId> wantIssuable;
                std::vector<OpId> wantReady;
                for (OpId v = 0; v < sb.numOps(); ++v) {
                    if (state.canIssueNow(v))
                        wantIssuable.push_back(v);
                    if (state.isDepReady(v))
                        wantReady.push_back(v);
                }
                state.issuableNow(issuable);
                ASSERT_EQ(issuable, wantIssuable);
                ASSERT_EQ(state.anyIssuableNow(), !wantIssuable.empty());
                ASSERT_EQ(state.depReadyOps(), wantReady);
                // Place a random issuable op, or now and then leave the
                // rest of the cycle idle.
                if (issuable.empty() || walk.bernoulli(0.2)) {
                    state.advanceCycle();
                    continue;
                }
                state.scheduleNow(issuable[std::size_t(walk.uniformInt(
                    0, std::int64_t(issuable.size()) - 1))]);
            }
            state.toSchedule().validate(sb, machine);
        }
    }
}

} // namespace
} // namespace balance
