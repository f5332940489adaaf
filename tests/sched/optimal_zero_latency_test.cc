/**
 * Zero-latency (anti dependence) edges: the exact oracle and every
 * forward scheduler serialize them to the next cycle, so they all
 * explore one schedule space; the bounds may still exploit
 * same-cycle placement (they are relaxations, so that is sound).
 */

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "core/balance_scheduler.hh"
#include "eval/pipeline.hh"
#include "graph/builder.hh"
#include "sched/optimal.hh"

namespace balance
{
namespace
{

/** reader -> redefinition with a latency-0 anti edge. */
Superblock
antiDepSb()
{
    SuperblockBuilder b("anti");
    OpId def = b.addOp(OpClass::IntAlu, 1, "def");
    OpId reader = b.addOp(OpClass::IntAlu, 1, "reader");
    OpId redef = b.addOp(OpClass::IntAlu, 1, "redef");
    OpId exit = b.addBranch(1.0);
    b.addEdge(def, reader);
    b.addEdge(reader, redef, 0); // anti dependence
    b.addEdge(reader, exit);
    b.addEdge(redef, exit);
    return b.build();
}

TEST(OptimalZeroLatency, OracleSerializes)
{
    Superblock sb = antiDepSb();
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp4();
    OptimalResult r = optimalSchedule(ctx, m);
    ASSERT_TRUE(r.proven);
    r.schedule.validate(sb, m);
    // def@0, reader@1, redef no earlier than the next cycle after
    // the reader under the shared serialization policy.
    EXPECT_GT(r.schedule.issueOf(2), r.schedule.issueOf(1));
}

TEST(OptimalZeroLatency, BalanceAgreesWithOracleSpace)
{
    Superblock sb = antiDepSb();
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp4();
    Schedule s = BalanceScheduler().run(ctx, m);
    s.validate(sb, m);
    EXPECT_GT(s.issueOf(2), s.issueOf(1));
    OptimalResult r = optimalSchedule(ctx, m);
    ASSERT_TRUE(r.proven);
    EXPECT_GE(s.wct(sb), r.wct - 1e-9);
}

TEST(OptimalZeroLatency, ValidatorAllowsSameCycle)
{
    // The machine semantics (reads before writes) allow same-cycle
    // anti-dependent pairs; only the schedulers are conservative.
    Superblock sb = antiDepSb();
    MachineModel m = MachineModel::gp4();
    Schedule s(sb.numOps());
    s.setIssue(0, 0);
    s.setIssue(1, 1);
    s.setIssue(2, 1); // same cycle as the reader: legal
    s.setIssue(3, 2);
    EXPECT_NO_FATAL_FAILURE(s.validate(sb, m));
}

TEST(OptimalZeroLatency, BoundsRemainSound)
{
    Superblock sb = antiDepSb();
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp4();
    WctBounds b = computeWctBounds(ctx, m);
    OptimalResult r = optimalSchedule(ctx, m);
    ASSERT_TRUE(r.proven);
    EXPECT_LE(b.tightest(), r.wct + 1e-9);
}

} // namespace
} // namespace balance
