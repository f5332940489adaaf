/**
 * Regression: on this 37-op, 3-exit superblock (drawn from the full
 * synthetic suite) the triplewise sweep used to stop its first
 * latency dimension at EarlyRC[j] + 1, borrowing the pairwise
 * bound's Theorem 2 termination property. That property does not
 * transfer to triples (the i-coordinate derives from the k-anchored
 * relaxation), and on GP4 the resulting "bound" of 7.631 exceeded a
 * G*-achievable 7.293. The fixed sweep must stay at or below every
 * valid schedule, and here it is exactly tight.
 */

#include <gtest/gtest.h>

#include "bounds/reference.hh"
#include "bounds/superblock_bounds.hh"
#include "eval/experiment.hh"
#include "eval/pipeline.hh"
#include "workload/sb_io.hh"

namespace balance
{
namespace
{

const char *fixtureText = R"SB(
superblock ijpeg.sb105
freq 121.237
op 0 int 1
op 1 mem 1
op 2 mem 1
branch 3 0.338214 1
op 4 mem 2
op 5 int 1
op 6 int 1
op 7 int 1
op 8 int 1
op 9 mem 2
op 10 int 1
op 11 flt 1
op 12 mem 1
op 13 int 1
op 14 int 1
op 15 int 1
op 16 mem 2
op 17 mem 2
op 18 int 1
op 19 mem 2
branch 20 0.00139142 1
op 21 mem 1
op 22 int 1
op 23 int 1
op 24 int 1
op 25 int 1
op 26 int 1
op 27 mem 2
op 28 int 1
op 29 mem 2
op 30 mem 2
op 31 int 1
op 32 int 1
op 33 int 1
op 34 flt 3
op 35 mem 1
branch 36 0.660395 1
edge 0 3 1
edge 0 7 1
edge 0 17 1
edge 0 32 1
edge 1 3 1
edge 2 3 1
edge 2 8 1
edge 2 10 1
edge 2 30 1
edge 3 20 1
edge 4 20 2
edge 4 29 2
edge 4 31 2
edge 5 11 1
edge 5 18 1
edge 5 20 1
edge 5 30 1
edge 5 31 1
edge 5 33 1
edge 6 8 1
edge 6 19 1
edge 6 20 1
edge 6 24 1
edge 7 8 1
edge 7 20 1
edge 7 23 1
edge 7 29 1
edge 8 11 1
edge 8 20 1
edge 9 20 2
edge 10 15 1
edge 10 20 1
edge 10 29 1
edge 11 20 1
edge 12 18 1
edge 12 20 1
edge 12 31 1
edge 12 35 1
edge 13 20 1
edge 13 31 1
edge 13 33 1
edge 14 15 1
edge 14 20 1
edge 14 31 1
edge 15 20 1
edge 16 17 2
edge 16 20 2
edge 16 22 2
edge 17 20 2
edge 17 32 2
edge 18 20 1
edge 18 21 1
edge 19 20 2
edge 19 25 2
edge 19 33 2
edge 20 36 1
edge 21 28 1
edge 21 31 1
edge 21 36 1
edge 22 24 1
edge 22 36 1
edge 23 24 1
edge 23 36 1
edge 24 25 1
edge 24 36 1
edge 25 32 1
edge 25 33 1
edge 25 36 1
edge 26 36 1
edge 27 36 2
edge 28 35 1
edge 28 36 1
edge 29 36 2
edge 30 33 2
edge 30 36 2
edge 31 32 1
edge 31 34 1
edge 31 35 1
edge 31 36 1
edge 32 35 1
edge 32 36 1
edge 33 36 1
edge 34 35 3
edge 34 36 3
edge 35 36 1
end
)SB";

/**
 * A 25-op, 5-exit superblock from the generator where floor pruning
 * must still reach the boundary column. On GP1 one triple's interior
 * columns all die on their floors while its boundary point, whose
 * (x, y) are pinned to the EarlyRC floors, wins. Only each column's
 * first point tells whether the sweep goes on to that column, so it
 * must run even when its floor is dead: skipping it ends the sweep
 * early with a TW bound of 20.8542 instead of 20.8475.
 */
const char *boundaryWinsText = R"SB(
superblock gen.s1987
freq 14.664405963982817
op 0 mem 2
op 1 mem 1
op 2 mem 1
op 3 int 1
branch 4 0.054714171926887128 1
op 5 int 1
op 6 int 1
op 7 mem 2
op 8 mem 2
op 9 int 1
branch 10 0.23049184503064607 1
op 11 int 1
op 12 int 1
op 13 int 1
op 14 int 1
branch 15 0.012436520271989861 1
op 16 mem 2
op 17 int 1
op 18 int 1
branch 19 0.015506141907775779 1
op 20 mem 2
op 21 int 1
op 22 mem 1
op 23 int 1
branch 24 0.68685132086270118 1
edge 0 1 2
edge 0 2 2
edge 0 4 2
edge 0 5 2
edge 0 6 2
edge 0 16 2
edge 1 2 1
edge 1 4 1
edge 1 5 1
edge 2 3 1
edge 2 4 1
edge 2 5 1
edge 2 7 1
edge 2 9 1
edge 2 16 1
edge 3 4 1
edge 3 5 1
edge 3 8 1
edge 3 11 1
edge 4 10 1
edge 5 6 1
edge 5 10 1
edge 6 7 1
edge 6 8 1
edge 6 10 1
edge 6 11 1
edge 7 8 2
edge 7 10 2
edge 8 10 2
edge 8 12 2
edge 9 10 1
edge 9 16 1
edge 10 15 1
edge 11 13 1
edge 11 15 1
edge 12 15 1
edge 12 16 1
edge 13 15 1
edge 13 16 1
edge 14 15 1
edge 14 17 1
edge 14 18 1
edge 15 19 1
edge 16 19 2
edge 17 19 1
edge 18 19 1
edge 19 24 1
edge 20 24 2
edge 21 24 1
edge 22 24 1
edge 23 24 1
end
)SB";

TEST(TriplewiseRegression, PrunedSweepStillReachesTheBoundaryColumn)
{
    Superblock sb = parseSuperblock(boundaryWinsText);
    GraphContext ctx(sb);
    MachineModel m = MachineModel::gp1();
    BoundCounterSet engineCounters, refCounters;
    WctBounds engine = computeWctBounds(ctx, m, {}, &engineCounters);
    WctBounds ref = reference::computeWctBounds(ctx, m, {}, &refCounters);
    EXPECT_EQ(engine.tw, ref.tw);
    EXPECT_NEAR(engine.tw, 20.8475, 0.0001);
    EXPECT_LT(engineCounters.tw.trips, refCounters.tw.trips);
}

TEST(TriplewiseRegression, BoundStaysBelowSchedules)
{
    Superblock sb = parseSuperblock(fixtureText);
    HeuristicSet set = HeuristicSet::paperSet();
    for (const MachineModel &m : MachineModel::paperConfigs()) {
        // evaluateSuperblock panics if any schedule beats a bound.
        SuperblockEval eval = evaluateSuperblock(sb, m, set);
        EXPECT_GT(eval.tightest, 0.0) << m.name();
    }
}

TEST(TriplewiseRegression, ExactOnGp4)
{
    Superblock sb = parseSuperblock(fixtureText);
    GraphContext ctx(sb);
    WctBounds b = computeWctBounds(ctx, MachineModel::gp4());
    // The repaired sweep reaches the true optimum here.
    EXPECT_NEAR(b.tw, 7.2929, 0.001);
    EXPECT_GE(b.tw, b.pw - 1e-9);
}

} // namespace
} // namespace balance
