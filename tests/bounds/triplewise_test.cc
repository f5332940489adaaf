#include "bounds/triplewise.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "bounds/bound_scratch.hh"
#include "bounds/branch_bounds.hh"
#include "bounds/pair_sweep.hh"
#include "bounds/reference.hh"
#include "graph/builder.hh"
#include "support/parallel_for.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

namespace balance
{
namespace
{

struct TripleFixture
{
    Superblock sb;
    GraphContext ctx;
    MachineModel machine;
    std::vector<int> earlyRC;
    std::vector<std::vector<int>> lateRCs;
    std::unique_ptr<PairwiseBounds> pw;

    explicit TripleFixture(Superblock s,
                           MachineModel m = MachineModel::gp2())
        : sb(std::move(s)), ctx(sb), machine(std::move(m)),
          earlyRC(lcEarlyRCForSuperblock(ctx, machine))
    {
        for (int bi = 0; bi < sb.numBranches(); ++bi)
            lateRCs.push_back(lateRCFor(ctx, machine, bi, earlyRC));
        pw = std::make_unique<PairwiseBounds>(ctx, machine, earlyRC,
                                              lateRCs);
    }
};

/** Three-exit superblock with genuine contention on GP1. */
Superblock
threeExits()
{
    SuperblockBuilder b("three");
    OpId a = b.addOp(OpClass::IntAlu, 1);
    OpId br0 = b.addBranch(0.2);
    b.addEdge(a, br0);
    OpId c = b.addOp(OpClass::IntAlu, 1);
    OpId br1 = b.addBranch(0.3);
    b.addEdge(c, br1);
    OpId d = b.addOp(OpClass::IntAlu, 1);
    OpId br2 = b.addBranch(0.5);
    b.addEdge(d, br2);
    return b.build();
}

/**
 * The first superblock of the sampled suite with at least nine
 * branches: wide enough that many triples reach a sweep the floor
 * can cut short.
 */
Superblock
nineBranchSuiteSuperblock()
{
    for (const BenchmarkProgram &prog : buildSuite({SuiteOptions{}.seed,
                                                    0.01}))
        for (const Superblock &sb : prog.superblocks)
            if (sb.numBranches() >= 9 &&
                sb.numBranches() <= TriplewiseOptions{}.maxBranches)
                return sb;
    ADD_FAILURE() << "no superblock with 9-12 branches in the suite";
    return threeExits();
}

TEST(Triplewise, FloorPruningSkipsRelaxationsNotTheBound)
{
    TripleFixture f(nineBranchSuiteSuperblock(), MachineModel::fs8());
    BoundCounters engineTrips, refTrips;
    TriplewiseResult engine =
        computeTriplewise(f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw,
                          {}, &engineTrips);
    TriplewiseResult ref = reference::computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, f.pw->superblockWct(),
        {}, &refTrips);
    EXPECT_FALSE(engine.fellBack);
    EXPECT_EQ(engine.wct, ref.wct);
    EXPECT_EQ(engine.triplesEvaluated, ref.triplesEvaluated);
    EXPECT_LT(engineTrips.trips, refTrips.trips);
}

TEST(Triplewise, BudgetOneShortOfTheGridEvaluatesEveryPoint)
{
    // One evaluation short of C(B, 3) full grids, the budget could
    // bind in principle, so the sweep evaluates every point; in fact
    // no triple comes near a full grid, so nothing is cut and the
    // bound must equal the pruned default run's.
    TripleFixture f(nineBranchSuiteSuperblock(), MachineModel::fs8());
    long long b = f.sb.numBranches();
    long long triples = b * (b - 1) * (b - 2) / 6;
    TriplewiseOptions opts;
    long long span = opts.maxLatRange + 1;
    opts.maxEvals = triples * span * span - 1;

    BoundCounters prunedTrips, fullTrips, refTrips;
    TriplewiseResult pruned =
        computeTriplewise(f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw,
                          {}, &prunedTrips);
    TriplewiseResult full =
        computeTriplewise(f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw,
                          opts, &fullTrips);
    TriplewiseResult ref = reference::computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, f.pw->superblockWct(),
        opts, &refTrips);

    EXPECT_EQ(full.triplesEvaluated, triples);
    EXPECT_EQ(fullTrips.trips, refTrips.trips);
    EXPECT_EQ(full.wct, ref.wct);
    EXPECT_EQ(full.wct, pruned.wct);
    EXPECT_EQ(full.triplesEvaluated, pruned.triplesEvaluated);
    EXPECT_LT(prunedTrips.trips, fullTrips.trips);
}

TEST(Triplewise, ClosedFormCriticalPathIsTheComposedOne)
{
    // The sweep's z floor rests on criticalPath(a, b) being exactly
    // the cp eval(a, b) composes. Check it at every grid point the
    // sweep can visit, for every triple, on every machine.
    Superblock sb = nineBranchSuiteSuperblock();
    TriplewiseOptions opts;
    long long points = 0;
    for (const MachineModel &m : MachineModel::paperConfigs()) {
        TripleFixture f(sb, m);
        BoundScratch scratch(f.machine);
        detail::SkeletonTable skeletons(f.ctx, f.earlyRC, f.lateRCs);
        TripleSweepCache cache(f.ctx, f.machine, f.earlyRC, scratch);
        long long hits = 0, misses = 0;
        int numBr = f.sb.numBranches();
        for (int bi = 0; bi < numBr; ++bi) {
            for (int bj = bi + 1; bj < numBr; ++bj) {
                for (int bk = bj + 1; bk < numBr; ++bk) {
                    cache.bindSink(skeletons.get(bk, hits, misses));
                    cache.bindTriple(bi, bj);
                    int aMin = f.sb.op(f.sb.branches()[bi]).latency;
                    int bMin = f.sb.op(f.sb.branches()[bj]).latency;
                    int aCap = std::min(cache.ek() + 1,
                                        aMin + opts.maxLatRange);
                    int bCap = std::min(cache.ek() + 1,
                                        bMin + opts.maxLatRange);
                    for (int a = aMin; a <= aCap; ++a) {
                        for (int b = bMin; b <= bCap; ++b) {
                            cache.eval(a, b, nullptr);
                            ASSERT_EQ(cache.criticalPath(a, b),
                                      cache.lastCriticalPath())
                                << m.name() << " triple (" << bi << ", "
                                << bj << ", " << bk << ") at (" << a
                                << ", " << b << ")";
                            ++points;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(points, 0);
}

/** One TW run's observable outcome: the result and its trips. */
struct TwRun
{
    TriplewiseResult result;
    long long trips = 0;
};

/** Run TW on a fixture of its own, so callers can run concurrently. */
TwRun
runTriplewise(const Superblock &sb, const MachineModel &m)
{
    TripleFixture f(sb, m);
    BoundCounters counters;
    TwRun run;
    run.result = computeTriplewise(f.ctx, f.machine, f.earlyRC,
                                   f.lateRCs, *f.pw, {}, &counters);
    run.trips = counters.trips;
    return run;
}

void
expectSameRun(const TwRun &got, const TwRun &want, const char *where)
{
    EXPECT_EQ(got.result.wct, want.result.wct) << where;
    EXPECT_EQ(got.result.triplesEvaluated, want.result.triplesEvaluated)
        << where;
    EXPECT_EQ(got.result.fellBack, want.result.fellBack) << where;
    EXPECT_EQ(got.trips, want.trips) << where;
}

TEST(Triplewise, FanOutIsDeterministicAcrossCallersAndNesting)
{
    // A 12-branch superblock: 220 triples, fanned out over the pool.
    // Whichever lane draws which triple, the value, the counts and
    // the trips must come out the same: on a repeat, with four
    // callers at once, and from inside a pool task.
    Superblock sb = nineBranchSuiteSuperblock();
    ASSERT_EQ(sb.numBranches(), 12);
    const MachineModel m = MachineModel::gp1();

    TwRun want = runTriplewise(sb, m);
    EXPECT_FALSE(want.result.fellBack);
    EXPECT_EQ(want.result.triplesEvaluated, 220);

    expectSameRun(runTriplewise(sb, m), want, "repeat");

    std::vector<TwRun> concurrent(4);
    std::vector<std::thread> callers;
    for (TwRun &slot : concurrent)
        callers.emplace_back([&] { slot = runTriplewise(sb, m); });
    for (std::thread &t : callers)
        t.join();
    for (const TwRun &run : concurrent)
        expectSameRun(run, want, "four callers at once");

    std::vector<TwRun> nested(4);
    parallelFor(
        nested.size(),
        [&](std::size_t i) { nested[i] = runTriplewise(sb, m); }, 4);
    for (const TwRun &run : nested)
        expectSameRun(run, want, "inside parallelFor");
}

TEST(Triplewise, FallsBackBelowThreeBranches)
{
    SuperblockBuilder b("two");
    OpId a = b.addOp(OpClass::IntAlu, 1);
    OpId br0 = b.addBranch(0.4);
    b.addEdge(a, br0);
    OpId br1 = b.addBranch(0.6);
    (void)br1;
    TripleFixture f(b.build());
    TriplewiseResult tw = computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw);
    EXPECT_TRUE(tw.fellBack);
    EXPECT_DOUBLE_EQ(tw.wct, f.pw->superblockWct());
}

TEST(Triplewise, FallsBackAboveBranchCap)
{
    TripleFixture f(threeExits());
    TriplewiseOptions opts;
    opts.maxBranches = 2;
    TriplewiseResult tw = computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw, opts);
    EXPECT_TRUE(tw.fellBack);
}

TEST(Triplewise, EvaluatesTriples)
{
    TripleFixture f(threeExits(), MachineModel::gp1());
    TriplewiseResult tw = computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw);
    EXPECT_FALSE(tw.fellBack);
    EXPECT_EQ(tw.triplesEvaluated, 1);
    EXPECT_GT(tw.wct, 0.0);
}

TEST(Triplewise, ExactOnSerializedThreeExits)
{
    // On GP1 the six operations serialize: issue cycles are exactly
    // 1, 3, 5 for the three exits in any non-idle schedule, so the
    // weighted completion is 0.2*2 + 0.3*4 + 0.5*6 = 4.6 and the TW
    // bound should reach it.
    TripleFixture f(threeExits(), MachineModel::gp1());
    TriplewiseResult tw = computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw);
    EXPECT_NEAR(tw.wct, 4.6, 1e-9);
}

TEST(Triplewise, AtLeastPairwiseOnSmallPopulation)
{
    // TW is not guaranteed above PW in general (the paper reports
    // 0.95% of superblocks where it is worse), but it must stay a
    // valid bound and normally dominates; check validity here via
    // the integration oracle test and monotonicity on average.
    Rng rng(2024);
    GeneratorParams params;
    params.blockGeoP = 0.5;
    double pwSum = 0.0;
    double twSum = 0.0;
    int used = 0;
    for (int trial = 0; trial < 25; ++trial) {
        Rng child = rng.fork();
        Superblock sb = generateSuperblock(child, params,
                                           "t" + std::to_string(trial));
        if (sb.numBranches() < 3 || sb.numBranches() > 8)
            continue;
        TripleFixture f(std::move(sb));
        TriplewiseResult tw = computeTriplewise(
            f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw);
        pwSum += f.pw->superblockWct();
        twSum += tw.wct;
        ++used;
    }
    ASSERT_GE(used, 3);
    EXPECT_GE(twSum, pwSum - 1e-6);
}

TEST(Triplewise, BudgetExhaustionStaysValid)
{
    TripleFixture f(threeExits(), MachineModel::gp1());
    TriplewiseOptions opts;
    opts.maxEvals = 1; // starves the enumeration after one eval
    TriplewiseResult tw = computeTriplewise(
        f.ctx, f.machine, f.earlyRC, f.lateRCs, *f.pw, opts);
    // Either it fell back or produced a (weaker but valid) bound.
    EXPECT_LE(tw.wct, 4.6 + 1e-9);
    EXPECT_GT(tw.wct, 0.0);
}

} // namespace
} // namespace balance
