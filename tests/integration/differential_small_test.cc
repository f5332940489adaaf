/**
 * Differential harness on small superblocks: for seeded random
 * instances of <= 12 operations the exact branch-and-bound oracle is
 * cheap, so the whole invariant chain can be checked end to end:
 *
 *   LB(RJ) <= LB(Pairwise) <= LB(Triplewise)
 *          <= optimal WCT  <= every heuristic WCT
 *
 * (Balance in particular), with Triplewise also checked under
 * evaluation budgets small enough to cut its sweep short, and with
 * Schedule::validate() run on every heuristic schedule so a
 * structurally illegal schedule can never report a good WCT. Each
 * instance draws its RNG stream from Rng::stream(seed, instance) —
 * the same per-instance derivation the parallel experiment runner
 * uses — so the population is identical no matter how many workers
 * evaluate it or in which order.
 */

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "core/balance_scheduler.hh"
#include "eval/experiment.hh"
#include "sched/bnb/bnb.hh"
#include "sched/optimal.hh"
#include "support/parallel_for.hh"
#include "support/rng.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

constexpr std::uint64_t kSeed = 0xd1ffe2e47a151ULL;
constexpr int kInstances = 60;

/** Small-instance shape: a few short blocks, <= 12 ops total. */
GeneratorParams
smallParams()
{
    GeneratorParams params;
    params.blockGeoP = 0.55;
    params.opsPerBlockMu = 0.9;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 12;
    params.maxBlocks = 4;
    return params;
}

Superblock
instanceAt(std::size_t i)
{
    Rng rng = Rng::stream(kSeed, i);
    return generateSuperblock(rng, smallParams(),
                              "diff.sb" + std::to_string(i));
}

class DifferentialSmall : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DifferentialSmall, BoundChainOracleAndHeuristicsAgree)
{
    MachineModel machine = MachineModel::byName(GetParam());
    HeuristicSet set = HeuristicSet::paperSet(/*withBest=*/false);

    struct Outcome
    {
        int numOps = 0;
        bool proven = false;
        double rj = 0.0, pw = 0.0, tw = 0.0;
        std::vector<double> cutTw; //!< TW at tiny maxEvals budgets
        double optimal = 0.0;
        double balance = 0.0;
        std::vector<double> heuristicWct;
        bool bnbProven = false;
        bool bnbExhausted = false;
        double bnbWct = 0.0;
        double bnbLower = 0.0;
    };
    std::vector<Outcome> slots(kInstances);

    // The harness itself uses the deterministic parallel pattern:
    // per-instance slots, order-independent generation, serial
    // assertions afterwards (gtest expectations are not thread-safe).
    parallelFor(slots.size(), [&](std::size_t i) {
        Superblock sb = instanceAt(i);
        slots[i].numOps = sb.numOps();
        GraphContext ctx(sb);

        WctBounds bounds = computeWctBounds(ctx, machine);
        Outcome &out = slots[i];
        out.rj = bounds.rj;
        out.pw = bounds.pw;
        out.tw = bounds.tw;
        for (long long maxEvals : {2LL, 5LL}) {
            BoundConfig cut;
            cut.triplewise.maxEvals = maxEvals;
            out.cutTw.push_back(computeWctBounds(ctx, machine, cut).tw);
        }

        OptimalOptions oo;
        oo.maxNodes = 500000;
        OptimalResult opt = optimalSchedule(ctx, machine, oo);
        out.proven = opt.proven;
        if (opt.proven) {
            opt.schedule.validate(sb, machine);
            out.optimal = opt.wct;
        }

        // The branch-and-bound engine explores the same schedule
        // space; both oracles must certify the same optimum. The
        // toolkit lends EarlyRC floors, the tightest static bound
        // floors the certificate — exactly how eval drives it.
        BoundsToolkit toolkit(ctx, machine);
        BnbOptions bo;
        bo.maxNodes = 500000;
        bo.threads = 1; // the harness already runs instances in parallel
        BnbRequest breq;
        breq.toolkit = &toolkit;
        breq.staticLowerBound = bounds.tightest();
        BnbResult bnb = bnbSchedule(ctx, machine, bo, breq);
        bnb.schedule.validate(sb, machine);
        out.bnbProven = bnb.proven;
        out.bnbExhausted = bnb.exhausted;
        out.bnbWct = bnb.wct;
        out.bnbLower = bnb.lowerBound;

        for (const auto &sched : set.primaries) {
            Schedule s = sched->run(ctx, machine);
            // Every heuristic schedule must be structurally legal:
            // complete, dependence-latency clean, within resources.
            s.validate(sb, machine);
            double w = s.wct(sb);
            out.heuristicWct.push_back(w);
            if (sched->name() == "Balance")
                out.balance = w;
        }
    });

    int proven = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Outcome &out = slots[i];
        ASSERT_LE(out.numOps, 12) << "instance " << i;
        // Lower bounds tighten monotonically along the chain.
        EXPECT_LE(out.rj, out.pw + 1e-9) << "instance " << i;
        EXPECT_LE(out.pw, out.tw + 1e-9) << "instance " << i;
        if (!out.proven)
            continue;
        ++proven;
        // Every bound stays below the true optimum...
        EXPECT_LE(out.tw, out.optimal + 1e-9) << "instance " << i;
        for (double tw : out.cutTw)
            EXPECT_LE(tw, out.optimal + 1e-9)
                << "instance " << i << " (TW under a cut budget)";
        // ...and no heuristic (Balance included) beats it.
        EXPECT_GE(out.balance, out.optimal - 1e-9) << "instance " << i;
        for (std::size_t h = 0; h < out.heuristicWct.size(); ++h)
            EXPECT_GE(out.heuristicWct[h], out.optimal - 1e-9)
                << "instance " << i << " heuristic " << h;
        // Cross-engine oracle: B&B certifies the same optimum the
        // exhaustive search does, its certificate closes (lower
        // bound meets the incumbent), and the full ladder
        // RJ <= PW <= TW <= B&B <= every heuristic holds.
        EXPECT_TRUE(out.bnbProven) << "instance " << i;
        EXPECT_TRUE(out.bnbExhausted) << "instance " << i;
        EXPECT_NEAR(out.bnbWct, out.optimal, 1e-9) << "instance " << i;
        EXPECT_NEAR(out.bnbLower, out.bnbWct, 1e-9) << "instance " << i;
        EXPECT_LE(out.tw, out.bnbLower + 1e-9) << "instance " << i;
        for (std::size_t h = 0; h < out.heuristicWct.size(); ++h)
            EXPECT_LE(out.bnbWct, out.heuristicWct[h] + 1e-9)
                << "instance " << i << " heuristic " << h;
    }
    // <= 12 ops: the oracle budget must suffice essentially always.
    EXPECT_GE(proven, kInstances * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(Machines, DifferentialSmall,
                         ::testing::Values("GP1", "GP2", "FS4", "FS8"));

TEST(DifferentialSmall, PopulationIsSeedStable)
{
    // The per-instance stream derivation pins the population bytes:
    // regenerating any instance reproduces it exactly.
    for (std::size_t i : {std::size_t(0), std::size_t(17),
                          std::size_t(59)}) {
        Superblock a = instanceAt(i);
        Superblock b = instanceAt(i);
        ASSERT_EQ(a.numOps(), b.numOps());
        for (OpId v = 0; v < a.numOps(); ++v) {
            EXPECT_EQ(a.op(v).cls, b.op(v).cls);
            EXPECT_EQ(a.op(v).latency, b.op(v).latency);
        }
    }
}

} // namespace
} // namespace balance
