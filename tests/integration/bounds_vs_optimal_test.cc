/**
 * The library's strongest property test: on a population of random
 * small superblocks, for every machine configuration,
 *
 *   every lower bound <= exact optimum <= every heuristic schedule,
 *
 * with all schedules structurally validated. A violation on either
 * side means a real bug (an unsound bound or an illegal schedule),
 * so this test is the one to trust when touching Section 4 or 5
 * code.
 */

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "eval/experiment.hh"
#include "sched/optimal.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

struct Config
{
    std::uint64_t seed;
    const char *machine;
};

// gtest's default printer dumps the raw bytes, the ASLR-dependent
// `machine` pointer included, into the ctest name; print the values.
void
PrintTo(const Config &cfg, std::ostream *os)
{
    *os << '{' << cfg.machine << ',' << cfg.seed << '}';
}

class BoundsVsOptimal : public ::testing::TestWithParam<Config>
{
};

TEST_P(BoundsVsOptimal, Sandwich)
{
    Config cfg = GetParam();
    MachineModel machine = MachineModel::byName(cfg.machine);

    Rng rng(cfg.seed);
    GeneratorParams params;
    // Small superblocks keep the exact search tractable.
    params.blockGeoP = 0.6;
    params.opsPerBlockMu = 0.9;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 13;
    params.maxBlocks = 4;

    HeuristicSet set = HeuristicSet::paperSet(/*withBest=*/false);

    int proven = 0;
    for (int trial = 0; trial < 25; ++trial) {
        Rng child = rng.fork();
        Superblock sb = generateSuperblock(
            child, params, "s" + std::to_string(trial));
        GraphContext ctx(sb);

        WctBounds bounds = computeWctBounds(ctx, machine);
        double tightest = bounds.tightest();

        OptimalOptions opts;
        opts.maxNodes = 500000;
        OptimalResult opt = optimalSchedule(ctx, machine, opts);
        if (!opt.proven)
            continue;
        ++proven;
        opt.schedule.validate(sb, machine);

        // Lower bounds never exceed the optimum.
        for (double b : {bounds.cp, bounds.hu, bounds.rj, bounds.lc,
                         bounds.pw, bounds.tw}) {
            EXPECT_LE(b, opt.wct + 1e-6)
                << sb.name() << " on " << machine.name();
        }
        EXPECT_LE(tightest, opt.wct + 1e-6);

        // Heuristics never beat the optimum.
        for (const auto &sched : set.primaries) {
            Schedule s = sched->run(ctx, machine);
            s.validate(sb, machine);
            EXPECT_GE(s.wct(sb), opt.wct - 1e-6)
                << sched->name() << " on " << sb.name() << "/"
                << machine.name();
        }
    }
    // The population must be meaningful.
    EXPECT_GE(proven, 15);
}

INSTANTIATE_TEST_SUITE_P(
    Population, BoundsVsOptimal,
    ::testing::Values(Config{11, "GP1"}, Config{12, "GP2"},
                      Config{13, "GP4"}, Config{14, "FS4"},
                      Config{15, "FS6"}, Config{16, "FS8"},
                      Config{17, "GP2"}, Config{18, "FS4"}),
    [](const ::testing::TestParamInfo<Config> &info) {
        return std::string(info.param.machine) + "_" +
               std::to_string(info.param.seed);
    });

} // namespace
} // namespace balance
