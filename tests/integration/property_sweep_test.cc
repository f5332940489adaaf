/**
 * Parameterized property sweeps over (machine config x generator
 * seed): structural validity of every heuristic's schedule, bound
 * ordering, and the heuristic-vs-bound sandwich on arbitrary-size
 * populations (no oracle needed, so superblocks can be large).
 */

#include <gtest/gtest.h>

#include "eval/experiment.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

struct SweepConfig
{
    const char *machine;
    std::uint64_t seed;
    double blockGeoP;
    double opsMu;
};

// gtest's default printer dumps the struct's raw bytes, `machine`
// pointer included, and gtest_discover_tests copies that text into
// the ctest name; the pointer moves with ASLR, so every build would
// name these tests differently. Print the values instead.
void
PrintTo(const SweepConfig &cfg, std::ostream *os)
{
    *os << '{' << cfg.machine << ',' << cfg.seed << ',' << cfg.blockGeoP
        << ',' << cfg.opsMu << '}';
}

class PropertySweep : public ::testing::TestWithParam<SweepConfig>
{
  protected:
    std::vector<Superblock>
    population(int count) const
    {
        SweepConfig cfg = GetParam();
        GeneratorParams params;
        params.blockGeoP = cfg.blockGeoP;
        params.opsPerBlockMu = cfg.opsMu;
        Rng rng(cfg.seed);
        std::vector<Superblock> out;
        for (int i = 0; i < count; ++i) {
            Rng child = rng.fork();
            out.push_back(generateSuperblock(
                child, params, "sweep" + std::to_string(i)));
        }
        return out;
    }
};

TEST_P(PropertySweep, SchedulesValidAndAboveBounds)
{
    MachineModel machine = MachineModel::byName(GetParam().machine);
    HeuristicSet set = HeuristicSet::paperSet(/*withBest=*/false);
    for (const Superblock &sb : population(10)) {
        // evaluateSuperblock validates every schedule and asserts
        // the bound sandwich internally.
        SuperblockEval eval = evaluateSuperblock(sb, machine, set);
        for (double w : eval.wct)
            EXPECT_GE(w, eval.tightest - 1e-9) << sb.name();
    }
}

TEST_P(PropertySweep, BoundOrdering)
{
    MachineModel machine = MachineModel::byName(GetParam().machine);
    for (const Superblock &sb : population(10)) {
        GraphContext ctx(sb);
        WctBounds b = computeWctBounds(ctx, machine);
        EXPECT_GE(b.hu, b.cp - 1e-9) << sb.name();
        EXPECT_GE(b.rj, b.cp - 1e-9) << sb.name();
        EXPECT_GE(b.lc, b.rj - 1e-9) << sb.name();
        EXPECT_GE(b.pw, b.lc - 1e-9) << sb.name();
    }
}

TEST_P(PropertySweep, BalanceMatchesAcrossUpdatePolicies)
{
    // Light vs full dynamic updates must agree decision for
    // decision, whatever the machine and workload shape.
    MachineModel machine = MachineModel::byName(GetParam().machine);
    BalanceConfig light;
    BalanceConfig full;
    full.useLightUpdate = false;
    BalanceScheduler a(light, "light");
    BalanceScheduler b(full, "full");
    for (const Superblock &sb : population(6)) {
        GraphContext ctx(sb);
        Schedule sa = a.run(ctx, machine);
        Schedule sf = b.run(ctx, machine);
        for (OpId v = 0; v < sb.numOps(); ++v)
            ASSERT_EQ(sa.issueOf(v), sf.issueOf(v)) << sb.name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PropertySweep,
    ::testing::Values(
        SweepConfig{"GP1", 101, 0.40, 1.6},
        SweepConfig{"GP2", 102, 0.40, 1.6},
        SweepConfig{"GP4", 103, 0.40, 1.6},
        SweepConfig{"FS4", 104, 0.40, 1.6},
        SweepConfig{"FS6", 105, 0.40, 1.6},
        SweepConfig{"FS8", 106, 0.40, 1.6},
        SweepConfig{"GP2", 107, 0.25, 2.2}, // large branchy blocks
        SweepConfig{"FS4", 108, 0.25, 2.2},
        SweepConfig{"GP1", 109, 0.65, 0.9}, // small tight blocks
        SweepConfig{"FS8", 110, 0.65, 0.9}),
    [](const ::testing::TestParamInfo<SweepConfig> &info) {
        return std::string(info.param.machine) + "_" +
               std::to_string(info.param.seed);
    });

} // namespace
} // namespace balance
