/**
 * @file
 * The synthetic SPECint95-like benchmark suite: eight programs with
 * distinct shape profiles and superblock counts summing to the
 * paper's 6615 superblocks. Fully deterministic for a given suite
 * seed, so every bench and test sees the same population.
 */

#ifndef BALANCE_WORKLOAD_SUITE_HH
#define BALANCE_WORKLOAD_SUITE_HH

#include <string>
#include <vector>

#include "workload/generator.hh"

namespace balance
{

/** One synthetic program: a name and its superblock population. */
struct BenchmarkProgram
{
    std::string name;
    std::vector<Superblock> superblocks;
};

/** Per-program recipe (name, count, shape). */
struct ProgramSpec
{
    std::string name;
    int superblockCount = 0;
    GeneratorParams params;
};

/** Options controlling suite construction. */
struct SuiteOptions
{
    /** Master seed; programs derive child seeds from it. */
    std::uint64_t seed = 0x5eedbeefcafe1995ULL;
    /**
     * Scale factor on per-program superblock counts in (0, 1]. The
     * benches expose this so a quick run can use a sampled suite;
     * 1.0 reproduces the full 6615-superblock population.
     */
    double scale = 1.0;
};

/** @return the eight SPECint95-inspired program recipes (6615 SBs). */
std::vector<ProgramSpec> specInt95Specs();

/** Build one program's population. */
BenchmarkProgram buildProgram(const ProgramSpec &spec,
                              std::uint64_t suiteSeed, double scale);

/** Build the whole suite. */
std::vector<BenchmarkProgram> buildSuite(const SuiteOptions &opts = {});

/** @return the total superblock count of a suite. */
int suiteSize(const std::vector<BenchmarkProgram> &suite);

/** One superblock of a suite and the program it belongs to. */
struct SuiteSlot
{
    const BenchmarkProgram *program;
    const Superblock *sb;
};

/** @return every superblock in suite order (the drivers' slot order). */
std::vector<SuiteSlot> flattenSuite(
    const std::vector<BenchmarkProgram> &suite);

} // namespace balance

#endif // BALANCE_WORKLOAD_SUITE_HH
