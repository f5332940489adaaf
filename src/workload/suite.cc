#include "workload/suite.hh"

#include <cmath>

#include "support/diagnostics.hh"

namespace balance
{

std::vector<ProgramSpec>
specInt95Specs()
{
    // Counts sum to 6615 (the paper's population). Shapes vary the
    // way the real programs do: gcc/go large and branchy with rare
    // giant regions, compress small and tight, ijpeg loop-heavy with
    // long blocks, li/perl call-dense with short blocks.
    std::vector<ProgramSpec> specs;

    auto add = [&](std::string name, int count,
                   auto &&tweak) {
        ProgramSpec s;
        s.name = std::move(name);
        s.superblockCount = count;
        tweak(s.params);
        specs.push_back(std::move(s));
    };

    add("gcc", 1500, [](GeneratorParams &p) {
        p.blockGeoP = 0.30;
        p.opsPerBlockMu = 1.7;
        p.opsPerBlockSigma = 0.8;
        p.giantProb = 0.002;
        p.giantMinBlocks = 40;
        p.giantMaxBlocks = 200;
    });
    add("go", 800, [](GeneratorParams &p) {
        p.blockGeoP = 0.28;
        p.opsPerBlockMu = 1.9;
        p.opsPerBlockSigma = 0.8;
        p.giantProb = 0.00125;
        p.giantMinBlocks = 30;
        p.giantMaxBlocks = 120;
    });
    add("compress", 150, [](GeneratorParams &p) {
        p.blockGeoP = 0.50;
        p.opsPerBlockMu = 1.4;
        p.opsPerBlockSigma = 0.5;
    });
    add("ijpeg", 500, [](GeneratorParams &p) {
        p.blockGeoP = 0.55;
        p.opsPerBlockMu = 2.3;
        p.opsPerBlockSigma = 0.7;
        p.memFraction = 0.34;
    });
    add("li", 450, [](GeneratorParams &p) {
        p.blockGeoP = 0.45;
        p.opsPerBlockMu = 1.3;
        p.opsPerBlockSigma = 0.5;
        p.sideExitMax = 0.65;
    });
    add("m88ksim", 640, [](GeneratorParams &p) {
        p.blockGeoP = 0.40;
        p.opsPerBlockMu = 1.6;
        p.opsPerBlockSigma = 0.6;
    });
    add("perl", 900, [](GeneratorParams &p) {
        p.blockGeoP = 0.38;
        p.opsPerBlockMu = 1.5;
        p.opsPerBlockSigma = 0.7;
        p.sideExitMax = 0.60;
    });
    add("vortex", 1675, [](GeneratorParams &p) {
        p.blockGeoP = 0.42;
        p.opsPerBlockMu = 1.5;
        p.opsPerBlockSigma = 0.6;
        p.memFraction = 0.32;
    });

    int total = 0;
    for (const auto &s : specs)
        total += s.superblockCount;
    bsAssert(total == 6615, "suite must total 6615 superblocks, got ",
             total);
    return specs;
}

BenchmarkProgram
buildProgram(const ProgramSpec &spec, std::uint64_t suiteSeed,
             double scale)
{
    bsAssert(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");

    // Derive a per-program seed from the suite seed and the name so
    // programs are independent of each other and of the scale.
    std::uint64_t seed = suiteSeed;
    for (char c : spec.name)
        seed = seed * 1099511628211ULL + std::uint64_t(c);
    Rng rng(seed);

    int count = std::max(
        1, int(std::llround(scale * spec.superblockCount)));

    BenchmarkProgram prog;
    prog.name = spec.name;
    prog.superblocks.reserve(std::size_t(count));
    for (int i = 0; i < count; ++i) {
        Rng child = rng.fork();
        prog.superblocks.push_back(generateSuperblock(
            child, spec.params,
            spec.name + ".sb" + std::to_string(i)));
    }
    return prog;
}

std::vector<BenchmarkProgram>
buildSuite(const SuiteOptions &opts)
{
    std::vector<BenchmarkProgram> suite;
    for (const ProgramSpec &spec : specInt95Specs())
        suite.push_back(buildProgram(spec, opts.seed, opts.scale));
    return suite;
}

int
suiteSize(const std::vector<BenchmarkProgram> &suite)
{
    int total = 0;
    for (const auto &prog : suite)
        total += int(prog.superblocks.size());
    return total;
}

std::vector<SuiteSlot>
flattenSuite(const std::vector<BenchmarkProgram> &suite)
{
    std::vector<SuiteSlot> flat;
    for (const BenchmarkProgram &prog : suite)
        for (const Superblock &sb : prog.superblocks)
            flat.push_back({&prog, &sb});
    return flat;
}

} // namespace balance
