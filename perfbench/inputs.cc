#include "inputs.hh"

#include "graph/builder.hh"
#include "support/rng.hh"
#include "workload/generator.hh"
#include "workload/sb_io.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace balance;

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t purpose)
{
    // splitmix64 finalizer over (seed, purpose).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

/** Every superblock on every machine, superblock-major. */
void
crossUnits(EvalInputs &in)
{
    for (int s = 0; s < int(in.superblocks.size()); ++s)
        for (int m = 0; m < int(in.machines.size()); ++m)
            in.units.push_back({s, m});
}

/**
 * Superblocks with the given block (= branch) counts: the generator's
 * giant path draws exactly blocks[i] blocks for superblock i.
 */
std::vector<Superblock>
withBlocks(std::uint64_t seed, const std::vector<int> &blocks,
           GeneratorParams params, const std::string &prefix)
{
    params.giantProb = 1.0;
    std::vector<Superblock> out;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        params.giantMinBlocks = params.giantMaxBlocks = blocks[i];
        Rng rng = Rng::stream(seed, i);
        out.push_back(generateSuperblock(rng, params,
                                         prefix + std::to_string(i)));
    }
    return out;
}

/** @p count block counts stepping evenly from @p lo to @p hi. */
std::vector<int>
evenBlocks(int count, int lo, int hi)
{
    std::vector<int> out;
    for (int i = 0; i < count; ++i)
        out.push_back(lo + (hi - lo) * i / (count - 1));
    return out;
}

} // namespace

EvalInputs
suiteShapes()
{
    SuiteOptions opts;
    opts.scale = suiteScale;
    EvalInputs in;
    for (BenchmarkProgram &prog : buildSuite(opts))
        for (Superblock &sb : prog.superblocks)
            in.superblocks.push_back(std::move(sb));
    in.machines = MachineModel::paperConfigs();
    crossUnits(in);
    return in;
}

EvalInputs
largeShapes()
{
    // Default params: the giant shape is lognormal(0.7, 0.7) ops per
    // block, capped at 607 ops.
    EvalInputs in;
    in.superblocks = withBlocks(0x1a26e, evenBlocks(4, 40, 200),
                                GeneratorParams{}, "large.sb");
    in.machines = {MachineModel::gp2(), MachineModel::fs8()};
    crossUnits(in);
    return in;
}

EvalInputs
certifyShapes()
{
    // bnb_perf's population (its default seed and shape): draws
    // centred on 50-100 ops, keeping only those inside the band.
    GeneratorParams params;
    params.blockGeoP = 0.22;
    params.opsPerBlockMu = 1.7;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 100;
    params.maxBlocks = 20;
    EvalInputs in;
    for (std::uint64_t stream = 0; in.superblocks.size() < 30; ++stream) {
        Rng rng = Rng::stream(0xb2b5eedULL, stream);
        Superblock sb = generateSuperblock(
            rng, params,
            "bnbperf.sb" + std::to_string(in.superblocks.size()));
        if (sb.numOps() >= 50 && sb.numOps() <= 100)
            in.superblocks.push_back(std::move(sb));
    }
    in.machines = {MachineModel::gp2(), MachineModel::fs4()};
    crossUnits(in);
    return in;
}

ServiceShapes
serviceShapes()
{
    ServiceShapes in;
    GeneratorParams light;
    for (std::uint64_t i = 0; i < 48; ++i) {
        Rng rng = Rng::stream(0x5e41ce, i);
        in.light.push_back(generateSuperblock(
            rng, light, "light.sb" + std::to_string(i)));
    }
    GeneratorParams heavy;
    heavy.giantOpsPerBlockMu = heavy.opsPerBlockMu;
    in.heavy = withBlocks(0x4ea7, evenBlocks(8, 6, 12), heavy, "heavy.sb");
    return in;
}

std::vector<std::string>
relabel(const std::vector<Superblock> &sbs, std::uint64_t seed)
{
    const std::uint64_t s = mixSeed(seed, 1);
    std::vector<std::string> out;
    out.reserve(sbs.size());
    for (std::size_t i = 0; i < sbs.size(); ++i) {
        const Superblock &sb = sbs[i];
        Rng rng = Rng::stream(s, i);
        const int n = sb.numOps();

        // Seeded topological order of each block's non-branch ops,
        // the block's branch last: ops stay in their block, every
        // edge still points forward.
        std::vector<int> preds(std::size_t(n), 0);
        for (const Operation &o : sb.ops())
            for (const Adjacent &e : sb.succs(o.id))
                if (sb.op(e.op).block == o.block)
                    ++preds[std::size_t(e.op)];
        std::vector<OpId> order;
        std::vector<OpId> ready;
        for (OpId first = 0; first < n;) {
            OpId branch = first;
            while (!sb.op(branch).isBranch())
                ++branch;
            for (OpId op = first; op < branch; ++op)
                if (preds[std::size_t(op)] == 0)
                    ready.push_back(op);
            while (!ready.empty()) {
                std::size_t pick = std::size_t(
                    rng.uniformInt(0, std::int64_t(ready.size()) - 1));
                OpId op = ready[pick];
                ready[pick] = ready.back();
                ready.pop_back();
                order.push_back(op);
                for (const Adjacent &e : sb.succs(op))
                    if (e.op < branch && --preds[std::size_t(e.op)] == 0)
                        ready.push_back(e.op);
            }
            order.push_back(branch);
            first = branch + 1;
        }
        std::vector<OpId> renumbered(order.size());
        for (int k = 0; k < n; ++k)
            renumbered[std::size_t(order[std::size_t(k)])] = OpId(k);

        SuperblockBuilder b(sb.name() + "@" + std::to_string(seed));
        b.setFrequency(sb.execFrequency());
        for (OpId op : order) {
            const Operation &o = sb.op(op);
            if (o.isBranch())
                b.addBranch(o.exitProb, o.name, o.latency);
            else
                b.addOp(o.cls, o.latency, o.name);
        }
        for (OpId op : order)
            for (const Adjacent &e : sb.succs(op))
                b.addEdge(renumbered[std::size_t(op)],
                          renumbered[std::size_t(e.op)], e.latency);
        out.push_back(writeSuperblock(b.build()));
    }
    return out;
}

std::vector<Superblock>
parseAll(const std::vector<std::string> &texts)
{
    std::vector<Superblock> out;
    out.reserve(texts.size());
    for (const std::string &t : texts)
        out.push_back(parseSuperblock(t));
    return out;
}

void
shuffleUnits(EvalInputs &in, std::uint64_t seed)
{
    Rng rng(mixSeed(seed, 2));
    rng.shuffle(in.units);
}

} // namespace perfbench
