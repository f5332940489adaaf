/**
 * @file
 * Extension bench (not a paper table): how tight is the tightest
 * lower bound against the *true* optimum? The paper can only compare
 * bounds to the best schedule found; with the exact branch-and-bound
 * oracle this bench closes the loop on small superblocks, reporting
 * the fraction where tightest == optimal and the residual gap.
 *
 *   ./optimality_gap [--scale f] [--seed s] [--config M]...
 */

#include <iostream>

#include "bounds/superblock_bounds.hh"
#include "eval/bench_options.hh"
#include "eval/pipeline.hh"
#include "sched/optimal.hh"
#include "support/diagnostics.hh"
#include "support/parallel_for.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "workload/generator.hh"

using namespace balance;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, /*scale=*/1.0);

    // Small-superblock population (the oracle is exponential).
    GeneratorParams params;
    params.blockGeoP = 0.55;
    params.opsPerBlockMu = 1.0;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 14;
    params.maxBlocks = 5;
    int population = int(400 * opts.suite.scale);
    Rng rng(opts.suite.seed);
    std::vector<Superblock> sbs;
    for (int i = 0; i < population; ++i) {
        Rng child = rng.fork();
        sbs.push_back(generateSuperblock(child, params,
                                         "opt.sb" + std::to_string(i)));
    }
    std::cout << "Optimality gap of the tightest bound (exact oracle, "
              << population << " small superblocks)\n\n";

    TextTable table;
    table.setHeader({"config", "proven", "bound==opt", "avg gap",
                     "max gap"});
    for (const MachineModel &machine : opts.machines) {
        // (proven, gap%) per superblock; the oracle runs are the
        // expensive part and are embarrassingly parallel.
        struct GapSlot
        {
            bool proven = false;
            double gapPercent = 0.0;
        };
        std::vector<GapSlot> slots(sbs.size());
        parallelFor(
            sbs.size(),
            [&](std::size_t i) {
                GraphContext ctx(sbs[i]);
                WctBounds bounds = computeWctBounds(ctx, machine);
                OptimalOptions oo;
                oo.maxNodes = 400000;
                OptimalResult opt = optimalSchedule(ctx, machine, oo);
                if (!opt.proven)
                    return;
                // A bound above the proven optimum is unsound; it must
                // not read as an exact one.
                bsAssert(bounds.tightest() <= opt.wct + 1e-6,
                         "optimality_gap: bound ", bounds.tightest(),
                         " above the optimum ", opt.wct, " on '",
                         sbs[i].name(), "' (", machine.name(), ")");
                slots[i].proven = true;
                slots[i].gapPercent =
                    (opt.wct - bounds.tightest()) /
                    std::max(opt.wct, 1e-9) * 100.0;
            },
            opts.threads);

        int proven = 0;
        int exact = 0;
        RunningStat gap;
        for (const GapSlot &slot : slots) {
            if (!slot.proven)
                continue;
            ++proven;
            gap.add(slot.gapPercent);
            if (slot.gapPercent <= 1e-9)
                ++exact;
        }
        table.addRow({machine.name(), std::to_string(proven),
                      fmtPercent(100.0 * exact / std::max(1, proven)),
                      fmtPercent(gap.mean()),
                      fmtPercent(gap.max())});
    }
    std::cout << table.render() << "\n";
    std::cout << "expected shape (paper): the pairwise and triplewise\n"
              << "bounds are very tight, so on most small superblocks\n"
              << "the tightest bound equals the optimum.\n";
    return 0;
}
