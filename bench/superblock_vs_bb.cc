/**
 * @file
 * Extension bench for the paper's *motivation* (Section 1): "since
 * there is generally insufficient instruction level parallelism
 * within a single basic block, higher performance is achieved by
 * speculatively scheduling operations in superblocks."
 *
 * Over a population of synthetic profiled CFG regions this bench
 * compares, per machine configuration, the expected dynamic cycles
 * of
 *   (a) per-basic-block scheduling (no cross-branch motion): each
 *       trace block scheduled in isolation; a traversal that leaves
 *       at exit k pays the sum of the makespans of blocks 0..k,
 *       i.e. sum over blocks of freq(block) * makespan(block);
 *   (b) superblock scheduling with Balance (plus renaming), where a
 *       traversal pays issue(exit_k) + latency.
 * Off-trace blocks cost the same in both models and are excluded.
 *
 *   ./superblock_vs_bb [--scale f] [--seed s] [--config M]...
 */

#include <iostream>
#include <limits>

#include "cfg/cfg_gen.hh"
#include "cfg/superblock_form.hh"
#include "core/balance_scheduler.hh"
#include "eval/bench_options.hh"
#include "sched/heuristics.hh"
#include "support/parallel_for.hh"
#include "support/table.hh"

using namespace balance;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, /*scale=*/1.0);
    int regions = std::max(1, int(120 * opts.suite.scale));

    std::cout << "Superblock vs per-basic-block scheduling ("
              << regions << " synthetic CFG regions)\n\n";

    // Build the regions and their traces once.
    Rng rng(opts.suite.seed);
    CfgGenParams genParams;
    genParams.minBlocks = 6;
    genParams.maxBlocks = 24;
    genParams.instrsMu = 1.7;
    std::vector<CfgProgram> cfgs;
    for (int i = 0; i < regions; ++i) {
        Rng child = rng.fork();
        cfgs.push_back(generateCfg(child, genParams));
    }

    FormOptions formOpts;
    formOpts.renameRegisters = true;

    TextTable table;
    table.setHeader({"config", "basic-block cycles",
                     "superblock cycles", "speedup"});
    int wins = 0;
    double lowest = std::numeric_limits<double>::infinity();
    double highest = 0.0;
    for (const MachineModel &machine : opts.machines) {
        CriticalPathScheduler cp;
        BalanceScheduler bal;
        // One (bb, sb) cycle pair per region; regions are
        // independent, the totals fold in region order below.
        std::vector<std::pair<double, double>> slots(cfgs.size());
        parallelFor(
            cfgs.size(),
            [&](std::size_t r) {
                const CfgProgram &cfg = cfgs[r];
                double bb = 0.0;
                double sbTotal = 0.0;
                Liveness live = Liveness::allLiveOut(cfg);
                for (const Trace &trace : selectTraces(cfg)) {
                    // (a) per-block: each block is a one-exit
                    // superblock scheduled alone; no speculation.
                    for (int bi : trace.blocks) {
                        Trace single;
                        single.blocks = {bi};
                        Superblock blockSb = formSuperblock(
                            cfg, single, live, "bb", formOpts);
                        GraphContext ctx(blockSb);
                        Schedule s = cp.run(ctx, machine);
                        bb += cfg.block(bi).frequency *
                              double(s.makespan());
                    }
                    // (b) the superblock, scheduled by Balance.
                    Superblock sb = formSuperblock(cfg, trace, live,
                                                   "sb", formOpts);
                    GraphContext ctx(sb);
                    Schedule s = bal.run(ctx, machine);
                    s.validate(sb, machine);
                    sbTotal += sb.execFrequency() * s.wct(sb);
                }
                slots[r] = {bb, sbTotal};
            },
            opts.threads);

        double bbCycles = 0.0;
        double sbCycles = 0.0;
        for (const auto &[bb, sbc] : slots) {
            bbCycles += bb;
            sbCycles += sbc;
        }
        double speedup = bbCycles / sbCycles;
        wins += speedup > 1.0;
        lowest = std::min(lowest, speedup);
        highest = std::max(highest, speedup);
        table.addRow({machine.name(),
                      fmtCount((long long)(bbCycles + 0.5)),
                      fmtCount((long long)(sbCycles + 0.5)),
                      fmtDouble(speedup, 3) + "x"});
    }
    std::cout << table.render() << "\n";
    // The footer states only what the rows show. The gain does not
    // order by machine width at full scale (FS8 below FS6, FS4 below
    // GP4; EXPERIMENTS.md), so no width trend is claimed.
    std::cout << "expected shape (paper's motivation): superblock\n"
              << "scheduling wins on every machine.\n"
              << "measured: it wins on " << wins << " of "
              << opts.machines.size() << " machines, "
              << fmtDouble(lowest, 3) << "x to "
              << fmtDouble(highest, 3) << "x.\n";
    return 0;
}
