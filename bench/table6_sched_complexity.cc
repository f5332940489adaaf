/**
 * @file
 * Reproduces Table 6: computational cost of the scheduling
 * heuristics as per-superblock loop-trip counts (excluding the
 * static Section 4 bound computations, as in the paper), plus the
 * light-vs-full dynamic-update comparison for Balance.
 *
 *   ./table6_sched_complexity [--scale f] [--seed s] [--config M]...
 */

#include <iostream>

#include "eval/bench_options.hh"
#include "eval/experiment.hh"
#include "support/parallel_for.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace balance;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, /*scale=*/0.15);
    auto suite = opts.buildSuitePopulation();

    std::cout << "Table 6: heuristic cost (loop trips per superblock, "
                 "bounds excluded)\n"
              << "suite: " << suiteSize(suite) << " superblocks (scale "
              << opts.suite.scale << ")\n\n";

    // The lineup plus Balance-full-update for the last row.
    std::vector<std::shared_ptr<const Scheduler>> scheds = {
        std::make_shared<SuccessiveRetirementScheduler>(),
        std::make_shared<CriticalPathScheduler>(),
        std::make_shared<GStarScheduler>(),
        std::make_shared<DhasyScheduler>(),
        std::make_shared<HelpScheduler>(),
        std::make_shared<BalanceScheduler>(),
    };
    BalanceConfig fullCfg;
    fullCfg.useLightUpdate = false;
    scheds.push_back(
        std::make_shared<BalanceScheduler>(fullCfg, "Balance-full"));

    std::vector<SuiteSlot> flat = flattenSuite(suite);

    for (const MachineModel &machine : opts.machines) {
        // Trip counts land in per-superblock slots and are folded
        // into the stats in suite order, keeping the table bytes
        // independent of --threads.
        std::vector<std::vector<double>> slots(
            flat.size(), std::vector<double>(scheds.size(), 0.0));
        parallelFor(
            flat.size(),
            [&](std::size_t s) {
                const Superblock &sb = *flat[s].sb;
                GraphContext ctx(sb);
                BoundConfig boundCfg;
                BoundsToolkit toolkit(ctx, machine, boundCfg);
                for (std::size_t i = 0; i < scheds.size(); ++i) {
                    SchedulerStats stats;
                    ScheduleRequest req;
                    req.stats = &stats;
                    auto *bal = dynamic_cast<const BalanceScheduler *>(
                        scheds[i].get());
                    if (bal && bal->config().useRcBounds)
                        bal->runWithToolkit(ctx, machine, toolkit, req);
                    else
                        scheds[i]->run(ctx, machine, req);
                    slots[s][i] = double(stats.loopTrips);
                }
            },
            opts.threads);

        std::vector<SampleStat> trips(scheds.size());
        for (const std::vector<double> &row : slots)
            for (std::size_t i = 0; i < scheds.size(); ++i)
                trips[i].add(row[i]);

        TextTable table;
        table.setHeader({"heuristic", "average", "median"});
        for (std::size_t i = 0; i < scheds.size(); ++i) {
            table.addRow({scheds[i]->name(),
                          fmtCount((long long)(trips[i].mean() + 0.5)),
                          fmtCount(
                              (long long)(trips[i].median() + 0.5))});
        }
        std::cout << machine.name() << "\n" << table.render() << "\n";
    }

    std::cout
        << "expected shape (paper): CP cheapest; Help and Balance\n"
        << "empirically comparable to DHASY; the light update cuts\n"
        << "Balance's dynamic-bound cost by an order of magnitude\n"
        << "versus Balance-full.\n";
    return 0;
}
