/**
 * @file
 * Ablation of the triplewise bound's budget knobs (DESIGN.md calls
 * these out as reproduction choices): the branch-count cap, the
 * per-dimension latency-range cap, and the per-superblock evaluation
 * budget. For each setting the bench reports the bound quality (how
 * often TW improves on PW, and the mean improvement over PW across
 * every superblock with at least three branches, zero where TW falls
 * back or does not improve) against the cost in loop trips.
 *
 *   ./ablation_tw_budget [--scale f] [--seed s] [--config M]
 */

#include <iostream>

#include "bounds/superblock_bounds.hh"
#include "eval/bench_options.hh"
#include "support/parallel_for.hh"
#include "support/stats.hh"
#include "support/table.hh"

using namespace balance;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, /*scale=*/0.15);
    auto suite = opts.buildSuitePopulation();
    MachineModel machine = opts.machines.size() == 6
        ? MachineModel::fs4()
        : opts.machines.front();

    std::cout << "Triplewise budget ablation on " << machine.name()
              << " (" << suiteSize(suite) << " superblocks)\n\n";

    struct Setting
    {
        const char *name;
        TriplewiseOptions tw;
    };
    std::vector<Setting> settings;
    {
        Setting s;
        s.name = "maxBranches=6";
        s.tw.maxBranches = 6;
        settings.push_back(s);
        s.name = "default (12)";
        s.tw = TriplewiseOptions{};
        settings.push_back(s);
        s.name = "maxBranches=20";
        s.tw = TriplewiseOptions{};
        s.tw.maxBranches = 20;
        settings.push_back(s);
        s.name = "latRange=8";
        s.tw = TriplewiseOptions{};
        s.tw.maxLatRange = 8;
        settings.push_back(s);
        s.name = "latRange=48";
        s.tw = TriplewiseOptions{};
        s.tw.maxLatRange = 48;
        settings.push_back(s);
        s.name = "maxEvals=2000";
        s.tw = TriplewiseOptions{};
        s.tw.maxEvals = 2000;
        settings.push_back(s);
    }

    TextTable table;
    table.setHeader({"setting", "TW > PW", "avg gap closed",
                     "fell back", "avg trips"});
    // The >= 3-branch population, in suite order.
    std::vector<const Superblock *> eligibleSbs;
    for (const BenchmarkProgram &prog : suite)
        for (const Superblock &sb : prog.superblocks)
            if (sb.numBranches() >= 3)
                eligibleSbs.push_back(&sb);

    for (const Setting &setting : settings) {
        struct TwSlot
        {
            double trips = 0.0;
            bool fellBack = false;
            bool improved = false;
            double gainPercent = 0.0; //!< 0 unless TW improves on PW
        };
        std::vector<TwSlot> slots(eligibleSbs.size());
        parallelFor(
            eligibleSbs.size(),
            [&](std::size_t i) {
                const Superblock &sb = *eligibleSbs[i];
                GraphContext ctx(sb);
                auto earlyRC = lcEarlyRCForSuperblock(ctx, machine);
                std::vector<std::vector<int>> lateRCs;
                for (int bi = 0; bi < sb.numBranches(); ++bi) {
                    lateRCs.push_back(
                        lateRCFor(ctx, machine, bi, earlyRC));
                }
                PairwiseBounds pw(ctx, machine, earlyRC, lateRCs);
                BoundCounters counters;
                TriplewiseResult tw =
                    computeTriplewise(ctx, machine, earlyRC, lateRCs,
                                      pw, setting.tw, &counters);
                slots[i].trips = double(counters.trips);
                if (tw.fellBack) {
                    slots[i].fellBack = true;
                    return;
                }
                double pwWct = pw.superblockWct();
                if (tw.wct > pwWct + 1e-9) {
                    slots[i].improved = true;
                    slots[i].gainPercent =
                        (tw.wct - pwWct) / pwWct * 100.0;
                }
            },
            opts.threads);

        int improved = 0;
        int fellBack = 0;
        int eligible = int(eligibleSbs.size());
        RunningStat gain;
        SampleStat trips;
        for (const TwSlot &slot : slots) {
            trips.add(slot.trips);
            gain.add(slot.gainPercent);
            if (slot.fellBack)
                ++fellBack;
            if (slot.improved)
                ++improved;
        }
        table.addRow({setting.name,
                      fmtPercent(100.0 * improved /
                                 std::max(1, eligible)),
                      fmtPercent(gain.mean(), 3),
                      fmtPercent(100.0 * fellBack /
                                 std::max(1, eligible)),
                      fmtCount((long long)(trips.mean() + 0.5))});
    }
    std::cout << table.render();
    return 0;
}
