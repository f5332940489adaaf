/**
 * @file
 * Exactness check of the Triplewise engine against the unpruned
 * reference::computeTriplewise. For every (superblock, machine) pair
 * of the suite both run on the same EarlyRC, LateRC and Pairwise
 * inputs, and their wct (bit for bit), fellBack and triplesEvaluated
 * must agree. Prints, per machine, the pairs checked, the pairs that
 * run TW (3 to maxBranches branches), the differences and the engine
 * and reference trip totals; each difference goes to stderr. Exits 1
 * on any difference.
 *
 *   ./tw_reference_check [--scale f] [--seed s] [--config M]...
 *                        [--threads n]
 *
 * The default scale is the full population (39,690 pairs on the six
 * machines): a few minutes on four cores, nearly all of it in the
 * reference.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bounds/reference.hh"
#include "bounds/superblock_bounds.hh"
#include "eval/bench_options.hh"
#include "support/parallel_for.hh"
#include "support/table.hh"

using namespace balance;

namespace
{

/** One (superblock, machine) pair's outcome. */
struct PairCheck
{
    bool runsTw = false;
    long long engineTrips = 0;
    long long refTrips = 0;
    std::string difference; //!< empty when engine and reference agree
};

std::string
describe(const TriplewiseResult &r)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "wct %.17g fellBack %d triples %lld",
                  r.wct, int(r.fellBack), r.triplesEvaluated);
    return buf;
}

PairCheck
check(const Superblock &sb, const MachineModel &machine)
{
    GraphContext ctx(sb);
    BoundConfig config;
    BoundsToolkit toolkit(ctx, machine, config);
    const TriplewiseOptions &opts = config.triplewise;

    PairCheck out;
    out.runsTw = sb.numBranches() >= 3 &&
                 sb.numBranches() <= opts.maxBranches;
    BoundCounters engineTrips, refTrips;
    TriplewiseResult engine = computeTriplewise(
        ctx, machine, toolkit.earlyRC(), toolkit.lateRCAll(),
        *toolkit.pairwise(), opts, &engineTrips);
    TriplewiseResult ref = reference::computeTriplewise(
        ctx, machine, toolkit.earlyRC(), toolkit.lateRCAll(),
        toolkit.pairwise()->superblockWct(), opts, &refTrips);
    out.engineTrips = engineTrips.trips;
    out.refTrips = refTrips.trips;
    // Exact comparison: the engine promises the reference's doubles.
    if (engine.wct != ref.wct || engine.fellBack != ref.fellBack ||
        engine.triplesEvaluated != ref.triplesEvaluated)
        out.difference = sb.name() + " on " + machine.name() +
                         ": engine " + describe(engine) +
                         ", reference " + describe(ref);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    auto suite = opts.buildSuitePopulation();
    std::vector<const Superblock *> sbs;
    for (const BenchmarkProgram &prog : suite)
        for (const Superblock &sb : prog.superblocks)
            sbs.push_back(&sb);

    std::cout << "Triplewise engine vs unpruned reference: "
              << sbs.size() << " superblocks (scale " << opts.suite.scale
              << ") x " << opts.machines.size() << " machines\n\n";

    // One slot per (machine, superblock) pair, machine-major, so the
    // report folds in a fixed order whatever the thread count.
    const std::size_t perMachine = sbs.size();
    std::vector<PairCheck> slots(opts.machines.size() * perMachine);
    parallelFor(
        slots.size(),
        [&](std::size_t t) {
            slots[t] = check(*sbs[t % perMachine],
                             opts.machines[t / perMachine]);
        },
        opts.threads);

    TextTable table;
    table.setHeader({"machine", "pairs", "TW pairs", "differences",
                     "engine trips", "reference trips", "engine/ref"});
    auto addRow = [&](const std::string &name, std::size_t from,
                      std::size_t to) {
        long long tw = 0, diffs = 0, engine = 0, ref = 0;
        for (std::size_t t = from; t < to; ++t) {
            tw += slots[t].runsTw;
            diffs += !slots[t].difference.empty();
            engine += slots[t].engineTrips;
            ref += slots[t].refTrips;
        }
        table.addRow({name, fmtCount((long long)(to - from)),
                      fmtCount(tw), fmtCount(diffs), fmtCount(engine),
                      fmtCount(ref),
                      fmtPercent(ref ? 100.0 * double(engine) /
                                           double(ref)
                                     : 0.0)});
        return diffs;
    };
    for (std::size_t m = 0; m < opts.machines.size(); ++m)
        addRow(opts.machines[m].name(), m * perMachine,
               (m + 1) * perMachine);
    table.addRule();
    long long differences = addRow("all", 0, slots.size());
    std::cout << table.render();

    for (const PairCheck &slot : slots)
        if (!slot.difference.empty())
            std::cerr << "difference: " << slot.difference << "\n";
    std::cout << (differences == 0
                      ? "\nOK: the engine equals the reference on every "
                        "pair\n"
                      : "\nFAILED: " + std::to_string(differences) +
                            " pairs differ\n");
    return differences == 0 ? 0 : 1;
}
