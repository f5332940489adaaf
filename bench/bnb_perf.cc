/**
 * @file
 * Branch-and-bound certifier throughput on the paper's target sizes:
 * generated superblocks of 50-100 operations, certified (exact
 * optimum or explicit gap) on all six machine configurations. Emits
 * machine-readable results as JSON (BENCH_bnb.json when run from the
 * repo root): per machine, instance/certified counts, a gap
 * histogram over the certified floors, total nodes expanded, and
 * nodes per second.
 *
 *   ./bnb_perf [--instances n] [--seed s] [--max-nodes n]
 *              [--config M]... [--threads n] [--out path] [--smoke]
 *
 * --smoke shrinks the run to a seconds-scale slice (fewer instances,
 * a small node budget) and is what the perf-labeled ctest target
 * uses; every mode validates the incumbents, the certificate ladder,
 * and the emitted JSON.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bounds/superblock_bounds.hh"
#include "eval/bench_options.hh"
#include "eval/pipeline.hh"
#include "machine/machine_model.hh"
#include "sched/bnb/bnb.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"
#include "workload/generator.hh"

using namespace balance;

namespace
{

struct Options
{
    int instances = 50;
    std::uint64_t seed = 0xb2b5eedULL;
    long long maxNodes = 2000000;
    int threads = 0;
    std::vector<MachineModel> machines;
    std::string outPath = "BENCH_bnb.json";
    bool smoke = false;
    TelemetryOptions telemetry;
};

[[noreturn]] void
usage(int code)
{
    std::cout
        << "bnb_perf: branch-and-bound certifier throughput on\n"
        << "50-100-op superblocks\n"
        << "  --instances <n>  instances per machine (default 50)\n"
        << "  --seed <u64>     population master seed\n"
        << "  --max-nodes <n>  node budget per instance\n"
        << "  --config <name>  machine config (repeatable; default\n"
        << "                   all six paper configs)\n"
        << "  --threads <n>    search workers (0 = hardware)\n"
        << "  --out <path>     JSON output (default BENCH_bnb.json)\n"
        << "  --smoke          tiny run; same checks\n"
        << telemetryUsage();
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool instancesSet = false;
    bool maxNodesSet = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--instances") {
            o.instances = int(parseIntOption("bnb_perf", arg, next(),
                                             1, 1000000, 2));
            instancesSet = true;
        } else if (arg == "--seed") {
            o.seed = parseUint64Option("bnb_perf", arg, next(), 2);
        } else if (arg == "--max-nodes") {
            o.maxNodes = parseIntOption("bnb_perf", arg, next(), 1,
                                        2000000000, 2);
            maxNodesSet = true;
        } else if (arg == "--config") {
            o.machines.push_back(MachineModel::byName(next()));
        } else if (arg == "--threads") {
            o.threads = int(parseIntOption("bnb_perf", arg, next(), 0,
                                           4096, 2));
        } else if (arg == "--out") {
            o.outPath = next();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--help") {
            usage(0);
        } else if (parseTelemetryFlag(arg, next, o.telemetry)) {
            // handled
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage(2);
        }
    }
    if (o.smoke && !instancesSet)
        o.instances = 6;
    if (o.smoke && !maxNodesSet)
        o.maxNodes = 20000;
    if (o.machines.empty())
        o.machines = MachineModel::paperConfigs();
    initTelemetry(o.telemetry);
    return o;
}

/**
 * Draw a population of 50-100-op superblocks: generate with a shape
 * centered on the target band and keep only instances inside it, so
 * the sizes bench what the eval pipeline certifies by default.
 */
std::vector<Superblock>
buildPopulation(const Options &opts)
{
    GeneratorParams params;
    params.blockGeoP = 0.22;
    params.opsPerBlockMu = 1.7;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 100;
    params.maxBlocks = 20;

    std::vector<Superblock> out;
    std::size_t stream = 0;
    while (int(out.size()) < opts.instances) {
        Rng rng = Rng::stream(opts.seed, stream++);
        Superblock sb = generateSuperblock(
            rng, params, "bnbperf.sb" + std::to_string(out.size()));
        if (sb.numOps() < 50 || sb.numOps() > 100)
            continue;
        out.push_back(std::move(sb));
    }
    return out;
}

/** Percent-gap histogram; the last bucket is open-ended. */
const std::vector<double> &
gapEdges()
{
    static const std::vector<double> e = {0.0, 0.5, 1.0, 2.0, 5.0};
    return e;
}

struct MachineRun
{
    std::string name;
    int instances = 0;
    int certifiedOptimal = 0; //!< proven (gap closed)
    int exhausted = 0;        //!< search space fully enumerated
    std::vector<long long> gapHistogram;
    double sumGapPercent = 0.0;
    double maxGapPercent = 0.0;
    long long nodes = 0;
    double wallMs = 0.0;
};

MachineRun
runMachine(const std::vector<Superblock> &population,
           const MachineModel &machine, const Options &opts)
{
    TraceSpan span("bnb_perf.machine",
                   (long long)(population.size()));
    MachineRun run;
    run.name = machine.name();
    run.gapHistogram.assign(gapEdges().size() + 1, 0);

    auto t0 = std::chrono::steady_clock::now();
    for (const Superblock &sb : population) {
        GraphContext ctx(sb);
        BoundsToolkit toolkit(ctx, machine);
        WctBounds bounds = computeWctBounds(ctx, machine);

        BnbOptions bnbOpts;
        bnbOpts.maxNodes = opts.maxNodes;
        bnbOpts.threads = opts.threads;
        BnbRequest req;
        req.toolkit = &toolkit;
        req.staticLowerBound = bounds.tightest();
        BnbResult r = bnbSchedule(ctx, machine, bnbOpts, req);

        r.schedule.validate(sb, machine);
        bsAssert(r.lowerBound >= bounds.tightest() - 1e-9 &&
                     r.lowerBound <= r.wct + 1e-9,
                 "bnb_perf: certificate ladder violated on '",
                 sb.name(), "'");

        ++run.instances;
        if (r.proven)
            ++run.certifiedOptimal;
        if (r.exhausted)
            ++run.exhausted;
        run.nodes += r.counters.nodesExpanded;

        double gapPercent = r.lowerBound > 1e-9
            ? r.gap() / r.lowerBound * 100.0
            : 0.0;
        run.sumGapPercent += gapPercent;
        run.maxGapPercent = std::max(run.maxGapPercent, gapPercent);
        const std::vector<double> &edges = gapEdges();
        std::size_t bucket = edges.size();
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (gapPercent <= edges[i] + 1e-9) {
                bucket = i;
                break;
            }
        }
        ++run.gapHistogram[bucket];
    }
    run.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    std::vector<Superblock> population = buildPopulation(opts);

    std::cout << "bnb_perf: " << population.size()
              << " superblocks of 50-100 ops, node budget "
              << opts.maxNodes << "\n\n";

    JsonWriter w;
    w.beginObject()
        .key("bench").value("bnb_perf")
        .key("instances").value(int(population.size()))
        .key("seed").value((long long)(opts.seed))
        .key("max_nodes").value(opts.maxNodes)
        .key("threads").value(opts.threads)
        .key("smoke").value(opts.smoke)
        .key("gap_edges_percent").beginArray();
    for (double e : gapEdges())
        w.value(e);
    w.endArray();
    w.key("machines").beginArray();

    for (const MachineModel &machine : opts.machines) {
        MachineRun run = runMachine(population, machine, opts);
        double nodesPerSec = run.wallMs > 0.0
            ? double(run.nodes) / (run.wallMs / 1000.0)
            : 0.0;
        double meanGap = run.instances > 0
            ? run.sumGapPercent / run.instances
            : 0.0;
        std::cout << run.name << ": " << run.certifiedOptimal << "/"
                  << run.instances << " proven optimal ("
                  << run.exhausted << " exhausted), mean gap "
                  << meanGap << "%, max " << run.maxGapPercent
                  << "%, " << run.nodes << " nodes in " << run.wallMs
                  << " ms (" << nodesPerSec / 1e6 << " Mnodes/s)\n";
        w.beginObject()
            .key("name").value(run.name)
            .key("instances").value(run.instances)
            .key("certified_optimal").value(run.certifiedOptimal)
            .key("exhausted").value(run.exhausted)
            .key("mean_gap_percent").value(meanGap)
            .key("max_gap_percent").value(run.maxGapPercent)
            .key("gap_histogram").beginArray();
        for (long long c : run.gapHistogram)
            w.value(c);
        w.endArray();
        w.key("nodes_expanded").value(run.nodes)
            .key("wall_ms").value(run.wallMs)
            .key("nodes_per_sec").value(nodesPerSec)
            .endObject();
    }
    w.endArray().endObject();

    bsAssert(jsonLooksValid(w.str()),
             "bnb_perf produced malformed JSON");
    std::ofstream out(opts.outPath);
    bsAssert(out.good(), "cannot open ", opts.outPath);
    out << w.str() << "\n";
    out.close();
    std::cout << "\nwrote " << opts.outPath << "\n";
    return 0;
}
