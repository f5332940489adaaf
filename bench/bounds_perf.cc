/**
 * @file
 * Wall-clock comparison of the scratch-arena bound engine against
 * the retained naive reference (bounds/reference.hh) on the
 * Pairwise/Triplewise-dominated full bound computation, for the GP4
 * and FS8 machine configurations. Emits machine-readable results as
 * JSON (BENCH_bounds.json when run from the repo root) and asserts
 * along the way that both paths produce bitwise-identical bounds.
 *
 *   ./bounds_perf [--scale f] [--seed s] [--config M]...
 *                 [--out path] [--smoke]
 *
 * --smoke shrinks the suite to a seconds-scale run and is what the
 * perf-labeled ctest target uses; the emitted document is validated
 * with jsonLooksValid() in every mode.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bounds/bound_scratch.hh"
#include "eval/bench_options.hh"
#include "bounds/reference.hh"
#include "bounds/superblock_bounds.hh"
#include "eval/pipeline.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"
#include "workload/suite.hh"

using namespace balance;

namespace
{

struct Options
{
    SuiteOptions suite;
    std::vector<MachineModel> machines;
    std::string outPath = "BENCH_bounds.json";
    bool smoke = false;
    TelemetryOptions telemetry;
};

[[noreturn]] void
usage(int code)
{
    std::cout
        << "bounds_perf: naive-vs-engine bound wall clock\n"
        << "  --scale <0..1]   suite fraction (default 0.05)\n"
        << "  --seed <u64>     suite master seed\n"
        << "  --config <name>  machine config (repeatable; default\n"
        << "                   GP4 and FS8)\n"
        << "  --out <path>     JSON output (default BENCH_bounds.json)\n"
        << "  --smoke          tiny suite; same checks\n"
        << telemetryUsage();
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.suite.scale = 0.05;
    bool scaleSet = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--scale") {
            std::string text = next();
            double v = parseDoubleOption("bounds_perf", arg, text, 2);
            if (v <= 0.0 || v > 1.0)
                optionError("bounds_perf", arg, text,
                            "number in (0, 1]", 2);
            o.suite.scale = v;
            scaleSet = true;
        } else if (arg == "--seed") {
            o.suite.seed = parseUint64Option("bounds_perf", arg,
                                             next(), 2);
        } else if (arg == "--config") {
            o.machines.push_back(MachineModel::byName(next()));
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
    if (o.smoke && !scaleSet)
        o.suite.scale = 0.004;
    if (o.machines.empty())
        o.machines = {MachineModel::gp4(), MachineModel::fs8()};
    initTelemetry(o.telemetry);
    return o;
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
identicalBounds(const WctBounds &a, const WctBounds &b)
{
    return a.cp == b.cp && a.hu == b.hu && a.rj == b.rj &&
           a.lc == b.lc && a.pw == b.pw && a.tw == b.tw;
}

struct MachineRun
{
    std::string name;
    int superblocks = 0;
    double naiveMs = 0.0;
    double engineMs = 0.0;
    bool identical = true;
};

MachineRun
runMachine(const std::vector<BenchmarkProgram> &suite,
           const MachineModel &machine)
{
    MachineRun run;
    run.name = machine.name();

    // Each path gets its own cold GraphContexts so neither inherits
    // closures the other one computed.
    std::vector<std::unique_ptr<GraphContext>> naiveCtx, engineCtx;
    for (const BenchmarkProgram &prog : suite) {
        for (const Superblock &sb : prog.superblocks) {
            naiveCtx.push_back(std::make_unique<GraphContext>(sb));
            engineCtx.push_back(std::make_unique<GraphContext>(sb));
        }
    }
    run.superblocks = int(naiveCtx.size());

    std::vector<WctBounds> naive(naiveCtx.size());
    {
        TraceSpan span("bounds_perf.naive",
                       (long long)(naiveCtx.size()));
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < naiveCtx.size(); ++i)
            naive[i] =
                reference::computeWctBounds(*naiveCtx[i], machine);
        run.naiveMs = msSince(t0);
    }

    std::vector<WctBounds> engine(engineCtx.size());
    BoundScratch scratch(machine);
    {
        TraceSpan span("bounds_perf.engine",
                       (long long)(engineCtx.size()));
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < engineCtx.size(); ++i)
            engine[i] = computeWctBounds(*engineCtx[i], machine, {},
                                         nullptr, &scratch);
        run.engineMs = msSince(t0);
    }

    // Harvest the scratch tallies outside the timed loops; the fold
    // is serial so the snapshot is deterministic.
    if (metricsCollectionEnabled()) {
        MetricRegistry &reg = MetricRegistry::global();
        reg.counter("bounds.pair_skeleton.hits")
            .add(scratch.stats.pairSkeletonHits);
        reg.counter("bounds.pair_skeleton.misses")
            .add(scratch.stats.pairSkeletonMisses);
        reg.counter("bounds.triple_skeleton.hits")
            .add(scratch.stats.tripleSkeletonHits);
        reg.counter("bounds.triple_skeleton.misses")
            .add(scratch.stats.tripleSkeletonMisses);
        reg.counter("bounds.relax.epoch_resets")
            .add(scratch.table.resetCount());
        reg.gauge("bounds.scratch.high_water_bytes")
            .observeMax((long long)(scratch.arena.highWaterBytes()));
    }

    for (std::size_t i = 0; i < naive.size(); ++i) {
        if (!identicalBounds(naive[i], engine[i])) {
            run.identical = false;
            std::cerr << "MISMATCH on superblock " << i << " ("
                      << machine.name() << ")\n";
        }
    }
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    std::vector<BenchmarkProgram> suite = buildSuite(opts.suite);

    std::cout << "bounds_perf: " << suiteSize(suite)
              << " superblocks (scale " << opts.suite.scale << ")\n\n";

    JsonWriter w;
    w.beginObject()
        .key("bench").value("bounds_perf")
        .key("scale").value(opts.suite.scale)
        .key("seed").value((long long)(opts.suite.seed))
        .key("smoke").value(opts.smoke)
        .key("machines").beginArray();

    bool allIdentical = true;
    for (const MachineModel &machine : opts.machines) {
        MachineRun run = runMachine(suite, machine);
        allIdentical = allIdentical && run.identical;
        double speedup =
            run.engineMs > 0.0 ? run.naiveMs / run.engineMs : 0.0;
        std::cout << run.name << ": naive " << run.naiveMs
                  << " ms, engine " << run.engineMs << " ms, speedup "
                  << speedup << "x, identical "
                  << (run.identical ? "yes" : "NO") << "\n";
        w.beginObject()
            .key("name").value(run.name)
            .key("superblocks").value(run.superblocks)
            .key("naive_ms").value(run.naiveMs)
            .key("engine_ms").value(run.engineMs)
            .key("speedup").value(speedup)
            .key("identical").value(run.identical)
            .endObject();
    }
    w.endArray().endObject();

    bsAssert(jsonLooksValid(w.str()),
             "bounds_perf produced malformed JSON");
    std::ofstream out(opts.outPath);
    bsAssert(out.good(), "cannot open ", opts.outPath);
    out << w.str() << "\n";
    out.close();
    std::cout << "\nwrote " << opts.outPath << "\n";

    if (!allIdentical) {
        std::cerr << "bound values diverged from the reference\n";
        return 1;
    }
    return 0;
}
