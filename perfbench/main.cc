/**
 * @file
 * perfbench: the repository's benchmark program.
 *
 *   perfbench --workload <suite|large|service|certify> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * A run is k rounds spread over --seconds; each round redoes (and
 * re-times) the set-up, times a host probe, then runs every unit
 * once. A unit's time is the fastest of its k samples and every
 * timing metric derives from those per-unit times; `setup_s` is the
 * fastest per-round set-up. With --trace 0 the last line of standard
 * output is the end-to-end metrics as one JSON object; with --trace 1
 * it is the per-layer metrics (README.md lists both). The exit code
 * is 0 only when every output check passed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "measure.hh"
#include "workload.hh"

namespace
{

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<suite|large|service|certify> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (!*v || *end)
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!*v || *end || !(a.seconds > 0.0 && a.seconds <= 600.0))
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** One reported metric. */
struct Metric
{
    const char *name;
    const char *unit;
    double value;
};

/** Layers whose self times make up a unit (set-up layers excluded). */
const char *const unitLayers[] = {
    "graph.context", "bounds.cp_hu_rj", "bounds.lc",     "bounds.laterc",
    "bounds.pw",     "bounds.tw",       "core.balance",  "core.help",
    "sched.list",    "sched.best",      "sched.bnb",     "service.parse",
    "service.engine", "service.render", "service.wire",
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
printResult(bool correct, long long attempted, long long failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name, m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w =
        args.workload == "service" ? makeServiceWorkload(args.seed)
                                   : makeEvalWorkload(args.workload,
                                                      args.seed);
    if (!w)
        usage(("unknown workload '" + args.workload + "'").c_str());

    // Rounds until the next one would overrun --seconds; at least
    // three, so every unit time is a fastest-of-3 or better.
    constexpr int minRounds = 3;
    constexpr int maxRounds = 200;
    std::unique_ptr<TraceSink> trace;
    if (args.trace)
        trace = std::make_unique<TraceSink>();
    SpanLog *log = trace ? &trace->log : nullptr;

    FastestOf times;
    std::vector<double> setupMs, probeMs, roundS;
    const auto start = Clock::now();
    int rounds = 0;
    for (;;) {
        const auto r0 = Clock::now();
        const std::size_t firstSpan = log ? log->size() : 0;
        w->setUp(log);
        setupMs.push_back(msBetween(r0, Clock::now()));
        if (rounds == 0)
            times = FastestOf(w->units());
        probeMs.push_back(hostProbeMs());
        w->runRound(rounds, times, trace.get());
        w->tearDown();
        if (trace)
            trace->foldRound(firstSpan, w->units());
        ++rounds;
        const auto now = Clock::now();
        const double elapsed = msBetween(start, now) / 1000.0;
        const double last = msBetween(r0, now) / 1000.0;
        roundS.push_back(last);
        if (rounds >= maxRounds ||
            (rounds >= minRounds && elapsed + last > args.seconds))
            break;
    }
    w->finalChecks();
    if (trace)
        w->finishTrace(times, *trace);

    const std::size_t units = times.size();
    double superblocks = 0.0;
    for (std::size_t u = 0; u < units; ++u)
        superblocks += w->superblocksIn(u);
    const balance::SampleStat unitMs = times.samples();
    const TailStat tail = tailPercentile(unitMs);
    const double unitSumMs = times.sum();
    const Quality &q = w->quality;
    const bool correct = w->failed == 0 && w->attempted > 0;

    std::printf("perfbench %s seed %llu: %d rounds in %.1f s, %zu units "
                "(%.0f superblocks) per round\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                rounds, msBetween(start, Clock::now()) / 1000.0, units,
                superblocks);
    std::printf("  lat_tail_ms is p%g over %zu units (%d beyond); host "
                "probe %.3f-%.3f ms; %d of %d bounded units certified\n",
                tail.percentile, units, tail.beyond,
                *std::min_element(probeMs.begin(), probeMs.end()),
                *std::max_element(probeMs.begin(), probeMs.end()),
                q.certified, q.bounded);
    std::printf("  round wall times (s):");
    for (double s : roundS)
        std::printf(" %.2f", s);
    std::printf("\n");
    if (!correct)
        std::printf("  FAILED %lld of %lld: %s\n", w->failed, w->attempted,
                    w->firstFailure.c_str());

    std::vector<Metric> metrics;
    if (!trace) {
        metrics = {
            {"setup_s", "s",
             *std::min_element(setupMs.begin(), setupMs.end()) / 1000.0},
            {"sb_per_s", "1/s", ratio(superblocks, unitSumMs / 1000.0)},
            {"lat_p50_ms", "ms", unitMs.median()},
            {"lat_tail_ms", "ms", tail.value},
            {"peak_rss_mb", "MiB", peakRssMb()},
            {"ok_frac", "frac",
             ratio(double(w->attempted - w->failed), double(w->attempted))},
            {"balance_slowdown", "x", ratio(q.fBalance, q.fBound)},
            {"bound_tightness", "frac", ratio(q.fBound, q.fBest)},
            {"cert_frac", "frac", ratio(q.certified, q.bounded)},
        };
    } else {
        auto layer = [&](const char *name) {
            auto it = trace->layers.find(name);
            return it == trace->layers.end() ? 0.0 : it->second.sum();
        };
        auto count = [&](const char *name) {
            auto it = trace->counts.find(name);
            return it == trace->counts.end() ? 0.0 : double(it->second);
        };
        double covered = trace->other.sum();
        for (const char *l : unitLayers)
            covered += layer(l);
        metrics = {
            {"bounds.tw_ms", "ms", layer("bounds.tw")},
            {"bounds.tw_trips", "count", count("bounds.tw_trips")},
            {"bounds.tw_fellback", "count", count("bounds.tw_fellback")},
            {"bounds.tw_fellback_frac", "frac",
             ratio(count("bounds.tw_fellback"), double(units))},
            {"bounds.cp_hu_rj_ms", "ms", layer("bounds.cp_hu_rj")},
            {"bounds.lc_ms", "ms", layer("bounds.lc")},
            {"bounds.laterc_ms", "ms", layer("bounds.laterc")},
            {"bounds.pw_ms", "ms", layer("bounds.pw")},
            {"bounds.pw_trips", "count", count("bounds.pw_trips")},
            {"core.balance_ms", "ms", layer("core.balance")},
            {"core.help_ms", "ms", layer("core.help")},
            {"core.balance_full_updates", "count",
             count("core.balance_full_updates")},
            {"sched.list_ms", "ms", layer("sched.list")},
            {"sched.best_ms", "ms", layer("sched.best")},
            {"sched.best_grid_runs", "count", count("sched.best_grid_runs")},
            {"sched.best_grid_skipped", "count",
             count("sched.best_grid_skipped")},
            {"sched.best_grid_skipped_frac", "frac",
             ratio(count("sched.best_grid_skipped"),
                   count("sched.best_grid_runs") +
                       count("sched.best_grid_skipped"))},
            {"sched.bnb_ms", "ms", layer("sched.bnb")},
            {"sched.bnb_nodes", "count", count("sched.bnb_nodes")},
            {"sched.bnb_nodes_per_s", "1/s",
             ratio(count("sched.bnb_nodes"), layer("sched.bnb") / 1000.0)},
            {"service.parse_ms", "ms", layer("service.parse")},
            {"service.engine_ms", "ms", layer("service.engine")},
            {"service.render_ms", "ms", layer("service.render")},
            {"service.wire_ms", "ms", layer("service.wire")},
            {"service.cache_hits", "count", count("service.cache_hits")},
            {"service.cache_misses", "count", count("service.cache_misses")},
            {"service.cache_hit_frac", "frac",
             ratio(count("service.cache_hits"),
                   count("service.cache_hits") +
                       count("service.cache_misses"))},
            {"graph.context_ms", "ms", layer("graph.context")},
            {"workload.generate_ms", "ms", layer("workload.generate")},
            {"workload.parse_ms", "ms", layer("workload.parse")},
            {"eval.other_ms", "ms", trace->other.sum()},
            {"trace.overhead_frac", "frac", ratio(covered, unitSumMs) - 1.0},
            {"host.probe_ms", "ms",
             *std::min_element(probeMs.begin(), probeMs.end())},
        };
    }
    printResult(correct, w->attempted, w->failed, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
