#include "eval/bounds_eval.hh"

#include <algorithm>
#include <array>

#include "eval/pipeline.hh"
#include "graph/analysis.hh"
#include "support/diagnostics.hh"
#include "support/metrics.hh"
#include "support/parallel_for.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"

namespace balance
{

std::vector<BoundQuality>
evaluateBoundQuality(const std::vector<BenchmarkProgram> &suite,
                     const MachineModel &machine,
                     const BoundConfig &config, int threads)
{
    TraceSpan span("evaluateBoundQuality",
                   (long long)(suite.size()));
    const char *names[6] = {"CP", "Hu", "RJ", "LC", "PW", "TW"};

    // Parallel phase: one WctBounds slot per superblock, filled in
    // any order by the pool; computeWctBounds is pure.
    std::vector<SuiteSlot> flat = flattenSuite(suite);
    std::vector<WctBounds> slots(flat.size());
    parallelFor(
        flat.size(),
        [&](std::size_t i) {
            GraphContext ctx(*flat[i].sb);
            slots[i] = computeWctBounds(ctx, machine, config);
        },
        threads);

    // Serial reduction in suite order: stats accumulate in the same
    // sequence as a single-threaded run, so the output is
    // byte-stable for any thread count.
    std::vector<RunningStat> gap(6);
    std::vector<int> below(6, 0);
    int total = 0;
    for (const WctBounds &bounds : slots) {
        double tight = bounds.tightest();
        double values[6] = {bounds.cp, bounds.hu, bounds.rj,
                            bounds.lc, bounds.pw, bounds.tw};
        ++total;
        for (int i = 0; i < 6; ++i) {
            double g = tight > 0.0
                ? (tight - values[i]) / tight * 100.0
                : 0.0;
            gap[std::size_t(i)].add(std::max(0.0, g));
            if (values[i] < tight - 1e-9)
                ++below[std::size_t(i)];
        }
    }

    std::vector<BoundQuality> out;
    for (int i = 0; i < 6; ++i) {
        BoundQuality q;
        q.name = names[i];
        q.avgGapPercent = gap[std::size_t(i)].mean();
        q.maxGapPercent = gap[std::size_t(i)].max();
        q.belowPercent =
            total > 0 ? 100.0 * below[std::size_t(i)] / total : 0.0;
        out.push_back(q);
    }
    return out;
}

std::vector<BoundCost>
evaluateBoundCost(const std::vector<BenchmarkProgram> &suite,
                  const MachineModel &machine, const BoundConfig &config,
                  int threads)
{
    TraceSpan span("evaluateBoundCost", (long long)(suite.size()));
    const char *names[8] = {"CP",          "Hu", "RJ", "LC",
                            "LC-original", "LC-reverse", "PW", "TW"};

    std::vector<SuiteSlot> flat = flattenSuite(suite);
    std::vector<std::array<long long, 8>> slots(flat.size());
    parallelFor(
        flat.size(),
        [&](std::size_t idx) {
            const Superblock &sb = *flat[idx].sb;
            GraphContext ctx(sb);
            EvalPlan plan;
            plan.bounds = config;
            BoundCounterSet c;
            plan.counters = &c;
            evaluate(ctx, machine, plan);

            // LC-original: the LC rung again with Theorem 1 off; only
            // its trips are kept.
            EvalPlan original;
            original.bounds = config;
            original.bounds.lc.useTheorem1 = false;
            original.bounds.computePairwise = false;
            BoundCounterSet o;
            original.counters = &o;
            evaluate(ctx, machine, original);

            slots[idx] = {cpTrips(sb), c.hu.trips, c.rj.trips,
                          c.lc.trips,  o.lc.trips, c.lcReverse.trips,
                          c.pw.trips,  c.tw.trips};
        },
        threads);

    std::vector<SampleStat> trips(8);
    for (const std::array<long long, 8> &row : slots)
        for (int i = 0; i < 8; ++i)
            trips[std::size_t(i)].add(double(row[std::size_t(i)]));

    if (metricsCollectionEnabled()) {
        // Serial, suite-order fold; totals equal the BoundCounters
        // sums bit for bit (pinned by the telemetry integration
        // test).
        static const char *metricNames[8] = {
            "bounds.trips.cp",          "bounds.trips.hu",
            "bounds.trips.rj",          "bounds.trips.lc",
            "bounds.trips.lc_original", "bounds.trips.lc_reverse",
            "bounds.trips.pw",          "bounds.trips.tw"};
        MetricRegistry &reg = MetricRegistry::global();
        for (const std::array<long long, 8> &row : slots)
            for (int i = 0; i < 8; ++i)
                reg.counter(metricNames[i]).add(row[std::size_t(i)]);
    }

    std::vector<BoundCost> out;
    for (int i = 0; i < 8; ++i) {
        BoundCost c;
        c.name = names[i];
        c.averageTrips = trips[std::size_t(i)].mean();
        c.medianTrips = trips[std::size_t(i)].median();
        out.push_back(c);
    }
    return out;
}

} // namespace balance
