/**
 * @file
 * google-benchmark microbenchmarks for the hot kernels: the Rim &
 * Jain relaxation, the Langevin & Cerny bound (with and without
 * Theorem 1), LateRC, the pairwise bound, the generic list
 * scheduler, and the Help/Balance engines. These back the empirical
 * complexity discussion around Tables 2 and 6 with wall-clock data.
 *
 * Besides the console output, every run writes a BENCH_micro.json
 * artifact (--out overrides the path) with per-benchmark ns/op so
 * the kernel-level trajectory is trackable across commits like the
 * other BENCH_ files. On machines with perf_event access the SIMD
 * kernel benches also attach hardware-counter columns (cycles/op,
 * IPC, branch/cache miss rates) via PerfSampler
 * (docs/OBSERVABILITY.md); without it the wall-clock columns stand
 * alone (BALANCE_PERF=fallback forces that).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bounds/bound_scratch.hh"
#include "bounds/reference.hh"
#include "bounds/superblock_bounds.hh"
#include "core/balance_scheduler.hh"
#include "eval/pipeline.hh"
#include "sched/priorities.hh"
#include "support/json.hh"
#include "support/perf_counters.hh"
#include "support/simd_kernels.hh"
#include "workload/generator.hh"

using namespace balance;

namespace
{

/** The bench's one counter group (benchmarks run single-threaded). */
PerfSampler &
benchSampler()
{
    static PerfSampler *s = new PerfSampler();
    return *s;
}

/**
 * RAII hardware-counter columns for one benchmark run: construct
 * immediately before the `for (auto _ : state)` loop (in its own
 * scope), and the destructor divides the covered interval's counter
 * deltas across the iterations into state.counters. No columns are
 * attached at the fallback tier — absent columns read honestly as
 * "not measured", where zeros would read as impossibly good.
 */
class KernelCounters
{
  public:
    explicit KernelCounters(benchmark::State &state) : st(state)
    {
        start = benchSampler().now();
    }

    ~KernelCounters()
    {
        PerfCounterValues end = benchSampler().now();
        if (benchSampler().tier() != PerfTier::Hardware ||
            st.iterations() == 0)
            return;
        PerfCounterValues d = PerfCounterValues::delta(end, start);
        double iters = double(st.iterations());
        st.counters["cycles_per_op"] =
            benchmark::Counter(double(d.cycles) / iters);
        st.counters["instructions_per_op"] =
            benchmark::Counter(double(d.instructions) / iters);
        st.counters["ipc"] = benchmark::Counter(
            d.cycles ? double(d.instructions) / double(d.cycles) : 0.0);
        st.counters["branch_miss_rate"] = benchmark::Counter(
            d.branches ? double(d.branchMisses) / double(d.branches)
                       : 0.0);
        st.counters["cache_miss_rate"] = benchmark::Counter(
            d.cacheReferences
                ? double(d.cacheMisses) / double(d.cacheReferences)
                : 0.0);
    }

  private:
    benchmark::State &st;
    PerfCounterValues start;
};

/** One representative superblock of roughly the requested size. */
Superblock
sampleSuperblock(int targetOps)
{
    GeneratorParams params;
    params.blockGeoP = 0.35;
    params.opsPerBlockMu = 1.8;
    Rng rng(std::uint64_t(targetOps) * 77 + 5);
    // Draw until close enough; deterministic for a target.
    for (int i = 0; i < 200; ++i) {
        Rng child = rng.fork();
        Superblock sb = generateSuperblock(child, params, "bench");
        if (sb.numOps() >= targetOps / 2 &&
            sb.numOps() <= targetOps * 2) {
            return sb;
        }
    }
    Rng child = rng.fork();
    return generateSuperblock(child, params, "bench");
}

void
BM_RimJainBound(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    for (auto _ : state)
        benchmark::DoNotOptimize(rjEarly(ctx, m));
    state.SetLabel(std::to_string(sb.numOps()) + " ops");
}

void
BM_LangevinCerny(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    Dag dag = Dag::fromSuperblock(sb);
    MachineModel m = MachineModel::fs4();
    LcOptions opts;
    opts.useTheorem1 = state.range(1) != 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(lcEarlyRC(dag, m, opts));
    state.SetLabel(std::to_string(sb.numOps()) + " ops, theorem1=" +
                   std::to_string(state.range(1)));
}

void
BM_LateRC(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    auto earlyRC = lcEarlyRCForSuperblock(ctx, m);
    for (auto _ : state) {
        for (int bi = 0; bi < sb.numBranches(); ++bi)
            benchmark::DoNotOptimize(lateRCFor(ctx, m, bi, earlyRC));
    }
}

void
BM_PairwiseBounds(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    auto earlyRC = lcEarlyRCForSuperblock(ctx, m);
    std::vector<std::vector<int>> lateRCs;
    for (int bi = 0; bi < sb.numBranches(); ++bi)
        lateRCs.push_back(lateRCFor(ctx, m, bi, earlyRC));
    for (auto _ : state) {
        PairwiseBounds pw(ctx, m, earlyRC, lateRCs);
        benchmark::DoNotOptimize(pw.superblockWct());
    }
}

// Before/after pair for the bound-engine overhaul: the frozen naive
// sweep (fresh vectors, full sort per step) against the scratch-arena
// engine on the same superblock. Same shape for the full WCT stack,
// which the triplewise enumeration dominates.
void
BM_PairwiseBoundsNaive(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    auto earlyRC = lcEarlyRCForSuperblock(ctx, m);
    std::vector<std::vector<int>> lateRCs;
    for (int bi = 0; bi < sb.numBranches(); ++bi)
        lateRCs.push_back(lateRCFor(ctx, m, bi, earlyRC));
    for (auto _ : state) {
        auto pw = reference::pairwiseBounds(ctx, m, earlyRC, lateRCs);
        benchmark::DoNotOptimize(pw.wct);
    }
}

void
BM_PairwiseBoundsEngine(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    auto earlyRC = lcEarlyRCForSuperblock(ctx, m);
    std::vector<std::vector<int>> lateRCs;
    for (int bi = 0; bi < sb.numBranches(); ++bi)
        lateRCs.push_back(lateRCFor(ctx, m, bi, earlyRC));
    BoundScratch scratch(m);
    for (auto _ : state) {
        PairwiseBounds pw(ctx, m, earlyRC, lateRCs, {}, nullptr,
                          &scratch);
        benchmark::DoNotOptimize(pw.superblockWct());
    }
}

void
BM_WctBoundsNaive(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            reference::computeWctBounds(ctx, m).tightest());
}

void
BM_WctBoundsEngine(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    BoundScratch scratch(m);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            computeWctBounds(ctx, m, {}, nullptr, &scratch)
                .tightest());
}

void
BM_ListScheduler(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    auto key = criticalPathKey(ctx);
    for (auto _ : state)
        benchmark::DoNotOptimize(listSchedule(sb, m, key));
}

void
BM_HelpScheduler(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    HelpScheduler help;
    for (auto _ : state)
        benchmark::DoNotOptimize(help.run(ctx, m));
}

void
BM_BalanceScheduler(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    BalanceScheduler bal;
    BoundsToolkit toolkit(ctx, m, bal.config().bounds);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bal.runWithToolkit(ctx, m, toolkit));
}

void
BM_BalanceFullUpdate(benchmark::State &state)
{
    Superblock sb = sampleSuperblock(int(state.range(0)));
    GraphContext ctx(sb);
    MachineModel m = MachineModel::fs4();
    BalanceConfig cfg;
    cfg.useLightUpdate = false;
    BalanceScheduler bal(cfg, "Balance-full");
    BoundsToolkit toolkit(ctx, m, bal.config().bounds);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            bal.runWithToolkit(ctx, m, toolkit));
}

// ---------------------------------------------------------------
// Scalar-vs-SIMD parity pairs for the kernel dispatch table. Each
// pair runs the exact same synthetic SoA buffers through the scalar
// reference table and the runtime-dispatched table (AVX2/NEON when
// available), so `--benchmark_filter=Kernel` reads as before/after
// columns for the bound-sweep, relaxation, ready-set, and grid-blend
// inner loops. Arg 0 is the element count, arg 1 selects the table
// (0 = scalar reference, 1 = dispatched).

const SimdKernels &
kernelTable(bool dispatched)
{
    return dispatched ? simdKernels() : scalarSimdKernels();
}

/** Deterministic pseudo-random ints without <random> overhead. */
std::vector<int>
kernelInts(std::uint64_t seed, int n, int lo, int hi)
{
    std::vector<int> v(static_cast<std::size_t>(n));
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (int &e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = lo + int(x % std::uint64_t(hi - lo + 1));
    }
    return v;
}

std::vector<double>
kernelDoubles(std::uint64_t seed, int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::uint64_t x = seed * 0x2545f4914f6cdd1dull + 9;
    for (double &e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = double(x % 8000) / 1000.0 - 4.0;
    }
    return v;
}

void
BM_KernelPairCompose(benchmark::State &state)
{
    const int n = int(state.range(0));
    const SimdKernels &k = kernelTable(state.range(1) != 0);
    std::vector<int> hSink = kernelInts(1, n, 0, 40);
    std::vector<int> hi = kernelInts(2, n, -1, 40);
    std::vector<int> early = kernelInts(3, n, 0, 30);
    std::vector<int> relLate = kernelInts(4, n, -20, 50);
    std::vector<int> keys(static_cast<std::size_t>(n));
    {
        KernelCounters kc(state);
        for (auto _ : state) {
            ComposeResult r = k.pairCompose(
                hSink.data(), hi.data(), early.data(), relLate.data(),
                keys.data(), n, 2, 11);
            benchmark::DoNotOptimize(r);
            benchmark::DoNotOptimize(keys.data());
        }
    }
    state.SetLabel(k.name);
}

void
BM_KernelTripleCompose(benchmark::State &state)
{
    const int n = int(state.range(0));
    const SimdKernels &k = kernelTable(state.range(1) != 0);
    std::vector<int> hSink = kernelInts(5, n, 0, 40);
    std::vector<int> hi = kernelInts(6, n, -1, 40);
    std::vector<int> hj = kernelInts(7, n, -1, 40);
    std::vector<int> early = kernelInts(8, n, 0, 30);
    std::vector<int> relLate = kernelInts(9, n, -20, 50);
    std::vector<int> keys(static_cast<std::size_t>(n));
    {
        KernelCounters kc(state);
        for (auto _ : state) {
            ComposeResult r = k.tripleCompose(
                hSink.data(), hi.data(), hj.data(), early.data(),
                relLate.data(), keys.data(), n, 3, 1, 9);
            benchmark::DoNotOptimize(r);
            benchmark::DoNotOptimize(keys.data());
        }
    }
    state.SetLabel(k.name);
}

void
BM_KernelEpochScan(benchmark::State &state)
{
    // RJ relaxation probe: all cycles full up to the landing slot,
    // the worst case the skip-walk fallback used to pay for.
    const int n = int(state.range(0));
    const SimdKernels &k = kernelTable(state.range(1) != 0);
    const std::uint32_t epoch = 7;
    std::vector<std::uint32_t> stamp(static_cast<std::size_t>(n),
                                     epoch);
    std::vector<int> fill(static_cast<std::size_t>(n), 2);
    fill.back() = 0; // free slot at the very end
    {
        KernelCounters kc(state);
        for (auto _ : state)
            benchmark::DoNotOptimize(k.epochScanFirstFree(
                stamp.data(), fill.data(), epoch, 2, n));
    }
    state.SetLabel(k.name);
}

void
BM_KernelMaskLE(benchmark::State &state)
{
    // Ready-bitset promotion scan over the pending readyAt lane.
    const int n = int(state.range(0));
    const SimdKernels &k = kernelTable(state.range(1) != 0);
    std::vector<int> readyAt = kernelInts(10, n, 0, 200);
    std::vector<std::uint64_t> words(std::size_t(n) / 64 + 1);
    {
        KernelCounters kc(state);
        for (auto _ : state) {
            k.maskLE(readyAt.data(), 100, words.data(), n);
            benchmark::DoNotOptimize(words.data());
        }
    }
    state.SetLabel(k.name);
}

void
BM_KernelBlendMapKeys(benchmark::State &state)
{
    // Best's 121-point grid: blend three priority lanes and map the
    // result to descending u64 sort keys in one pass.
    const int n = int(state.range(0));
    const SimdKernels &k = kernelTable(state.range(1) != 0);
    std::vector<double> cp = kernelDoubles(11, n);
    std::vector<double> sr = kernelDoubles(12, n);
    std::vector<double> dh = kernelDoubles(13, n);
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
    {
        KernelCounters kc(state);
        for (auto _ : state) {
            k.blendMapKeysDesc(0.3, cp.data(), 0.2, sr.data(), 0.5,
                               dh.data(), keys.data(), n);
            benchmark::DoNotOptimize(keys.data());
        }
    }
    state.SetLabel(k.name);
}

BENCHMARK(BM_RimJainBound)->Arg(25)->Arg(100)->Arg(300);
BENCHMARK(BM_LangevinCerny)
    ->Args({25, 1})
    ->Args({25, 0})
    ->Args({100, 1})
    ->Args({100, 0})
    ->Args({300, 1});
BENCHMARK(BM_LateRC)->Arg(25)->Arg(100);
BENCHMARK(BM_PairwiseBounds)->Arg(25)->Arg(100);
BENCHMARK(BM_PairwiseBoundsNaive)->Arg(25)->Arg(100);
BENCHMARK(BM_PairwiseBoundsEngine)->Arg(25)->Arg(100);
BENCHMARK(BM_WctBoundsNaive)->Arg(25)->Arg(100);
BENCHMARK(BM_WctBoundsEngine)->Arg(25)->Arg(100);
BENCHMARK(BM_ListScheduler)->Arg(25)->Arg(100)->Arg(300);
BENCHMARK(BM_HelpScheduler)->Arg(25)->Arg(100);
BENCHMARK(BM_BalanceScheduler)->Arg(25)->Arg(100);
BENCHMARK(BM_BalanceFullUpdate)->Arg(25)->Arg(100);
BENCHMARK(BM_KernelPairCompose)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});
BENCHMARK(BM_KernelTripleCompose)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});
BENCHMARK(BM_KernelEpochScan)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});
BENCHMARK(BM_KernelMaskLE)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});
BENCHMARK(BM_KernelBlendMapKeys)
    ->Args({121, 0})
    ->Args({121, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

/** One captured benchmark row destined for BENCH_micro.json. */
struct MicroRow {
    std::string name;
    long long iterations = 0;
    double nsPerOp = 0.0;
    std::string label;
    std::vector<std::pair<std::string, double>> counters;
};

/**
 * Console reporter that additionally records every iteration run so
 * main() can serialize the artifact after RunSpecifiedBenchmarks.
 * Aggregate rows (mean/stddev under --benchmark_repetitions) are
 * skipped: the artifact tracks the plain per-benchmark timings.
 */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.error_occurred ||
                r.run_type != Run::RT_Iteration)
                continue;
            MicroRow row;
            row.name = r.benchmark_name();
            row.iterations = (long long)(r.iterations);
            row.nsPerOp =
                r.iterations
                    ? r.real_accumulated_time /
                          double(r.iterations) * 1e9
                    : 0.0;
            row.label = r.report_label;
            for (const auto &[cname, c] : r.counters)
                row.counters.emplace_back(cname, double(c.value));
            rows.push_back(std::move(row));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<MicroRow> rows;
};

void
writeMicroArtifact(const std::string &path,
                   const std::vector<MicroRow> &rows)
{
    JsonWriter w;
    w.beginObject();
    w.key("bench").value("micro_kernels");
    w.key("tier").value(perfTierName(benchSampler().tier()));
    w.key("kernels").beginArray();
    for (const MicroRow &row : rows) {
        w.beginObject();
        w.key("name").value(row.name);
        w.key("iterations").value(row.iterations);
        w.key("ns_per_op").value(row.nsPerOp);
        if (!row.label.empty())
            w.key("label").value(row.label);
        w.key("counters").beginObject();
        for (const auto &[cname, v] : row.counters)
            w.key(cname).value(v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::string doc = w.str();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "micro_kernels: cannot open %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "%s\n", doc.c_str());
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our own --out flag before google-benchmark sees the
    // argument vector; everything else flows through untouched.
    std::string outPath = "BENCH_micro.json";
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            outPath = argv[i] + 6;
        } else {
            args.push_back(argv[i]);
        }
    }
    int filteredArgc = int(args.size());
    benchmark::Initialize(&filteredArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filteredArgc,
                                               args.data()))
        return 1;
    JsonCaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    writeMicroArtifact(outPath, reporter.rows);
    return 0;
}
