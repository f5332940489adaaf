#include "report/capture.hh"

#include <array>
#include <chrono>
#include <memory>

#include "bounds/bound_scratch.hh"
#include "eval/experiment.hh"
#include "sched/decision_log.hh"
#include "support/diagnostics.hh"
#include "support/flight_recorder.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/metrics_timeline.hh"
#include "support/parallel_for.hh"
#include "support/perf_counters.hh"
#include "support/progress.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"

namespace balance
{

namespace
{

/** One branch's detail in the row dump. */
struct BranchRow
{
    int idx = 0;
    double weight = 0.0;
    int depHeight = 0; //!< EarlyDC at the branch (dependence floor)
    int rjEarly = 0;   //!< per-branch Rim & Jain bound
    int lcEarly = 0;   //!< per-branch EarlyRC
    int issue = -1;    //!< Balance's achieved issue cycle
    int latency = 1;
};

/** Everything captured for one (superblock, machine) pair. */
struct SbCapture
{
    WctBounds bounds;
    double tightest = 0.0;
    std::vector<double> wct; //!< per heuristic, set.names() order
    /** Table 2 trips: cp, hu, rj, lc, lc_reverse, pw, tw. */
    std::array<long long, 7> trips{};
    SchedulerStats bal;
    SchedEngineStats sched; //!< table cache + grid dedup accounting
    long long schedArenaHighWater = 0;
    std::string decisionLines; //!< Balance decision log, JSON lines
    std::vector<BranchRow> branches;
    /** B&B certificate; present when the certifier ran. */
    std::shared_ptr<BnbResult> bnb;
};

/** Row/metric key order for the trip counters. */
constexpr const char *tripKeys[7] = {"cp", "hu", "rj", "lc",
                                     "lc_reverse", "pw", "tw"};
constexpr const char *tripMetricNames[7] = {
    "bounds.trips.cp", "bounds.trips.hu",         "bounds.trips.rj",
    "bounds.trips.lc", "bounds.trips.lc_reverse", "bounds.trips.pw",
    "bounds.trips.tw"};

/**
 * Evaluate one superblock through the pipeline with every telemetry
 * receiver attached, keeping the raw integers (trip counters, Balance
 * stats, decision log, per-branch detail) for the row instead of
 * folding them into the global registry.
 */
SbCapture
captureSuperblock(const Superblock &sb, const MachineModel &machine,
                  const HeuristicSet &set, const CaptureOptions &opts)
{
    GraphContext ctx(sb);
    BoundScratch scratch(machine);
    SchedScratch schedScratch;
    BoundCounterSet counters;
    DecisionLog dlog(sb.name());
    SbCapture cap;

    EvalPlan plan;
    plan.bounds = opts.bounds;
    plan.lineup = set.primaries;
    plan.withBest = set.withBest;
    plan.certify = opts.withBnb;
    plan.bnbMaxNodes = opts.bnbMaxNodes;
    plan.bnbMaxOps = opts.bnbMaxOps;
    plan.counters = &counters;
    plan.balanceStats = &cap.bal;
    plan.decisionLog = &dlog;
    plan.scratch = &scratch;
    plan.schedScratch = &schedScratch;
    EvalOutcome r = evaluate(ctx, machine, plan);

    cap.bounds = r.bounds;
    cap.tightest = r.tightest;
    cap.wct = std::move(r.wct);
    cap.trips = {cpTrips(sb),       counters.hu.trips,
                 counters.rj.trips, counters.lc.trips,
                 counters.lcReverse.trips, counters.pw.trips,
                 counters.tw.trips};
    cap.bnb = std::move(r.bnb);
    cap.sched = schedScratch.stats;
    cap.schedArenaHighWater =
        (long long)(schedScratch.highWaterBytes());
    cap.decisionLines = dlog.toJsonLines();

    // Per-branch detail off the achieved (Balance) schedule.
    const Schedule *balance =
        r.balanceSlot >= 0 ? &r.schedules[std::size_t(r.balanceSlot)]
                           : nullptr;
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        BranchRow row;
        row.idx = bi;
        row.weight = sb.exitProb(b);
        row.depHeight = ctx.earlyDC()[std::size_t(b)];
        row.rjEarly = r.rjBranchEarly[std::size_t(bi)];
        row.lcEarly = r.lcBranchEarly[std::size_t(bi)];
        row.issue = balance ? balance->issueOf(b) : -1;
        row.latency = sb.op(b).latency;
        cap.branches.push_back(row);
    }
    return cap;
}

/** Serialize one row (one JSON line, newline-terminated). */
std::string
renderRow(const std::string &program, const Superblock &sb,
          const std::string &machine,
          const std::vector<std::string> &names, const SbCapture &cap)
{
    JsonWriter w;
    w.beginObject();
    w.key("program").value(program);
    w.key("superblock").value(sb.name());
    w.key("machine").value(machine);
    w.key("ops").value(sb.numOps());
    w.key("branches").value(sb.numBranches());
    w.key("frequency").value(sb.execFrequency());
    w.key("bounds").beginObject()
        .key("cp").value(cap.bounds.cp)
        .key("hu").value(cap.bounds.hu)
        .key("rj").value(cap.bounds.rj)
        .key("lc").value(cap.bounds.lc)
        .key("pw").value(cap.bounds.pw)
        .key("tw").value(cap.bounds.tw)
        .key("tightest").value(cap.tightest)
        .endObject();
    w.key("wct").beginObject();
    for (std::size_t h = 0; h < names.size(); ++h)
        w.key(names[h]).value(cap.wct[h]);
    w.endObject();
    w.key("trips").beginObject();
    for (int i = 0; i < 7; ++i)
        w.key(tripKeys[i]).value(cap.trips[std::size_t(i)]);
    w.endObject();
    w.key("balance").beginObject()
        .key("decisions").value(cap.bal.decisions)
        .key("loop_trips").value(cap.bal.loopTrips)
        .key("full_updates").value(cap.bal.fullUpdates)
        .key("light_updates").value(cap.bal.lightUpdates)
        .key("selection_passes").value(cap.bal.selectionPasses)
        .key("candidates").value(cap.bal.candidatesSum)
        .endObject();
    if (const BnbResult *bnb = cap.bnb.get()) {
        const BnbCounters &c = bnb->counters;
        w.key("bnb").beginObject()
            .key("wct").value(bnb->wct)
            .key("lower_bound").value(bnb->lowerBound)
            .key("proven").value(bnb->proven)
            .key("exhausted").value(bnb->exhausted)
            .key("nodes_expanded").value(c.nodesExpanded)
            .key("pruned_by_bound").value(c.prunedByBound)
            .key("pruned_by_dominance").value(c.prunedByDominance)
            .key("incumbent_updates").value(c.incumbentUpdates)
            .key("tasks_completed").value(c.tasksCompleted)
            .key("tasks_aborted").value(c.tasksAborted)
            .key("rounds").value(c.rounds)
            .endObject();
    }
    w.key("branch_detail").beginArray();
    for (const BranchRow &br : cap.branches) {
        w.beginObject()
            .key("idx").value(br.idx)
            .key("weight").value(br.weight)
            .key("dep_height").value(br.depHeight)
            .key("rj_early").value(br.rjEarly)
            .key("lc_early").value(br.lcEarly)
            .key("issue").value(br.issue)
            .key("latency").value(br.latency)
            .endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

/** Fold one row's integers into the local registry. */
void
foldRow(MetricRegistry &reg, const SbCapture &cap)
{
    reg.counter("report.superblocks").add(1);
    for (int i = 0; i < 7; ++i)
        reg.counter(tripMetricNames[i]).add(cap.trips[std::size_t(i)]);
    foldBalanceStats(reg, cap.bal);
    foldSchedEngineStats(reg, cap.sched, cap.schedArenaHighWater);
    if (cap.bnb)
        foldBnb(reg, *cap.bnb);
}

} // namespace

CaptureResult
captureRun(const CaptureOptions &opts)
{
    bsAssert(!opts.outDir.empty(), "captureRun: outDir is required");
    TraceSpan span("captureRun");

    std::vector<MachineModel> machines = opts.machines;
    if (machines.empty())
        machines.push_back(MachineModel::gp4());
    HeuristicSet set = HeuristicSet::paperSet(opts.withBest);

    std::vector<BenchmarkProgram> suite = buildSuite(opts.suite);
    std::vector<SuiteSlot> flat = flattenSuite(suite);

    RunManifest man;
    man.bench = "report_tool";
    man.seed = opts.suite.seed;
    man.scale = opts.suite.scale;
    man.threads = opts.threads;
    man.withBest = opts.withBest;
    man.withBnb = opts.withBnb;
    man.heuristics = set.names();
    man.metricsPath = "metrics.json";
    man.superblocksPath = "superblocks.jsonl";

    // Hardware counters observe the run but never steer it: the
    // profiler accumulates per thread and is snapshotted serially
    // after the reduction, so every other artifact is byte-for-byte
    // what a counter-free run writes.
    if (opts.hwCounters) {
        PerfProfiler::global().enable();
        PerfProfiler::global().reset();
    }

    // The local registry: folded serially below, never global().
    MetricRegistry reg;
    std::string rows;
    std::string error;

    // The metrics timeline samples the *local* registry — the one
    // whose snapshot becomes metrics.json — so the time-series and
    // the final snapshot describe the same run.
    std::unique_ptr<MetricsTimeline> timeline;
    if (opts.metricsIntervalMs > 0) {
        man.metricsTimelinePath = "metrics.timeline.jsonl";
        timeline = std::make_unique<MetricsTimeline>(
            reg, opts.outDir + "/" + man.metricsTimelinePath,
            opts.metricsIntervalMs);
    }
    // Bind the live diagnostics address (if a server is up) to the
    // run it observed.
    man.debugServerAddress = debugServerAddress();

    FlightScope flight("capture", (long long)(flat.size()));
    ProgressTracker &tracker = ProgressTracker::global();

    for (const MachineModel &machine : machines) {
        man.machines.push_back(machine.name());
        auto t0 = std::chrono::steady_clock::now();

        // One /progress phase per machine sweep; registration only
        // happens with the tracker on (one relaxed load otherwise).
        PhaseProgress *progress =
            tracker.enabled()
                ? &tracker.phase("capture:" + machine.name())
                : nullptr;
        if (progress)
            progress->start((long long)(flat.size()));

        // Parallel phase into pre-sized slots; captureSuperblock is
        // a pure function of its arguments.
        std::vector<SbCapture> slots(flat.size());
        parallelFor(
            flat.size(),
            [&](std::size_t i) {
                slots[i] = captureSuperblock(*flat[i].sb, machine, set,
                                             opts);
                if (progress)
                    progress->tick();
            },
            opts.threads);
        if (progress)
            progress->finish();

        // Serial suite-order reduction: rows, decision lines, and
        // the registry fold all walk the same slots in the same
        // order, so snapshot counters equal row sums bit for bit.
        std::string decisionLines;
        for (std::size_t i = 0; i < flat.size(); ++i) {
            const SbCapture &cap = slots[i];
            rows += renderRow(flat[i].program->name, *flat[i].sb,
                              machine.name(), man.heuristics, cap);
            decisionLines += cap.decisionLines;
            foldRow(reg, cap);
        }

        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        man.wall.push_back({machine.name(), ms});

        std::string logName = "decisions." + machine.name() + ".jsonl";
        bsAssert(writeTextFile(opts.outDir + "/" + logName,
                               decisionLines, &error),
                 "captureRun: ", error);
        man.decisionLogs.push_back({machine.name(), logName});
    }

    if (opts.hwCounters) {
        PerfProfiler &profiler = PerfProfiler::global();
        profiler.disable();
        std::string doc = profiler.snapshot().toJson();
        bsAssert(jsonLooksValid(doc),
                 "captureRun: hw-counter snapshot is invalid JSON");
        man.hwCountersPath = "hwcounters.json";
        bsAssert(writeTextFile(opts.outDir + "/" + man.hwCountersPath,
                               doc + "\n", &error),
                 "captureRun: ", error);
    }

    // Stop the sampler before the final snapshot: its last record is
    // written with all workers quiesced, so it equals metrics.json.
    if (timeline)
        timeline->stop();

    bsAssert(writeTextFile(opts.outDir + "/" + man.metricsPath,
                           reg.snapshotJson(), &error),
             "captureRun: ", error);
    bsAssert(writeTextFile(opts.outDir + "/" + man.superblocksPath,
                           rows, &error),
             "captureRun: ", error);

    CaptureResult result;
    result.manifestPath = opts.outDir + "/manifest.json";
    bsAssert(writeTextFile(result.manifestPath, man.toJson(), &error),
             "captureRun: ", error);
    result.manifest = std::move(man);
    return result;
}

} // namespace balance
