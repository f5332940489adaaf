#include "eval/experiment.hh"

#include <string_view>

#include "sched/decision_log.hh"
#include "support/diagnostics.hh"
#include "support/flight_recorder.hh"
#include "support/metrics.hh"
#include "support/parallel_for.hh"
#include "support/progress.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"

namespace balance
{

const std::vector<SchedulerEntry> &
schedulerTable()
{
    static const std::vector<SchedulerEntry> table = [] {
        std::vector<SchedulerEntry> t = {
            {"sr", "SR",
             std::make_shared<SuccessiveRetirementScheduler>()},
            {"cp", "CP", std::make_shared<CriticalPathScheduler>()},
            {"gstar", "G*", std::make_shared<GStarScheduler>()},
            {"dhasy", "DHASY", std::make_shared<DhasyScheduler>()},
            {"help", "Help", std::make_shared<HelpScheduler>()},
            {"balance", "Balance", std::make_shared<BalanceScheduler>()},
        };
        std::vector<std::shared_ptr<const Scheduler>> primaries;
        for (const SchedulerEntry &e : t)
            primaries.push_back(e.scheduler);
        t.push_back({"best", "Best",
                     std::make_shared<BestScheduler>(primaries)});
        return t;
    }();
    return table;
}

const SchedulerEntry *
schedulerByKey(const std::string &key)
{
    for (const SchedulerEntry &e : schedulerTable())
        if (key == e.key)
            return &e;
    return nullptr;
}

HeuristicSet
HeuristicSet::paperSet(bool withBest)
{
    HeuristicSet set;
    for (const SchedulerEntry &e : schedulerTable())
        if (std::string_view(e.key) != "best")
            set.primaries.push_back(e.scheduler);
    set.withBest = withBest;
    return set;
}

std::vector<std::string>
HeuristicSet::names() const
{
    std::vector<std::string> out;
    for (const auto &s : primaries)
        out.push_back(s->name());
    if (withBest)
        out.push_back("Best");
    return out;
}

std::vector<double>
noProfileWeights(const Superblock &sb)
{
    // Table 5: the last branch weighs 1000, all others weigh 1.
    std::vector<double> w(std::size_t(sb.numBranches()), 1.0);
    w.back() = 1000.0;
    return w;
}

SuperblockEval
evaluateSuperblock(const Superblock &sb, const MachineModel &machine,
                   const HeuristicSet &set, const EvalOptions &opts)
{
    TraceSpan span("evaluateSuperblock",
                   (long long)(sb.numOps()));
    FlightScope flight("eval:superblock", (long long)(sb.numOps()));
    FlightRecorder::global().record(FlightEventType::Superblock, "eval",
                                    (long long)(sb.numOps()),
                                    (long long)(sb.numBranches()));
    GraphContext ctx(sb);

    // Telemetry rides in a worker-private scratch + stats structs so
    // the hot paths never touch shared state; everything is folded
    // into the registry by the caller's serial reduction. One
    // scheduler scratch per evaluation keeps its counters
    // per-superblock, so that fold is thread-invariant.
    const bool wantTelemetry =
        metricsCollectionEnabled() || decisionLogEnabled();
    BoundScratch scratch(machine);
    SchedScratch schedScratch;
    SchedulerStats balStats;
    SchedulerStats listStats;
    DecisionLog dlog(sb.name());

    EvalPlan plan;
    plan.bounds = opts.bounds;
    plan.lineup = set.primaries;
    plan.withBest = set.withBest;
    if (opts.noProfileSteering)
        plan.branchWeights = noProfileWeights(sb);
    // The certifier keeps the plan's single thread: this function
    // already runs on a pool worker (evaluatePopulation parallelizes
    // over superblocks); the engine is deterministic either way.
    plan.certify = opts.computeBnb;
    plan.bnbMaxNodes = opts.bnbMaxNodes;
    plan.bnbMaxOps = opts.bnbMaxOps;
    plan.scratch = &scratch;
    plan.schedScratch = &schedScratch;
    if (wantTelemetry) {
        plan.balanceStats = &balStats;
        plan.listStats = &listStats;
    }
    if (decisionLogEnabled())
        plan.decisionLog = &dlog;
    EvalOutcome r = evaluate(ctx, machine, plan);

    SuperblockEval eval;
    eval.bounds = r.bounds;
    eval.tightest = r.tightest;
    eval.wct = std::move(r.wct);
    eval.frequency = sb.execFrequency();
    eval.bnb = std::move(r.bnb);
    if (wantTelemetry) {
        auto tel = std::make_shared<SuperblockTelemetry>();
        tel->balance = balStats;
        tel->list = listStats;
        tel->engine = scratch.stats;
        tel->sched = schedScratch.stats;
        tel->relaxResets = scratch.table.resetCount();
        tel->arenaHighWater = (long long)(scratch.arena.highWaterBytes());
        tel->schedArenaHighWater =
            (long long)(schedScratch.highWaterBytes());
        if (decisionLogEnabled()) {
            tel->decisionLog = decisionLogIsJson() ? dlog.toJsonLines()
                                                   : dlog.toText();
        }
        eval.telemetry = std::move(tel);
    }
    return eval;
}

PopulationMetrics
evaluatePopulation(const std::vector<BenchmarkProgram> &suite,
                   const MachineModel &machine, const HeuristicSet &set,
                   const EvalOptions &opts,
                   const std::function<void(const Superblock &,
                                            const SuperblockEval &)>
                       &perSuperblock,
                   int threads)
{
    TraceSpan span("evaluatePopulation",
                   (long long)(suite.size()));
    PopulationMetrics metrics;
    metrics.heuristics = set.names();
    std::size_t numHeuristics = metrics.heuristics.size();

    // Flatten in suite order: the parallel phase fills one slot per
    // superblock, the serial reduction below walks the slots in this
    // exact order so every float accumulation happens in the same
    // sequence as a serial run.
    std::vector<SuiteSlot> flat = flattenSuite(suite);

    // Live progress for /progress: registered only when the tracker
    // is on, so a server-off run pays one relaxed load right here and
    // a null check per superblock.
    ProgressTracker &tracker = ProgressTracker::global();
    PhaseProgress *progress =
        tracker.enabled() ? &tracker.phase("eval") : nullptr;
    if (progress)
        progress->start((long long)(flat.size()));
    FlightScope flight("eval", (long long)(flat.size()));

    std::vector<SuperblockEval> evals(flat.size());
    parallelFor(
        flat.size(),
        [&](std::size_t i) {
            evals[i] = evaluateSuperblock(*flat[i].sb, machine, set, opts);
            if (progress)
                progress->tick();
        },
        threads);
    if (progress)
        progress->finish();

    double trivialCycles = 0.0;
    std::vector<double> heuristicCyclesNontrivial(numHeuristics, 0.0);
    double boundCyclesNontrivial = 0.0;
    std::vector<int> optimalNontrivial(numHeuristics, 0);
    std::vector<int> optimalAll(numHeuristics, 0);
    int nontrivialCount = 0;

    // Serial telemetry fold: suite order, integral sums, max-gauges —
    // so the registry contents are thread-invariant too.
    MetricRegistry &reg = MetricRegistry::global();
    const bool foldMetrics = metricsCollectionEnabled();

    for (std::size_t slot = 0; slot < flat.size(); ++slot) {
        const Superblock &sb = *flat[slot].sb;
        const SuperblockEval &eval = evals[slot];
        if (perSuperblock)
            perSuperblock(sb, eval);

        if (const SuperblockTelemetry *tel = eval.telemetry.get()) {
            if (foldMetrics) {
                foldBalanceStats(reg, tel->balance);

                const SchedulerStats &list = tel->list;
                reg.counter("sched.list.decisions").add(list.decisions);
                reg.counter("sched.list.loop_trips")
                    .add(list.loopTrips);
                reg.counter("sched.list.cycles").add(list.cycles);
                reg.counter("sched.list.ready_sum").add(list.readySum);

                reg.counter("bounds.pair_skeleton.hits")
                    .add(tel->engine.pairSkeletonHits);
                reg.counter("bounds.pair_skeleton.misses")
                    .add(tel->engine.pairSkeletonMisses);
                reg.counter("bounds.triple_skeleton.hits")
                    .add(tel->engine.tripleSkeletonHits);
                reg.counter("bounds.triple_skeleton.misses")
                    .add(tel->engine.tripleSkeletonMisses);
                reg.counter("bounds.relax.epoch_resets")
                    .add(tel->relaxResets);
                reg.gauge("bounds.scratch.high_water_bytes")
                    .observeMax(tel->arenaHighWater);

                foldSchedEngineStats(reg, tel->sched,
                                     tel->schedArenaHighWater);
            }
            if (!tel->decisionLog.empty())
                appendDecisionLog(tel->decisionLog);
        }

        if (eval.bnb && foldMetrics)
            foldBnb(reg, *eval.bnb);

        ++metrics.superblocks;
        double lbCycles = eval.frequency * eval.tightest;
        metrics.boundCycles += lbCycles;

        bool trivial = true;
        for (std::size_t h = 0; h < numHeuristics; ++h) {
            bool optimal = eval.wct[h] <= eval.tightest + 1e-9;
            if (optimal)
                ++optimalAll[h];
            // Best does not participate in the trivial test: the
            // paper defines trivial over the heuristics compared.
            if (metrics.heuristics[h] != "Best" && !optimal)
                trivial = false;
        }

        if (trivial) {
            ++metrics.trivialSuperblocks;
            trivialCycles += lbCycles;
        } else {
            ++nontrivialCount;
            boundCyclesNontrivial += lbCycles;
            for (std::size_t h = 0; h < numHeuristics; ++h) {
                heuristicCyclesNontrivial[h] +=
                    eval.frequency * eval.wct[h];
                if (eval.wct[h] <= eval.tightest + 1e-9)
                    ++optimalNontrivial[h];
            }
        }
    }

    metrics.trivialCycleFraction =
        metrics.boundCycles > 0.0 ? trivialCycles / metrics.boundCycles
                                  : 0.0;
    for (std::size_t h = 0; h < numHeuristics; ++h) {
        double slowdown = boundCyclesNontrivial > 0.0
            ? (heuristicCyclesNontrivial[h] - boundCyclesNontrivial) /
                  boundCyclesNontrivial
            : 0.0;
        metrics.nontrivialSlowdown.push_back(slowdown);
        metrics.optimalNontrivialFraction.push_back(
            nontrivialCount > 0
                ? double(optimalNontrivial[h]) / nontrivialCount
                : 1.0);
        metrics.optimalFraction.push_back(
            metrics.superblocks > 0
                ? double(optimalAll[h]) / metrics.superblocks
                : 1.0);
    }
    return metrics;
}

} // namespace balance
