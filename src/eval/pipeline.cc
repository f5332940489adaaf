#include "eval/pipeline.hh"

#include <algorithm>
#include <optional>

#include "bounds/bound_scratch.hh"
#include "core/balance_scheduler.hh"
#include "support/diagnostics.hh"
#include "support/metrics.hh"

namespace balance
{

namespace
{

/** @return @p s as a Balance that runs on the toolkit, else null. */
const BalanceScheduler *
onToolkit(const Scheduler &s)
{
    auto *bal = dynamic_cast<const BalanceScheduler *>(&s);
    return bal && bal->config().useRcBounds ? bal : nullptr;
}

} // namespace

EvalOutcome
evaluate(const GraphContext &ctx, const MachineModel &machine,
         const EvalPlan &plan)
{
    const Superblock &sb = ctx.sb();
    BoundCounterSet *counters = plan.counters;
    EvalOutcome out;

    // The plan, fixed up front: the toolkit (LC -> LateRC -> PW) runs
    // only for the ladder, an RC-mode Balance or the certifier.
    const bool certify = plan.certify && sb.numOps() <= plan.bnbMaxOps &&
                         (plan.withBest || !plan.lineup.empty());
    const bool needToolkit =
        plan.ladder || certify ||
        std::any_of(plan.lineup.begin(), plan.lineup.end(),
                    [](const auto &s) { return onToolkit(*s) != nullptr; });

    std::optional<BoundScratch> ownScratch;
    BoundScratch *scratch = plan.scratch;
    std::optional<BoundsToolkit> toolkit;
    if (needToolkit) {
        if (!scratch)
            scratch = &ownScratch.emplace(machine);
        toolkit.emplace(ctx, machine, plan.bounds, counters, scratch);
    }

    if (plan.ladder) {
        WctBounds &b = out.bounds;
        b.cp = wctFromBranchEarly(sb, cpEarly(ctx));
        b.hu = wctFromBranchEarly(
            sb, huEarly(ctx, machine, counters ? &counters->hu : nullptr));
        out.rjBranchEarly =
            rjEarly(ctx, machine, counters ? &counters->rj : nullptr);
        b.rj = wctFromBranchEarly(sb, out.rjBranchEarly);
        for (OpId br : sb.branches())
            out.lcBranchEarly.push_back(toolkit->earlyRC()[std::size_t(br)]);
        b.lc = wctFromBranchEarly(sb, out.lcBranchEarly);
        // PW is never below the naive LC aggregation: every pair
        // value is clamped to the EarlyRC floor. A disabled rung
        // repeats the one below it.
        b.pw = b.tw = b.lc;
        if (const PairwiseBounds *pw = toolkit->pairwise()) {
            b.pw = b.tw = pw->superblockWct();
            if (plan.bounds.computeTriplewise) {
                b.tw = computeTriplewise(
                           ctx, machine, toolkit->earlyRC(),
                           toolkit->lateRCAll(), *pw,
                           plan.bounds.triplewise,
                           counters ? &counters->tw : nullptr, scratch)
                           .wct;
            }
        }
        out.tightest = b.tightest();
    }

    // The lineup, sharing one SchedScratch (priority tables computed
    // once, reused by every heuristic and the grid).
    ScheduleRequest req;
    req.scratch = plan.schedScratch;
    req.branchWeights = plan.branchWeights;
    out.schedules.reserve(plan.lineup.size());
    out.wct.reserve(plan.lineup.size() + 1);
    for (std::size_t i = 0; i < plan.lineup.size(); ++i) {
        const Scheduler &sched = *plan.lineup[i];
        const BalanceScheduler *bal = onToolkit(sched);
        ScheduleRequest r = req;
        r.stats = bal ? plan.balanceStats : plan.listStats;
        Schedule s;
        if (bal) {
            r.decisionLog = plan.decisionLog;
            s = bal->runWithToolkit(ctx, machine, *toolkit, r);
            out.balanceSlot = int(i);
        } else {
            s = sched.run(ctx, machine, r);
        }
        s.validate(sb, machine);
        double w = s.wct(sb);
        out.wct.push_back(w);
        out.best.offer(s, w);
        out.schedules.push_back(std::move(s));
    }

    // Best selects by the true probabilities even under steering;
    // the grid runs without stats attached.
    if (plan.withBest) {
        if (out.best.offerGrid(ctx, machine, req))
            out.best.schedule().validate(sb, machine);
        out.wct.push_back(out.best.wct());
    }

    // A heuristic can never beat a valid lower bound; this is the
    // strongest end-to-end cross-check in the library, so keep it
    // always on.
    for (double w : out.wct) {
        bsAssert(w >= out.tightest - 1e-6,
                 "schedule beats the lower bound on '", sb.name(),
                 "': wct ", w, " < bound ", out.tightest);
    }

    // The certifier starts from the envelope's winner, so its
    // incumbent can never be worse than any schedule produced above.
    if (certify) {
        BnbOptions bnbOpts;
        bnbOpts.maxNodes = plan.bnbMaxNodes;
        bnbOpts.threads = plan.bnbThreads;
        bnbOpts.seedWithBest = false;
        BnbRequest bnbReq;
        bnbReq.toolkit = &*toolkit;
        bnbReq.seedSchedule = &out.best.schedule();
        bnbReq.staticLowerBound = out.tightest;
        BnbResult r = bnbSchedule(ctx, machine, bnbOpts, bnbReq);
        r.schedule.validate(sb, machine);
        bsAssert(r.wct <= out.best.wct() + 1e-9 &&
                     r.lowerBound >= out.tightest - 1e-9,
                 "bnb certificate out of range on '", sb.name(), "'");
        out.bnb = std::make_shared<BnbResult>(std::move(r));
    }
    return out;
}

WctBounds
computeWctBounds(const GraphContext &ctx, const MachineModel &machine,
                 const BoundConfig &config, BoundCounterSet *counters,
                 BoundScratch *scratch)
{
    EvalPlan plan;
    plan.bounds = config;
    plan.counters = counters;
    plan.scratch = scratch;
    return evaluate(ctx, machine, plan).bounds;
}

void
foldBalanceStats(MetricRegistry &reg, const SchedulerStats &bal)
{
    reg.counter("sched.balance.decisions").add(bal.decisions);
    reg.counter("sched.balance.loop_trips").add(bal.loopTrips);
    reg.counter("sched.balance.full_updates").add(bal.fullUpdates);
    reg.counter("sched.balance.light_updates").add(bal.lightUpdates);
    reg.counter("sched.balance.selection_passes")
        .add(bal.selectionPasses);
    reg.counter("sched.balance.candidates").add(bal.candidatesSum);
    reg.histogram("sched.balance.decisions_per_superblock")
        .observe(bal.decisions);
}

void
foldSchedEngineStats(MetricRegistry &reg, const SchedEngineStats &stats,
                     long long arenaHighWater)
{
    reg.counter("sched.priority_tables.hits").add(stats.tableHits);
    reg.counter("sched.priority_tables.misses").add(stats.tableMisses);
    reg.counter("sched.best.grid_runs").add(stats.gridRuns);
    reg.counter("sched.best.grid_skipped").add(stats.gridSkipped);
    reg.gauge("sched.scratch.high_water_bytes").observeMax(arenaHighWater);
}

void
foldBnb(MetricRegistry &reg, const BnbResult &bnb)
{
    reg.counter("bnb.instances").add(1);
    if (bnb.proven)
        reg.counter("bnb.proven").add(1);
    reg.counter("bnb.nodes_expanded").add(bnb.counters.nodesExpanded);
    reg.counter("bnb.pruned_by_bound").add(bnb.counters.prunedByBound);
    reg.counter("bnb.pruned_by_dominance")
        .add(bnb.counters.prunedByDominance);
    reg.counter("bnb.incumbent_updates")
        .add(bnb.counters.incumbentUpdates);
    reg.counter("bnb.tasks_completed").add(bnb.counters.tasksCompleted);
    reg.counter("bnb.tasks_aborted").add(bnb.counters.tasksAborted);
    reg.counter("bnb.rounds").add(bnb.counters.rounds);
}

} // namespace balance
