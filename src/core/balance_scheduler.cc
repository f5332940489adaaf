#include "core/balance_scheduler.hh"

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <span>

#include "core/branch_select.hh"
#include "core/op_pick.hh"
#include "core/sched_state.hh"
#include "sched/decision_log.hh"
#include "sched/sched_scratch.hh"
#include "support/diagnostics.hh"
#include "support/perf_counters.hh"

namespace balance
{

namespace
{

/** Map the selection outcome onto the decision-log wire enum. */
DecisionOutcome
logOutcome(BranchOutcome o)
{
    switch (o) {
      case BranchOutcome::Selected:
        return DecisionOutcome::Selected;
      case BranchOutcome::Delayed:
        return DecisionOutcome::Delayed;
      case BranchOutcome::DelayedOk:
        return DecisionOutcome::DelayedOk;
      case BranchOutcome::Ignored:
        return DecisionOutcome::Ignored;
    }
    return DecisionOutcome::Ignored;
}

/**
 * Engine working set parked inside the caller's SchedScratch between
 * runs: the scheduling state, the per-branch dynamics objects, and
 * the DC-mode static late buffers all keep their allocations across
 * superblocks and machines (each run rebinds them in O(1) extra
 * memory). The per-decision buffers (branch needs, the selection's
 * working set, the candidate lists) are cleared each decision, not
 * rebuilt, so a decision allocates nothing once they have grown.
 */
struct EngineScratch final : SchedScratchExtension
{
    std::optional<SchedState> state;
    std::vector<std::unique_ptr<BranchDynamics>> dyn;
    std::vector<std::vector<int>> dcLate;
    /** Needs of the unretired branches, reused slot by slot; a
     *  decision uses as many leading slots as it has such branches. */
    std::vector<BranchNeeds> needs;
    SelectionScratch select;
    std::vector<OpId> selected;   //!< the selection's candidate ops
    std::vector<OpId> candidates; //!< what the pick chooses among
};

/** The shared Balance/Help engine for one run. */
class Engine
{
  public:
    Engine(const GraphContext &ctx, const MachineModel &machine,
           const BalanceConfig &cfg, const BoundsToolkit *toolkit,
           const ScheduleRequest &req)
        : ctx(ctx), sb(ctx.sb()), cfg(cfg),
          weights(steeringWeights(sb, req)), stats(req.stats),
          log(req.decisionLog)
    {
        // Park the engine working set in the caller's SchedScratch so
        // repeated runs (the evaluation sweeps) stop reallocating it;
        // without a scratch, the engine owns one for this run.
        es = &ownScratch;
        if (req.scratch) {
            es = dynamic_cast<EngineScratch *>(
                req.scratch->coreExt.get());
            if (!es) {
                auto fresh = std::make_unique<EngineScratch>();
                es = fresh.get();
                req.scratch->coreExt = std::move(fresh);
            }
        }
        if (es->state)
            es->state->rebind(sb, machine);
        else
            es->state.emplace(sb, machine);
        state = &*es->state;

        staticLate.reserve(std::size_t(sb.numBranches()));
        if (cfg.useRcBounds) {
            bsAssert(toolkit, "RC mode requires a bounds toolkit");
            staticEarly = &toolkit->earlyRC();
            for (int bi = 0; bi < sb.numBranches(); ++bi)
                staticLate.push_back(&toolkit->lateRC(bi));
            if (cfg.useTradeoff)
                pairwise = toolkit->pairwise();
        } else {
            staticEarly = &ctx.earlyDC();
            std::vector<std::vector<int>> &dcLate = es->dcLate;
            dcLate.resize(std::size_t(sb.numBranches()));
            for (int bi = 0; bi < sb.numBranches(); ++bi) {
                OpId b = sb.branches()[std::size_t(bi)];
                dcLate[std::size_t(bi)] = computeLateDC(
                    sb, b, ctx.earlyDC()[std::size_t(b)]);
                staticLate.push_back(&dcLate[std::size_t(bi)]);
            }
        }

        std::vector<std::unique_ptr<BranchDynamics>> &pool = es->dyn;
        if (int(pool.size()) > sb.numBranches())
            pool.resize(std::size_t(sb.numBranches()));
        for (int bi = 0; bi < sb.numBranches(); ++bi) {
            if (std::size_t(bi) < pool.size()) {
                pool[std::size_t(bi)]->rebind(
                    ctx, machine, bi, *staticEarly,
                    *staticLate[std::size_t(bi)]);
            } else {
                pool.push_back(std::make_unique<BranchDynamics>(
                    ctx, machine, bi, *staticEarly,
                    *staticLate[std::size_t(bi)]));
            }
        }
        dyn = &pool;
    }

    Schedule
    run()
    {
        fullUpdateAll();
        while (!state->done()) {
            if (!state->anyIssuableNow()) {
                const std::vector<int> &lost = state->advanceCycle();
                if (cfg.updatePerOp) {
                    refreshOnCycleAdvance(lost);
                } else {
                    // Once-per-cycle mode (Table 7): this is the one
                    // refresh point, so it is always a full one.
                    fullUpdateAll();
                }
                continue;
            }

            DecisionStep *step =
                log ? &log->beginStep(state->cycle()) : nullptr;
            const std::vector<OpId> &candidates = chooseCandidates(step);
            OpId pick = pickBestOp(*state, *dyn, weights, candidates,
                                   {cfg.useHlpDel}, stats);
            if (cfg.trace) {
                std::cerr << "cycle " << state->cycle() << ": pick "
                          << pick << " from {";
                for (OpId v : candidates)
                    std::cerr << " " << v;
                std::cerr << " }  dynEarly:";
                for (auto &d : *dyn) {
                    if (!d->retired())
                        std::cerr << " b" << d->branchOp() << "="
                                  << d->dynEarly();
                }
                std::cerr << "\n";
            }
            if (step) {
                step->pick = pick;
                step->candidates = candidates;
            }
            state->scheduleNow(pick);
            if (stats) {
                ++stats->decisions;
                stats->candidatesSum += (long long)(candidates.size());
            }
            if (cfg.updatePerOp) {
                long long f0 = fullUpd;
                long long l0 = lightUpd;
                refreshOnOp(pick);
                if (step) {
                    step->fullUpdates = fullUpd - f0;
                    step->lightUpdates = lightUpd - l0;
                }
            }
        }
        return state->toSchedule();
    }

  private:
    void
    fullUpdateAll()
    {
        for (auto &d : *dyn) {
            d->fullUpdate(*state, stats);
            ++fullUpd;
        }
        if (stats)
            stats->fullUpdates += (long long)(dyn->size());
    }

    void
    refreshOnOp(OpId lastOp)
    {
        for (auto &d : *dyn) {
            if (!cfg.useLightUpdate ||
                !d->lightUpdateOnOp(*state, lastOp, stats)) {
                d->fullUpdate(*state, stats);
                ++fullUpd;
                if (stats)
                    ++stats->fullUpdates;
            } else {
                ++lightUpd;
                if (stats)
                    ++stats->lightUpdates;
            }
        }
    }

    void
    refreshOnCycleAdvance(const std::vector<int> &lost)
    {
        for (auto &d : *dyn) {
            if (!cfg.useLightUpdate ||
                !d->lightUpdateOnCycleAdvance(*state, lost, stats)) {
                d->fullUpdate(*state, stats);
                ++fullUpd;
                if (stats)
                    ++stats->fullUpdates;
            } else {
                ++lightUpd;
                if (stats)
                    ++stats->lightUpdates;
            }
        }
    }

    /** All operations issuable in the current cycle. */
    const std::vector<OpId> &
    issuableOps()
    {
        state->issuableNow(es->candidates);
        return es->candidates;
    }

    const std::vector<OpId> &
    chooseCandidates(DecisionStep *step)
    {
        if (!cfg.useSelection)
            return issuableOps();

        // Gather each unretired branch's needs for this decision into
        // the reused slots.
        const std::size_t pools =
            std::size_t(state->machine().numResources());
        std::size_t count = 0;
        for (int bi = 0; bi < sb.numBranches(); ++bi) {
            BranchDynamics &d = *(*dyn)[std::size_t(bi)];
            if (d.retired())
                continue;
            if (count == es->needs.size())
                es->needs.emplace_back();
            BranchNeeds &n = es->needs[count++];
            n.branchIdx = bi;
            n.weight = weights[std::size_t(bi)];
            n.dynEarly = d.dynEarly();
            d.needEach(*state, n.needEach);
            n.needOne.resize(pools);
            for (std::size_t r = 0; r < pools; ++r)
                d.needOne(*state, ResourceId(r), n.needOne[r]);
        }
        if (count == 0)
            return issuableOps();
        std::span<const BranchNeeds> needs(es->needs.data(), count);

        TradeoffInputs tradeoff;
        if (cfg.useTradeoff && pairwise) {
            tradeoff.pairwise = pairwise;
            tradeoff.earlyRC = staticEarly;
            tradeoff.sb = &sb;
        }
        SelectionDebug dbg;
        const SelectionResult &sel = selectCompatibleBranches(
            *state, needs, tradeoff, es->select, stats,
            step ? &dbg : nullptr);
        if (step)
            recordSelection(*step, needs, sel, dbg);

        if (sel.unconstrained())
            return issuableOps();
        sel.candidateOps(es->selected);
        std::vector<OpId> &cands = es->candidates;
        cands.clear();
        for (OpId v : es->selected) {
            if (state->canIssueNow(v))
                cands.push_back(v);
        }
        if (cands.empty())
            return issuableOps();
        return cands;
    }

    /** Copy one selection's view into the decision log step. */
    static void
    recordSelection(DecisionStep &step, std::span<const BranchNeeds> needs,
                    const SelectionResult &sel,
                    const SelectionDebug &dbg)
    {
        step.rank = sel.rank;
        step.reorders = dbg.reorders;
        step.branches.reserve(needs.size());
        for (std::size_t i = 0; i < needs.size(); ++i) {
            DecisionBranch b;
            b.branchIdx = needs[i].branchIdx;
            b.weight = needs[i].weight;
            b.dynEarly = needs[i].dynEarly;
            b.needEach = int(needs[i].needEach.size());
            for (const auto &group : needs[i].needOne)
                b.needOne += int(group.size());
            b.outcome = logOutcome(sel.outcome[i]);
            step.branches.push_back(b);
        }
        step.tradeoffs.reserve(dbg.notes.size());
        for (const SelectionDebug::Note &n : dbg.notes) {
            step.tradeoffs.push_back({n.delayedBranch, n.againstBranch,
                                      n.pairBound, n.staticEarly,
                                      n.dynEarly});
        }
    }

    const GraphContext &ctx;
    const Superblock &sb;
    BalanceConfig cfg;
    std::vector<double> weights;
    SchedulerStats *stats;
    DecisionLog *log;
    /** ERC update tallies (mirrored into stats when present). */
    long long fullUpd = 0;
    long long lightUpd = 0;

    const std::vector<int> *staticEarly = nullptr;
    /** Per-branch static late times; the vectors live in the bounds
     *  toolkit (RC mode) or the dcLate buffer (DC mode). */
    std::vector<const std::vector<int> *> staticLate;
    const PairwiseBounds *pairwise = nullptr;

    /** The working set: the request's SchedScratch extension when
     *  one is present, else ownScratch. state and dyn point into it. */
    EngineScratch ownScratch;
    EngineScratch *es = nullptr;
    SchedState *state = nullptr;
    std::vector<std::unique_ptr<BranchDynamics>> *dyn = nullptr;
};

} // namespace

BalanceScheduler::BalanceScheduler(BalanceConfig config,
                                   std::string displayName)
    : cfg(std::move(config)), displayName(std::move(displayName))
{
    // The tradeoff pass consumes pairwise bounds, which only exist
    // in RC mode; make sure the toolkit computes them.
    cfg.bounds.computePairwise = cfg.useRcBounds && cfg.useTradeoff;
}

Schedule
BalanceScheduler::run(const GraphContext &ctx, const MachineModel &machine,
                      const ScheduleRequest &req) const
{
    if (!cfg.useRcBounds) {
        PerfRegion perf(PerfPhase::Balance);
        Engine engine(ctx, machine, cfg, nullptr, req);
        return engine.run();
    }
    BoundsToolkit toolkit(ctx, machine, cfg.bounds);
    return runWithToolkit(ctx, machine, toolkit, req);
}

Schedule
BalanceScheduler::runWithToolkit(const GraphContext &ctx,
                                 const MachineModel &machine,
                                 const BoundsToolkit &toolkit,
                                 const ScheduleRequest &req) const
{
    bsAssert(cfg.useRcBounds,
             "runWithToolkit only applies to RC-bound configurations");
    PerfRegion perf(PerfPhase::Balance);
    BalanceConfig effective = cfg;
    if (cfg.useTradeoff && !toolkit.pairwise()) {
        // The caller's toolkit skipped pairwise bounds; degrade
        // gracefully to the no-tradeoff configuration.
        effective.useTradeoff = false;
    }
    Engine engine(ctx, machine, effective, &toolkit, req);
    return engine.run();
}

HelpScheduler::HelpScheduler()
    : engine(
          [] {
              BalanceConfig cfg;
              cfg.useRcBounds = false;
              cfg.useHlpDel = false;
              cfg.useTradeoff = false;
              cfg.useSelection = false;
              return cfg;
          }(),
          "Help")
{
}

Schedule
HelpScheduler::run(const GraphContext &ctx, const MachineModel &machine,
                   const ScheduleRequest &req) const
{
    return engine.run(ctx, machine, req);
}

} // namespace balance
