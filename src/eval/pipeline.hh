/**
 * @file
 * The one per-(superblock, machine) evaluation procedure: the bound
 * ladder (CP, Hu, RJ, then LC -> LateRC -> PW in one BoundsToolkit,
 * then TW) on one BoundScratch, a heuristic lineup with Balance on
 * that toolkit, the Best envelope over the lineup and the combo grid,
 * and the B&B certifier seeded with the envelope's winner.
 *
 * evaluateSuperblock, report capture, the service engine,
 * computeWctBounds and evaluateBoundCost are adapters: each builds an
 * EvalPlan from the options it already takes. The plan is fixed up
 * front — the toolkit is built only when the ladder, an RC-mode
 * Balance or the certifier needs it — and nothing is filled lazily:
 * the certifier's pool tasks read the toolkit concurrently, and
 * GraphContext's lazy caches are unsynchronized.
 */

#ifndef BALANCE_EVAL_PIPELINE_HH
#define BALANCE_EVAL_PIPELINE_HH

#include <memory>
#include <span>
#include <vector>

#include "bounds/superblock_bounds.hh"
#include "sched/best_scheduler.hh"
#include "sched/bnb/bnb.hh"
#include "sched/sched_scratch.hh"

namespace balance
{

class MetricRegistry;
struct BoundScratch;

/** What evaluate() runs; every field comes from an adapter option. */
struct EvalPlan
{
    BoundConfig bounds; //!< also configures the shared toolkit
    bool ladder = true; //!< compute CP..TW (tightest() floors B&B)
    /** Heuristics, run in order; RC-mode Balance uses the toolkit. */
    std::span<const std::shared_ptr<const Scheduler>> lineup;
    bool withBest = false; //!< add the combo grid to the envelope
    /** Steering weights (ScheduleRequest::branchWeights). */
    std::vector<double> branchWeights;
    bool certify = false;           //!< run B&B on the envelope's winner
    long long bnbMaxNodes = 200000; //!< certifier node budget
    int bnbMaxOps = 100;            //!< larger superblocks skip B&B
    int bnbThreads = 1;             //!< 0 = hardware, 1 = serial

    /** Telemetry receivers: optional, observation only. */
    BoundCounterSet *counters = nullptr;   //!< per-rung loop trips
    SchedulerStats *balanceStats = nullptr; //!< toolkit Balance runs
    SchedulerStats *listStats = nullptr;    //!< every other lineup run
    DecisionLog *decisionLog = nullptr;     //!< toolkit Balance steps
    /** Working storage lent by the caller (null = private). */
    BoundScratch *scratch = nullptr;
    SchedScratch *schedScratch = nullptr;
};

/** What evaluate() produced. */
struct EvalOutcome
{
    WctBounds bounds; //!< zero when the ladder is off
    double tightest = 0.0;
    /** Per-branch RJ and LC (EarlyRC) issue bounds, branch order. */
    std::vector<int> rjBranchEarly;
    std::vector<int> lcBranchEarly;
    std::vector<Schedule> schedules; //!< validated, lineup order
    /** WCT per lineup entry, then the envelope's when withBest. */
    std::vector<double> wct;
    int balanceSlot = -1; //!< lineup index run on the toolkit, or -1
    BestEnvelope best;    //!< winner over the lineup (and grid)
    /**
     * The certifier's result, when it ran. Its incumbent is never
     * worse than the envelope's winner, which seeds the search, and
     * `proven` upgrades the instance's gap attribution from "vs.
     * bound" to "vs. optimum".
     */
    std::shared_ptr<BnbResult> bnb;
};

/**
 * Run @p plan on one superblock. Every schedule is validated against
 * @p machine, none may beat the ladder, and a certificate must satisfy
 * tightest <= lowerBound and wct <= the envelope's WCT.
 */
EvalOutcome evaluate(const GraphContext &ctx, const MachineModel &machine,
                     const EvalPlan &plan);

/**
 * All six WCT lower bounds for one superblock: evaluate() with the
 * ladder alone (@p counters and @p scratch as in EvalPlan).
 */
WctBounds computeWctBounds(const GraphContext &ctx,
                           const MachineModel &machine,
                           const BoundConfig &config = {},
                           BoundCounterSet *counters = nullptr,
                           BoundScratch *scratch = nullptr);

/**
 * Registry folds shared by the eval and report reductions; each
 * registers its keys in a fixed order, so snapshots keep their key
 * sets and order.
 */
void foldBalanceStats(MetricRegistry &reg, const SchedulerStats &bal);
void foldSchedEngineStats(MetricRegistry &reg,
                          const SchedEngineStats &stats,
                          long long arenaHighWater);
void foldBnb(MetricRegistry &reg, const BnbResult &bnb);

} // namespace balance

#endif // BALANCE_EVAL_PIPELINE_HH
