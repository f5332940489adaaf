/**
 * @file
 * Shared experiment drivers for the benchmark harnesses: evaluate
 * every heuristic and every bound on a superblock population and
 * aggregate the paper's metrics (dynamic cycle counts, trivial
 * superblock split, slowdowns, optimal fractions, CDF curves).
 *
 * evaluateSuperblock turns EvalOptions into a plan for the one
 * evaluation pipeline (eval/pipeline.hh) that report capture and the
 * service also run. The scheduler table names every scheduler.
 */

#ifndef BALANCE_EVAL_EXPERIMENT_HH
#define BALANCE_EVAL_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bounds/bound_scratch.hh"
#include "core/balance_scheduler.hh"
#include "eval/pipeline.hh"
#include "sched/list_scheduler.hh"
#include "workload/suite.hh"

namespace balance
{

/** A named scheduler; instances are const and shared by all threads. */
struct SchedulerEntry
{
    const char *key;  //!< service key ("balance")
    const char *name; //!< display name ("Balance")
    std::shared_ptr<const Scheduler> scheduler;
};

/** @return the paper's lineup in its order, then Best over it. */
const std::vector<SchedulerEntry> &schedulerTable();

/** @return the entry with service key @p key, or null. */
const SchedulerEntry *schedulerByKey(const std::string &key);

/** The paper's heuristic lineup (Section 6.2). */
struct HeuristicSet
{
    /** SR, CP, G*, DHASY, Help, Balance — in the paper's order. */
    std::vector<std::shared_ptr<const Scheduler>> primaries;
    /** Include the Best envelope (primaries + 121 combos). */
    bool withBest = true;

    /** @return the standard lineup (schedulerTable() minus Best). */
    static HeuristicSet paperSet(bool withBest = true);

    /** @return display names, Best last when enabled. */
    std::vector<std::string> names() const;
};

/** Options for evaluating one superblock. */
struct EvalOptions
{
    BoundConfig bounds;
    /**
     * Steer probability-driven heuristics with the no-profile
     * weights of Table 5 (last branch 1000, others 1) instead of
     * the true probabilities. The objective and Best's selection
     * always use the true probabilities.
     */
    bool noProfileSteering = false;
    /**
     * Also run the branch-and-bound certifier on each superblock
     * (size-capped by @ref bnbMaxOps), seeded with the Best
     * envelope's winner (the best primary when Best is off). Off by
     * default: the certifier costs orders of magnitude more than
     * every heuristic combined.
     */
    bool computeBnb = false;
    /** Node budget per superblock for the certifier. */
    long long bnbMaxNodes = 200000;
    /** Superblocks above this op count skip the certifier. */
    int bnbMaxOps = 100;
};

/**
 * Telemetry captured while evaluating one superblock. Collected in
 * the parallel phase into this plain per-slot struct and folded into
 * the global MetricRegistry only during the serial suite-order
 * reduction, so metric values — like every other result — are
 * bitwise identical for any thread count. Absent (null) when
 * telemetry is off; collecting it never changes schedules or bounds.
 */
struct SuperblockTelemetry
{
    /** Balance engine accounting (decisions, updates, selection). */
    SchedulerStats balance;
    /** The other heuristics' list-scheduler accounting, combined. */
    SchedulerStats list;
    /** Sweep-skeleton cache hits and misses. */
    BoundEngineStats engine;
    /** Scheduler-engine accounting (table cache, grid dedup). */
    SchedEngineStats sched;
    /** RelaxTable epoch resets during this evaluation. */
    long long relaxResets = 0;
    /** ScratchArena high-water mark in bytes (bound scratch). */
    long long arenaHighWater = 0;
    /** SchedScratch run-arena high-water mark in bytes. */
    long long schedArenaHighWater = 0;
    /** Rendered Balance decision log (empty when capture is off). */
    std::string decisionLog;
};

/** Everything measured for one (superblock, machine) pair. */
struct SuperblockEval
{
    WctBounds bounds;
    double tightest = 0.0;
    /** WCT per heuristic, order matching HeuristicSet::names(). */
    std::vector<double> wct;
    double frequency = 1.0;
    /** Present exactly when telemetry collection is enabled. */
    std::shared_ptr<SuperblockTelemetry> telemetry;
    /** Present when the B&B certifier ran (EvalOutcome::bnb). */
    std::shared_ptr<BnbResult> bnb;
};

/** @return the Table 5 steering weights for @p sb. */
std::vector<double> noProfileWeights(const Superblock &sb);

/**
 * Evaluate bounds and every heuristic on one superblock. All
 * produced schedules are validated against the machine model.
 */
SuperblockEval evaluateSuperblock(const Superblock &sb,
                                  const MachineModel &machine,
                                  const HeuristicSet &set,
                                  const EvalOptions &opts = {});

/** Aggregated metrics over a population (one machine config). */
struct PopulationMetrics
{
    std::vector<std::string> heuristics;
    /** Dynamic lower-bound cycles over all superblocks. */
    double boundCycles = 0.0;
    /** Fraction of bound cycles spent in trivial superblocks. */
    double trivialCycleFraction = 0.0;
    int superblocks = 0;
    int trivialSuperblocks = 0;
    /** Slowdown vs bound over nontrivial superblocks, per heuristic. */
    std::vector<double> nontrivialSlowdown;
    /** Fraction of nontrivial superblocks scheduled at the bound. */
    std::vector<double> optimalNontrivialFraction;
    /** Fraction of ALL superblocks scheduled at the bound. */
    std::vector<double> optimalFraction;
};

/**
 * Run the full per-config evaluation over a suite.
 *
 * Superblocks are evaluated concurrently on the work-stealing pool
 * (evaluateSuperblock is a pure function of its arguments); each
 * result lands in a pre-sized slot and the aggregation — including
 * every @p perSuperblock callback — runs serially in suite order
 * afterwards. The returned metrics are therefore bitwise identical
 * for every @p threads value, including 1.
 *
 * @param suite Superblock population.
 * @param machine Machine configuration.
 * @param set Heuristic lineup.
 * @param opts Evaluation options.
 * @param perSuperblock Optional observer invoked with each
 *        superblock's evaluation (for CDF building). Called on the
 *        caller's thread, in suite order; it need not be
 *        thread-safe.
 * @param threads Worker count; 0 = hardware concurrency, 1 = serial.
 */
PopulationMetrics evaluatePopulation(
    const std::vector<BenchmarkProgram> &suite,
    const MachineModel &machine, const HeuristicSet &set,
    const EvalOptions &opts = {},
    const std::function<void(const Superblock &,
                             const SuperblockEval &)> &perSuperblock =
        nullptr,
    int threads = 0);

} // namespace balance

#endif // BALANCE_EVAL_EXPERIMENT_HH
