/**
 * @file
 * Retained naive implementations of the superblock schedulers exactly
 * as they were written before the allocation-free scheduler engine
 * landed: the cycle-driven greedy list scheduler (fresh vectors and a
 * full std::sort per cycle), the CP/SR/DHASY priority keys recomputed
 * from scratch on every call, G* with per-round subset scheduling,
 * and the Best envelope running all 121 combo-grid points with no
 * deduplication.
 *
 * The optimized engine in sched/list_scheduler, sched/priorities, and
 * sched/best_scheduler must stay *bitwise identical* to this code:
 * the golden-equivalence test (tests/sched/sched_engine_golden_test)
 * compares the two across a seeded workload population. Keep this
 * file dumb and frozen — performance work belongs in the main path
 * only.
 */

#ifndef BALANCE_SCHED_REFERENCE_REFERENCE_HH
#define BALANCE_SCHED_REFERENCE_REFERENCE_HH

#include <vector>

#include "graph/analysis.hh"
#include "machine/machine_model.hh"
#include "sched/list_scheduler.hh"
#include "sched/schedule.hh"
#include "support/bitset.hh"

namespace balance
{

namespace sched_reference
{

/** Naive greedy list scheduling (fresh vectors, sort per cycle). */
Schedule listSchedule(const Superblock &sb, const MachineModel &machine,
                      const std::vector<double> &priority,
                      SchedulerStats *stats = nullptr);

/** Naive subset variant; -1 outside the subset. */
std::vector<int> listScheduleSubset(const Superblock &sb,
                                    const MachineModel &machine,
                                    const DynBitset &subset,
                                    const std::vector<double> &priority,
                                    SchedulerStats *stats = nullptr);

/** Naive Critical Path key (recomputed from scratch). */
std::vector<double> criticalPathKey(const GraphContext &ctx);

/** Naive Successive Retirement key. */
std::vector<double> successiveRetirementKey(const GraphContext &ctx);

/** Naive DHASY key for explicit per-branch @p weights. */
std::vector<double> dhasyKey(const GraphContext &ctx,
                             const std::vector<double> &weights);

/** Naive key normalization (divide by max magnitude). */
std::vector<double> normalizeKey(std::vector<double> key);

/** Naive a*cp + b*sr + c*dhasy mix. */
std::vector<double> combineKeys(const std::vector<double> &cp, double a,
                                const std::vector<double> &sr, double b,
                                const std::vector<double> &dhasy,
                                double c);

/** Naive G* with Critical Path as the secondary heuristic. */
Schedule gstarSchedule(const GraphContext &ctx,
                       const MachineModel &machine,
                       const std::vector<double> &weights,
                       SchedulerStats *stats = nullptr);

/**
 * Naive Best envelope: the SR, CP, G*, DHASY primaries in that order
 * followed by the full 11x11 combo grid, keeping the first schedule
 * that attains the minimum weighted completion time (strict <, so
 * ties keep the earlier run). @p weights steer DHASY, G*, and the
 * grid; the envelope always selects by the true exit probabilities.
 */
Schedule bestSchedule(const GraphContext &ctx,
                      const MachineModel &machine,
                      const std::vector<double> &weights,
                      SchedulerStats *stats = nullptr);

} // namespace sched_reference

} // namespace balance

#endif // BALANCE_SCHED_REFERENCE_REFERENCE_HH
