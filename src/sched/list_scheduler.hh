/**
 * @file
 * The generic cycle-driven list scheduler shared by the Critical
 * Path, Successive Retirement, DHASY, G*, and combo heuristics: a
 * static priority per operation, a ready set, and a greedy fill of
 * each cycle in priority order.
 *
 * The same core also schedules operation *subsets*, which G* needs
 * to rank branches by scheduling each branch's predecessor closure
 * in isolation.
 */

#ifndef BALANCE_SCHED_LIST_SCHEDULER_HH
#define BALANCE_SCHED_LIST_SCHEDULER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/analysis.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"
#include "support/bitset.hh"

namespace balance
{

class SchedScratch;

/**
 * Cost accounting for Table 6 plus observability extras. Only
 * `decisions` and `loopTrips` feed published numbers; the rest are
 * telemetry that the eval layer folds into the metric registry, and
 * schedulers may leave any of them zero.
 */
struct SchedulerStats
{
    long long decisions = 0; //!< operations placed
    long long loopTrips = 0; //!< inner-loop iterations
    long long cycles = 0;    //!< machine cycles stepped
    long long readySum = 0;  //!< ready-queue length summed per cycle
    long long fullUpdates = 0;  //!< full BranchDynamics rebuilds
    long long lightUpdates = 0; //!< incremental BranchDynamics updates
    long long selectionPasses = 0; //!< branch-selection passes
    long long candidatesSum = 0;   //!< candidate ops considered
};

/**
 * Greedy cycle-by-cycle list scheduling of all operations.
 *
 * In each cycle, ready operations (all predecessors issued and
 * latencies elapsed) are placed in decreasing priority order while a
 * unit of their class is free; ties break toward the lower operation
 * id (program order). The cycle then advances.
 *
 * @param sb The superblock.
 * @param machine Resource widths.
 * @param priority One value per operation; higher schedules first.
 * @param stats Optional cost accounting.
 * @param scratch Optional per-worker scratch; null falls back to a
 *        thread-local one. Results are identical either way.
 * @return a complete, valid schedule.
 */
Schedule listSchedule(const Superblock &sb, const MachineModel &machine,
                      const std::vector<double> &priority,
                      SchedulerStats *stats = nullptr,
                      SchedScratch *scratch = nullptr);

/**
 * List-schedule only the operations in @p subset (same greedy rule).
 * Dependences from operations outside the subset are ignored, which
 * matches G*'s use: the subset is always predecessor-closed.
 *
 * @return issue cycles for subset members; -1 elsewhere.
 */
std::vector<int> listScheduleSubset(const Superblock &sb,
                                    const MachineModel &machine,
                                    const DynBitset &subset,
                                    const std::vector<double> &priority,
                                    SchedulerStats *stats = nullptr,
                                    SchedScratch *scratch = nullptr);

/**
 * Rank permutation of all operations under (@p priority desc, id
 * asc) — the only view of the priorities the greedy core ever sees,
 * so two priority vectors with equal permutations produce bit-for-
 * bit identical schedules and stats (the Best grid dedups on this).
 *
 * Rewinds @p scratch's run arena and allocates the permutation from
 * it: valid until the next run on the same scratch.
 */
std::span<const std::int32_t>
priorityRankOrder(const Superblock &sb,
                  const std::vector<double> &priority,
                  SchedScratch &scratch);

/**
 * priorityRankOrder for the blended priority a*cp + b*sr + c*dh
 * without materializing the blended vector: a fused kernel maps each
 * blend straight to its sort key. The permutation is bit-for-bit the
 * one combineKeysInto + priorityRankOrder would produce on the same
 * tables — the blend keeps the same association order and the key
 * map is strictly monotone — which is how the Best combo grid shares
 * one vectorized recompute across its 121 points.
 *
 * @p order carries the permutation from call to call and holds the
 * result. When it already holds a permutation of this size (the
 * previous grid point's), it is repaired in place by insertion, which
 * is cheap between neighbouring blends; past a budget of a few shifts
 * per operation, or when @p order is empty, it is sorted afresh. Since
 * (priority desc, id asc) is a strict total order, every start ends in
 * the same permutation. Rewinds @p scratch's run arena.
 */
std::span<const std::int32_t>
priorityRankOrderBlended(const Superblock &sb, double a,
                         const std::vector<double> &cp, double b,
                         const std::vector<double> &sr, double c,
                         const std::vector<double> &dh,
                         std::vector<std::int32_t> &order,
                         SchedScratch &scratch);

/**
 * Greedy core driven by a precomputed rank order (from
 * priorityRankOrder on the same scratch). The returned issue spans
 * (indexed by OpId) live in the scratch arena until the next run.
 */
std::span<const int> listScheduleRanked(
    const Superblock &sb, const MachineModel &machine,
    std::span<const std::int32_t> opOfRank, SchedulerStats *stats,
    SchedScratch &scratch);

} // namespace balance

#endif // BALANCE_SCHED_LIST_SCHEDULER_HH
