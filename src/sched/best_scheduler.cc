#include "sched/best_scheduler.hh"

#include <algorithm>
#include <cstdint>
#include <span>

#include "sched/priorities.hh"
#include "sched/sched_scratch.hh"
#include "support/perf_counters.hh"

namespace balance
{

namespace
{

/** Schedule::wct() over a raw issue span (same accumulation order). */
double
wctOfIssue(const Superblock &sb, std::span<const int> issue)
{
    double total = 0.0;
    for (OpId b : sb.branches()) {
        total += sb.exitProb(b) *
                 (issue[std::size_t(b)] + sb.op(b).latency);
    }
    return total;
}

/** FNV-1a over a rank permutation; collisions re-checked exactly. */
std::uint64_t
permHash(std::span<const std::int32_t> perm)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::int32_t x : perm) {
        h ^= std::uint64_t(std::uint32_t(x));
        h *= 1099511628211ULL;
    }
    return h;
}

/** @return true when @p perm is the @p i-th permutation of @p grid. */
bool
samePerm(std::span<const std::int32_t> perm,
         const SchedScratch::GridMemory &grid, std::size_t i)
{
    return std::equal(perm.begin(), perm.end(),
                      grid.perms.begin() +
                          std::ptrdiff_t(i * perm.size()));
}

void
addStats(SchedulerStats &into, const SchedulerStats &delta)
{
    into.decisions += delta.decisions;
    into.loopTrips += delta.loopTrips;
    into.cycles += delta.cycles;
    into.readySum += delta.readySum;
    into.fullUpdates += delta.fullUpdates;
    into.lightUpdates += delta.lightUpdates;
    into.selectionPasses += delta.selectionPasses;
    into.candidatesSum += delta.candidatesSum;
}

/**
 * Sweep the (gridSteps+1)^2 blend grid, scheduling each *unique* rank
 * permutation once. The greedy core sees a priority vector only
 * through its rank permutation, so a repeated permutation is proof
 * the run would reproduce an earlier one bit for bit; the dedup
 * memory replays that run's WCT and stats delta instead (keeping
 * @p stats totals identical to scheduling all points).
 *
 * @return the minimum WCT over the grid; when @p wantIssue, the
 *         first schedule attaining it is left in scr.bestIssueBuf.
 */
double
gridSweep(const GraphContext &ctx, const MachineModel &machine,
          const std::vector<double> &weights, int gridSteps,
          SchedulerStats *stats, SchedScratch &scr, bool wantIssue)
{
    PerfRegion perf(PerfPhase::BestGrid);
    const Superblock &sb = ctx.sb();
    const std::vector<double> &cp = scr.cpKeyNormalized(ctx);
    const std::vector<double> &sr = scr.srKeyNormalized(ctx);
    const std::vector<double> &dh = scr.dhKeyNormalized(ctx, weights);
    scr.grid.clear();

    bool have = false;
    double bestW = 0.0;
    for (int a = 0; a <= gridSteps; ++a) {
        for (int b = 0; b <= gridSteps; ++b) {
            double fa = double(a) / gridSteps;
            double fb = double(b) / gridSteps;
            double fc = std::max(0.0, 1.0 - fa - fb);
            // Fused blend + key map: same permutation as blending
            // into a buffer and ranking it, without the round trip;
            // the previous point's order is repaired into this one's.
            std::span<const std::int32_t> perm =
                priorityRankOrderBlended(sb, fa, cp, fb, sr, fc, dh,
                                         scr.grid.order, scr);
            std::uint64_t h = permHash(perm);

            int found = -1;
            for (std::size_t i = 0; i < scr.grid.hashes.size(); ++i) {
                if (scr.grid.hashes[i] == h &&
                    samePerm(perm, scr.grid, i)) {
                    found = int(i);
                    break;
                }
            }

            double w;
            if (found >= 0) {
                // A duplicate reproduces an earlier run exactly, so
                // it can never strictly improve the envelope either.
                ++scr.stats.gridSkipped;
                if (stats)
                    addStats(*stats,
                             scr.grid.deltas[std::size_t(found)]);
                w = scr.grid.wcts[std::size_t(found)];
            } else {
                ++scr.stats.gridRuns;
                SchedulerStats delta;
                std::span<const int> issue = listScheduleRanked(
                    sb, machine, perm, stats ? &delta : nullptr, scr);
                w = wctOfIssue(sb, issue);
                if (stats)
                    addStats(*stats, delta);
                scr.grid.hashes.push_back(h);
                scr.grid.perms.insert(scr.grid.perms.end(), perm.begin(),
                                      perm.end());
                scr.grid.wcts.push_back(w);
                scr.grid.deltas.push_back(delta);
                if (wantIssue && (!have || w < bestW))
                    scr.bestIssueBuf.assign(issue.begin(), issue.end());
            }
            if (!have || w < bestW) {
                bestW = w;
                have = true;
            }
        }
    }
    return bestW;
}

} // namespace

BestScheduler::BestScheduler(
    std::vector<std::shared_ptr<const Scheduler>> primaries,
    int gridSteps)
    : primaries(std::move(primaries)), gridSteps(gridSteps)
{
}

int
BestScheduler::runsPerSuperblock() const
{
    return int(primaries.size()) + (gridSteps + 1) * (gridSteps + 1);
}

Schedule
BestScheduler::run(const GraphContext &ctx, const MachineModel &machine,
                   const ScheduleRequest &req) const
{
    const Superblock &sb = ctx.sb();
    ScheduleRequest inner = req;
    inner.scratch =
        req.scratch ? req.scratch : &threadLocalSchedScratch();

    BestEnvelope envelope;
    for (const auto &sched : primaries) {
        Schedule s = sched->run(ctx, machine, inner);
        envelope.offer(s, s.wct(sb));
    }
    envelope.offerGrid(ctx, machine, inner, gridSteps);
    return envelope.schedule();
}

void
BestEnvelope::offer(const Schedule &s, double wct)
{
    if (!have || wct < bestWct) {
        best = s;
        bestWct = wct;
        have = true;
    }
}

bool
BestEnvelope::offerGrid(const GraphContext &ctx,
                        const MachineModel &machine,
                        const ScheduleRequest &req, int gridSteps)
{
    // The cross product: a*CP + b*SR + c*DHASY over an integer grid,
    // with the DHASY share absorbing whatever a and b leave (clamped
    // at zero).
    const Superblock &sb = ctx.sb();
    SchedScratch &scr =
        req.scratch ? *req.scratch : threadLocalSchedScratch();
    std::vector<double> weights = steeringWeights(sb, req);
    double gridWct = gridSweep(ctx, machine, weights, gridSteps,
                               req.stats, scr, true);
    if (have && !(gridWct < bestWct))
        return false;
    Schedule s(sb.numOps());
    for (OpId id = 0; id < sb.numOps(); ++id)
        s.setIssue(id, scr.bestIssueBuf[std::size_t(id)]);
    best = std::move(s);
    bestWct = gridWct;
    have = true;
    return true;
}

double
bestGridWct(const GraphContext &ctx, const MachineModel &machine,
            const ScheduleRequest &req, int gridSteps)
{
    SchedScratch &scr =
        req.scratch ? *req.scratch : threadLocalSchedScratch();
    std::vector<double> weights = steeringWeights(ctx.sb(), req);
    return gridSweep(ctx, machine, weights, gridSteps, req.stats, scr,
                     false);
}

} // namespace balance
