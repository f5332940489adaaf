/**
 * @file
 * The paper's "Best" envelope (Section 6.2): run the primary
 * heuristics plus a three-dimensional cross product of the CP, SR,
 * and DHASY priority functions — 121 extra list-scheduler runs — and
 * keep the schedule with the lowest weighted completion time.
 *
 * Best always selects by the true exit probabilities, even when the
 * primaries are steered by no-profile weights, matching Table 5's
 * methodology.
 */

#ifndef BALANCE_SCHED_BEST_SCHEDULER_HH
#define BALANCE_SCHED_BEST_SCHEDULER_HH

#include <memory>
#include <vector>

#include "sched/heuristics.hh"

namespace balance
{

/**
 * Envelope scheduler: minimum-WCT schedule over a set of primaries
 * and the 11x11 combo grid.
 */
class BestScheduler : public Scheduler
{
  public:
    /**
     * @param primaries Heuristics whose schedules join the envelope
     *        (typically SR, CP, G*, DHASY, Help, Balance). May be
     *        empty; the combo grid always runs.
     * @param gridSteps Grid resolution per axis; the default 10
     *        yields the paper's 121 combo runs.
     */
    explicit BestScheduler(
        std::vector<std::shared_ptr<const Scheduler>> primaries,
        int gridSteps = 10);

    std::string name() const override { return "Best"; }
    Schedule run(const GraphContext &ctx, const MachineModel &machine,
                 const ScheduleRequest &req = {}) const override;

    /** @return the number of list-scheduler runs per superblock. */
    int runsPerSuperblock() const;

  private:
    std::vector<std::shared_ptr<const Scheduler>> primaries;
    int gridSteps;
};

/**
 * The Best envelope's running minimum. Offers win only when strictly
 * better, so offering the primaries in order and then the grid keeps
 * the first minimum, as running every point in line would.
 */
class BestEnvelope
{
  public:
    /** Keep a copy of @p s when @p wct strictly beats the winner. */
    void offer(const Schedule &s, double wct);

    /**
     * Offer the combo grid's first minimum (bestGridWct's sweep, with
     * @p req's weights, scratch and stats); its schedule is built only
     * when it wins. @return true when it won.
     */
    bool offerGrid(const GraphContext &ctx, const MachineModel &machine,
                   const ScheduleRequest &req = {}, int gridSteps = 10);

    double wct() const { return bestWct; }
    const Schedule &schedule() const { return best; }

  private:
    Schedule best;
    double bestWct = 0.0;
    bool have = false;
};

/**
 * The combo grid alone: minimum weighted completion time over the
 * (gridSteps+1)^2 blends of the cached CP/SR/DHASY tables, with runs
 * whose blended rank permutation repeats an earlier point served from
 * the dedup memory instead of being rescheduled. This is what the
 * eval and report layers add to the primaries' envelope; it returns
 * exactly the minimum the 121 discrete listSchedule() calls used to
 * produce.
 */
double bestGridWct(const GraphContext &ctx, const MachineModel &machine,
                   const ScheduleRequest &req = {}, int gridSteps = 10);

} // namespace balance

#endif // BALANCE_SCHED_BEST_SCHEDULER_HH
