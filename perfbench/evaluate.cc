/**
 * @file
 * The `suite`, `large` and `certify` workloads: one unit is one
 * evaluateSuperblock() call on one (superblock, machine) pair, with
 * the B&B certifier on for `certify`.
 *
 * The untraced path times that call. The traced path repeats its
 * steps with each rung called through its own public function inside
 * a span, and must reproduce the untraced result exactly.
 * BalanceScheduler and the certifier take LC, LateRC and PW through a
 * BoundsToolkit, which has no constructor from precomputed parts, so
 * the traced path builds one more toolkit for them; that span
 * ("-toolkit_rebuild") is left out of every traced total.
 */

#include <algorithm>
#include <cmath>

#include "bounds/branch_bounds.hh"
#include "bounds/reference.hh"
#include "core/balance_scheduler.hh"
#include "eval/experiment.hh"
#include "inputs.hh"
#include "sched/best_scheduler.hh"
#include "workload.hh"

namespace perfbench
{

using namespace balance;

namespace
{

/** Everything a unit returns that the checks compare. */
struct UnitResult
{
    WctBounds bounds;
    std::vector<double> wct; //!< paper lineup order, Best last
    bool haveBnb = false;
    double bnbWct = 0.0;
    double bnbLower = 0.0;
    bool bnbProven = false;
    long long bnbNodes = 0;

    bool
    operator==(const UnitResult &o) const
    {
        const WctBounds &a = bounds, &b = o.bounds;
        return a.cp == b.cp && a.hu == b.hu && a.rj == b.rj &&
               a.lc == b.lc && a.pw == b.pw && a.tw == b.tw &&
               wct == o.wct && haveBnb == o.haveBnb &&
               bnbWct == o.bnbWct && bnbLower == o.bnbLower &&
               bnbProven == o.bnbProven && bnbNodes == o.bnbNodes;
    }
};

UnitResult
fromEval(const SuperblockEval &e)
{
    UnitResult r;
    r.bounds = e.bounds;
    r.wct = e.wct;
    if (e.bnb) {
        r.haveBnb = true;
        r.bnbWct = e.bnb->wct;
        r.bnbLower = e.bnb->lowerBound;
        r.bnbProven = e.bnb->proven;
        r.bnbNodes = e.bnb->counters.nodesExpanded;
    }
    return r;
}

/**
 * evaluateSuperblock()'s steps in its order, each layer in a span.
 * Adds this unit's exact counts to @p counts.
 */
UnitResult
evaluateTraced(const Superblock &sb, const MachineModel &machine,
               const HeuristicSet &set, const EvalOptions &opts,
               SpanLog &log, int unit,
               std::map<std::string, long long> &counts)
{
    Scoped root(&log, "unit", unit);
    std::unique_ptr<GraphContext> ctx;
    {
        Scoped s(&log, "graph.context", unit);
        ctx = std::make_unique<GraphContext>(sb);
    }

    BoundCounterSet bc;
    std::vector<int> early;
    {
        Scoped s(&log, "bounds.lc", unit);
        early = lcEarlyRCForSuperblock(*ctx, machine, opts.bounds.lc,
                                       &bc.lc);
    }
    std::vector<std::vector<int>> late;
    {
        Scoped s(&log, "bounds.laterc", unit);
        for (int bi = 0; bi < sb.numBranches(); ++bi)
            late.push_back(
                lateRCFor(*ctx, machine, bi, early, &bc.lcReverse));
    }
    std::unique_ptr<PairwiseBounds> pw;
    if (opts.bounds.computePairwise) {
        Scoped s(&log, "bounds.pw", unit);
        pw = std::make_unique<PairwiseBounds>(
            *ctx, machine, early, late, opts.bounds.pairwise, &bc.pw);
    }

    UnitResult r;
    {
        Scoped s(&log, "bounds.cp_hu_rj", unit);
        r.bounds.cp = wctFromBranchEarly(sb, cpEarly(*ctx));
        r.bounds.hu = wctFromBranchEarly(sb, huEarly(*ctx, machine));
        r.bounds.rj = wctFromBranchEarly(sb, rjEarly(*ctx, machine));
    }
    std::vector<int> lcBranches;
    for (OpId b : sb.branches())
        lcBranches.push_back(early[std::size_t(b)]);
    r.bounds.lc = wctFromBranchEarly(sb, lcBranches);
    r.bounds.pw = r.bounds.tw = r.bounds.lc;
    if (pw) {
        r.bounds.pw = r.bounds.tw = pw->superblockWct();
        if (opts.bounds.computeTriplewise) {
            Scoped s(&log, "bounds.tw", unit);
            TriplewiseResult tw =
                computeTriplewise(*ctx, machine, early, late, *pw,
                                  opts.bounds.triplewise, &bc.tw);
            r.bounds.tw = tw.wct;
            counts["bounds.tw_fellback"] += tw.fellBack ? 1 : 0;
        }
    }
    const double tightest = r.bounds.tightest();
    counts["bounds.tw_trips"] += bc.tw.trips;
    counts["bounds.pw_trips"] += bc.pw.trips;

    std::unique_ptr<BoundsToolkit> toolkit;
    {
        Scoped s(&log, "-toolkit_rebuild", unit);
        toolkit = std::make_unique<BoundsToolkit>(*ctx, machine,
                                                  opts.bounds);
    }

    SchedScratch schedScratch;
    ScheduleRequest req;
    req.scratch = &schedScratch;
    SchedulerStats balStats;
    double bestWct = 0.0;
    bool haveBest = false;
    Schedule bestPrimary;
    for (const auto &sched : set.primaries) {
        Schedule s;
        auto *bal = dynamic_cast<const BalanceScheduler *>(sched.get());
        if (bal && bal->config().useRcBounds) {
            Scoped span(&log, "core.balance", unit);
            ScheduleRequest balReq = req;
            balReq.stats = &balStats;
            s = bal->runWithToolkit(*ctx, machine, *toolkit, balReq);
        } else if (dynamic_cast<const HelpScheduler *>(sched.get())) {
            Scoped span(&log, "core.help", unit);
            s = sched->run(*ctx, machine, req);
        } else {
            Scoped span(&log, "sched.list", unit);
            s = sched->run(*ctx, machine, req);
        }
        s.validate(sb, machine);
        double w = s.wct(sb);
        r.wct.push_back(w);
        if (!haveBest || w < bestWct) {
            bestWct = w;
            haveBest = true;
            bestPrimary = s;
        }
    }
    counts["core.balance_full_updates"] += balStats.fullUpdates;
    if (set.withBest) {
        double grid;
        {
            Scoped span(&log, "sched.best", unit);
            grid = bestGridWct(*ctx, machine, req);
        }
        if (!haveBest || grid < bestWct)
            bestWct = grid;
        r.wct.push_back(bestWct);
    }
    counts["sched.best_grid_runs"] += schedScratch.stats.gridRuns;
    counts["sched.best_grid_skipped"] += schedScratch.stats.gridSkipped;

    if (opts.computeBnb && haveBest && sb.numOps() <= opts.bnbMaxOps) {
        BnbOptions bnbOpts;
        bnbOpts.maxNodes = opts.bnbMaxNodes;
        bnbOpts.threads = 1;
        bnbOpts.seedWithBest = false;
        BnbRequest bnbReq;
        bnbReq.toolkit = toolkit.get();
        bnbReq.seedSchedule = &bestPrimary;
        bnbReq.staticLowerBound = tightest;
        BnbResult b;
        {
            Scoped span(&log, "sched.bnb", unit);
            b = bnbSchedule(*ctx, machine, bnbOpts, bnbReq);
        }
        b.schedule.validate(sb, machine);
        r.haveBnb = true;
        r.bnbWct = b.wct;
        r.bnbLower = b.lowerBound;
        r.bnbProven = b.proven;
        r.bnbNodes = b.counters.nodesExpanded;
        counts["sched.bnb_nodes"] += r.bnbNodes;
    }
    return r;
}

class EvalWorkload : public Workload
{
  public:
    EvalWorkload(std::string workload, std::uint64_t seed)
        : workload(std::move(workload)), seed(seed)
    {
        if (this->workload == "certify") {
            opts.computeBnb = true;
            opts.bnbMaxNodes = certifyNodeBudget;
        }
    }

    void
    setUp(SpanLog *log) override
    {
        std::vector<std::string> texts;
        {
            Scoped s(log, "workload.generate", -1);
            in = workload == "suite"   ? suiteShapes()
                 : workload == "large" ? largeShapes()
                                       : certifyShapes();
            texts = relabel(in.superblocks, seed);
            shuffleUnits(in, seed);
        }
        Scoped s(log, "workload.parse", -1);
        in.superblocks = parseAll(texts);
    }

    std::size_t units() const override { return in.units.size(); }

    void
    runRound(int round, FastestOf &times, TraceSink *trace) override
    {
        std::map<std::string, long long> counts;
        for (std::size_t u = 0; u < in.units.size(); ++u) {
            const Superblock &sb =
                in.superblocks[std::size_t(in.units[u].sb)];
            const MachineModel &machine =
                in.machines[std::size_t(in.units[u].machine)];

            auto t0 = Clock::now();
            SuperblockEval e = evaluateSuperblock(sb, machine, set, opts);
            times.add(u, msBetween(t0, Clock::now()));

            UnitResult r = fromEval(e);
            std::string failure = checkUnit(sb, r);
            if (trace) {
                UnitResult t = evaluateTraced(sb, machine, set, opts,
                                              trace->log, int(u), counts);
                if (failure.empty() && !(t == r))
                    failure = "traced path differs on " + sb.name();
            }
            if (round == 0) {
                results.push_back(r);
                addQuality(sb, r);
            } else if (failure.empty() && !(r == results[u])) {
                failure = "result differs between rounds on " + sb.name();
            }
            tally(failure);
        }
        if (trace) {
            if (trace->counts.empty())
                trace->counts = counts;
            else if (trace->counts != counts)
                tally("layer counts differ between rounds");
        }
    }

    void
    finalChecks() override
    {
        // A fixed sample of six units spread over the population,
        // compared bitwise with the frozen naive bound engine.
        const std::size_t n = in.units.size();
        for (std::size_t i = 0; i < 6; ++i) {
            std::size_t u = i * (n - 1) / 5;
            const Superblock &sb =
                in.superblocks[std::size_t(in.units[u].sb)];
            const MachineModel &machine =
                in.machines[std::size_t(in.units[u].machine)];
            GraphContext ctx(sb);
            WctBounds ref =
                reference::computeWctBounds(ctx, machine, opts.bounds);
            UnitResult want = results[u];
            want.bounds = ref;
            tally(want == results[u]
                      ? std::string()
                      : "bounds differ from the reference engine on " +
                            sb.name() + " / " + machine.name());
        }
    }

  private:
    std::string
    checkUnit(const Superblock &sb, const UnitResult &r) const
    {
        const double tightest = r.bounds.tightest();
        const double eps = 1e-6;
        for (double w : r.wct)
            if (w < tightest - eps)
                return "schedule beats its bound on " + sb.name();
        if (!opts.computeBnb)
            return {};
        // The certificate ladder: static bound <= B&B floor <=
        // incumbent <= every lineup schedule; proven closes the gap;
        // the node budget holds.
        double bestLineup = *std::min_element(r.wct.begin(), r.wct.end());
        if (!r.haveBnb || r.bnbLower < tightest - eps ||
            r.bnbWct < r.bnbLower - eps || r.bnbWct > bestLineup + eps ||
            (r.bnbProven && r.bnbWct > r.bnbLower + eps) ||
            r.bnbNodes > opts.bnbMaxNodes)
            return "certificate ladder broken on " + sb.name();
        return {};
    }

    void
    addQuality(const Superblock &sb, const UnitResult &r)
    {
        double best = *std::min_element(r.wct.begin(), r.wct.end());
        double bound = r.bounds.tightest();
        if (r.haveBnb) {
            best = std::min(best, r.bnbWct);
            bound = r.bnbLower;
        }
        // Lineup order: SR, CP, G*, DHASY, Help, Balance, Best.
        quality.add(sb.execFrequency(), r.wct[5], bound, best);
    }

    std::string workload;
    std::uint64_t seed;
    EvalInputs in;
    HeuristicSet set = HeuristicSet::paperSet(true);
    EvalOptions opts;
    std::vector<UnitResult> results; //!< round 0, per unit
};

} // namespace

std::unique_ptr<Workload>
makeEvalWorkload(const std::string &name, std::uint64_t seed)
{
    if (name != "suite" && name != "large" && name != "certify")
        return nullptr;
    return std::make_unique<EvalWorkload>(name, seed);
}

} // namespace perfbench
