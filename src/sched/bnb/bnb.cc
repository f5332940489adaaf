#include "sched/bnb/bnb.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "sched/best_scheduler.hh"
#include "sched/bnb/bnb_search.hh"
#include "support/diagnostics.hh"
#include "support/flight_recorder.hh"
#include "support/json.hh"
#include "support/parallel_for.hh"
#include "support/perf_counters.hh"
#include "support/progress.hh"
#include "support/trace.hh"

namespace balance
{

namespace
{

/** Frontier pruning tolerance, matching the engine's. */
constexpr double kPruneEps = 1e-12;
/** A gap at or below this counts as a certified optimum. */
constexpr double kProvenEps = 1e-9;

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
doubleFromBits(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** The best complete schedule seen so far, merged serially. */
struct Incumbent
{
    bool have = false;
    double wct = 0.0;
    std::vector<int> issue;
};

} // namespace

std::string
BnbResult::certificate() const
{
    JsonWriter w;
    w.beginObject()
        .key("wct")
        .value(wct)
        .key("lower_bound")
        .value(lowerBound)
        .key("proven")
        .value(proven)
        .key("exhausted")
        .value(exhausted)
        .key("nodes_expanded")
        .value(counters.nodesExpanded)
        .key("pruned_by_bound")
        .value(counters.prunedByBound)
        .key("pruned_by_dominance")
        .value(counters.prunedByDominance)
        .key("incumbent_updates")
        .value(counters.incumbentUpdates)
        .key("tasks_completed")
        .value(counters.tasksCompleted)
        .key("tasks_aborted")
        .value(counters.tasksAborted)
        .key("rounds")
        .value(counters.rounds)
        .endObject();
    return w.str();
}

BnbResult
bnbSchedule(const GraphContext &ctx, const MachineModel &machine,
            const BnbOptions &opts, const BnbRequest &req)
{
    const Superblock &sb = ctx.sb();
    TraceSpan span("bnbSchedule", sb.numOps());
    PerfRegion perf(PerfPhase::Bnb);
    bsAssert(opts.maxNodes > 0 && opts.taskChunk > 0 &&
                 opts.splitTarget > 0,
             "bnb: budgets must be positive");

    BnbResult result;
    BnbCounters &counters = result.counters;
    FlightScope flight("bnb", sb.numOps());
    // Nodes already reported to the progress tracker (delta basis).
    long long publishedNodes = 0;

    // Context built serially before any worker runs: static per-op
    // issue floors (the toolkit's EarlyRC when lent, else the
    // dependence-only early times), the interchangeability classes
    // for dominance pruning, and each op's pool and closure branches
    // for the per-node slot counts. Workers read only this.
    const BnbContext context(
        ctx, machine, req.toolkit ? req.toolkit->earlyRC() : ctx.earlyDC());

    Incumbent inc;
    auto offerSchedule = [&](const Schedule &s) {
        double w = s.wct(sb);
        if (!inc.have || w < inc.wct) {
            inc.have = true;
            inc.wct = w;
            inc.issue.resize(std::size_t(sb.numOps()));
            for (OpId v = 0; v < sb.numOps(); ++v)
                inc.issue[std::size_t(v)] = s.issueOf(v);
        }
    };
    if (req.seedSchedule) {
        bsAssert(req.seedSchedule->numOps() == sb.numOps() &&
                     req.seedSchedule->complete(),
                 "bnb: seed schedule incomplete");
        offerSchedule(*req.seedSchedule);
    }
    if (opts.seedWithBest) {
        // The combo-grid envelope from this layer; callers with a
        // Balance/Help schedule in hand pass it via the request and
        // the better of the two seeds the search.
        TraceSpan seedSpan("bnb.seed");
        BestScheduler grid({});
        offerSchedule(grid.run(ctx, machine));
    }

    auto incumbentValue = [&] { return inc.have ? inc.wct : -1.0; };
    auto absorb = [&](const BnbSubtreeOutcome &o) {
        counters.nodesExpanded += o.stats.nodes;
        counters.prunedByBound += o.stats.prunedBound;
        counters.prunedByDominance += o.stats.prunedDominance;
        counters.incumbentUpdates += o.stats.incumbentUpdates;
        if (o.haveBest && (!inc.have || o.bestWct < inc.wct)) {
            inc.have = true;
            inc.wct = o.bestWct;
            inc.issue = o.bestIssue;
        }
    };

    // Phase 1: serial breadth-first split of the root into a
    // frontier of subproblems. The frontier's size and contents
    // depend only on the instance and options — never on the thread
    // count — which is half of the determinism contract.
    std::deque<BnbPrefix> queue;
    std::vector<BnbPrefix> abandoned;
    {
        TraceSpan splitSpan("bnb.split");
        BnbPrefix root;
        root.nextCycle = 0;
        root.lb = req.staticLowerBound;
        root.chunk = opts.taskChunk;
        queue.push_back(std::move(root));

        BnbScratch &scratch = threadLocalBnbScratch();
        bool budgetHit = false;
        while (!queue.empty() &&
               int(queue.size()) < opts.splitTarget) {
            BnbPrefix p = std::move(queue.front());
            queue.pop_front();
            if (inc.have && p.lb >= inc.wct - kPruneEps) {
                ++counters.prunedByBound;
                continue;
            }
            long long remaining =
                opts.maxNodes - counters.nodesExpanded;
            if (remaining <= 0) {
                abandoned.push_back(std::move(p));
                budgetHit = true;
                break;
            }
            scratch.arena.reset();
            BnbSubtreeSearch engine(context, scratch.arena);
            std::vector<BnbPrefix> children;
            BnbSubtreeOutcome o = engine.splitChildren(
                p, incumbentValue(), remaining, children);
            absorb(o);
            if (!o.completed) {
                abandoned.push_back(std::move(p));
                budgetHit = true;
                break;
            }
            for (BnbPrefix &child : children) {
                child.chunk = opts.taskChunk;
                queue.push_back(std::move(child));
            }
        }
        if (budgetHit) {
            for (BnbPrefix &p : queue)
                abandoned.push_back(std::move(p));
            queue.clear();
        }
    }

    // Phase 2: rounds of parallel subtree tasks. Every task of a
    // round prunes against the same incumbent snapshot, published
    // through a shared atomic written only between rounds (mid-round
    // publication would make pruning — and the node counters —
    // depend on worker timing). Outcomes merge serially in task
    // order, so improvements land identically for any thread count.
    {
        TraceSpan roundsSpan("bnb.rounds");
        std::vector<BnbPrefix> frontier(
            std::make_move_iterator(queue.begin()),
            std::make_move_iterator(queue.end()));
        // Most promising (lowest-bound) subtrees first; stable so
        // ties keep the deterministic enumeration order.
        std::stable_sort(frontier.begin(), frontier.end(),
                         [](const BnbPrefix &a, const BnbPrefix &b) {
                             return a.lb < b.lb;
                         });
        std::atomic<std::uint64_t> sharedIncumbent{
            doubleBits(incumbentValue())};

        while (!frontier.empty()) {
            std::vector<BnbPrefix> live;
            live.reserve(frontier.size());
            for (BnbPrefix &p : frontier) {
                if (inc.have && p.lb >= inc.wct - kPruneEps)
                    ++counters.prunedByBound;
                else
                    live.push_back(std::move(p));
            }
            frontier = std::move(live);
            if (frontier.empty())
                break;
            long long remaining =
                opts.maxNodes - counters.nodesExpanded;
            if (remaining <= 0)
                break;
            ++counters.rounds;

            // Hand out chunks in frontier order until the global
            // budget is spoken for; the sum of grants never exceeds
            // it, so nodesExpanded <= maxNodes is a hard invariant.
            std::size_t numTasks = 0;
            long long granted = 0;
            std::vector<long long> grant;
            while (numTasks < frontier.size() &&
                   granted < remaining) {
                long long g = std::min(frontier[numTasks].chunk,
                                       remaining - granted);
                grant.push_back(g);
                granted += g;
                ++numTasks;
            }

            sharedIncumbent.store(doubleBits(incumbentValue()),
                                  std::memory_order_relaxed);
            long long nodesBeforeRound = counters.nodesExpanded;
            std::vector<BnbSubtreeOutcome> outcomes(numTasks);
            parallelFor(
                numTasks,
                [&](std::size_t i) {
                    double snapshot =
                        doubleFromBits(sharedIncumbent.load(
                            std::memory_order_relaxed));
                    BnbScratch &scratch = threadLocalBnbScratch();
                    scratch.arena.reset();
                    BnbSubtreeSearch engine(context, scratch.arena);
                    outcomes[i] =
                        engine.run(frontier[i], snapshot, grant[i]);
                },
                opts.threads);

            std::vector<BnbPrefix> next;
            next.reserve(frontier.size());
            for (std::size_t i = 0; i < numTasks; ++i) {
                absorb(outcomes[i]);
                if (outcomes[i].completed) {
                    ++counters.tasksCompleted;
                } else {
                    ++counters.tasksAborted;
                    BnbPrefix p = std::move(frontier[i]);
                    p.chunk *= 2;
                    next.push_back(std::move(p));
                }
            }
            for (std::size_t i = numTasks; i < frontier.size(); ++i)
                next.push_back(std::move(frontier[i]));
            frontier = std::move(next);

            // Live observers, fed between rounds only — the same
            // cadence as the incumbent snapshot above, so every
            // published tuple is a state the deterministic search
            // actually held. Never read back; pruning depends only
            // on sharedIncumbent.
            FlightRecorder::global().record(
                FlightEventType::BnbRound, "bnb",
                counters.nodesExpanded - nodesBeforeRound,
                counters.rounds);
            ProgressTracker &tracker = ProgressTracker::global();
            if (tracker.enabled()) {
                tracker.publishBnb(counters.nodesExpanded,
                                   counters.nodesExpanded -
                                       publishedNodes,
                                   counters.rounds,
                                   inc.have ? inc.wct : -1.0,
                                   req.staticLowerBound, false);
                publishedNodes = counters.nodesExpanded;
            }
        }
        for (BnbPrefix &p : frontier)
            abandoned.push_back(std::move(p));
    }

    // Phase 3: certificate. Exhausted means optimal. Otherwise the
    // optimum lives either at the incumbent or inside an abandoned
    // subtree, so min(incumbent, abandoned bounds) is a proven lower
    // bound; the static ladder floors it, which makes
    // RJ <= PW <= TW <= lowerBound <= wct monotone by construction.
    result.exhausted = abandoned.empty();
    if (!inc.have) {
        // Only reachable with seeding disabled and a starvation
        // budget: fall back to a cheap deterministic schedule so the
        // result always carries a feasible incumbent.
        CriticalPathScheduler fallback;
        offerSchedule(fallback.run(ctx, machine));
    }
    result.schedule = Schedule(sb.numOps());
    for (OpId v = 0; v < sb.numOps(); ++v)
        result.schedule.setIssue(v, inc.issue[std::size_t(v)]);
    result.wct = result.schedule.wct(sb);

    double lower = result.wct;
    if (!result.exhausted) {
        double unexplored = std::numeric_limits<double>::infinity();
        for (const BnbPrefix &p : abandoned)
            unexplored = std::min(unexplored, p.lb);
        lower = std::min(lower, unexplored);
    }
    lower = std::max(lower, req.staticLowerBound);
    lower = std::min(lower, result.wct);
    result.lowerBound = lower;
    result.proven = result.wct - result.lowerBound <= kProvenEps;
    {
        // Final publication: the certified result of this search.
        ProgressTracker &tracker = ProgressTracker::global();
        if (tracker.enabled())
            tracker.publishBnb(counters.nodesExpanded,
                               counters.nodesExpanded - publishedNodes,
                               counters.rounds, result.wct,
                               result.lowerBound, true);
    }
    return result;
}

} // namespace balance
