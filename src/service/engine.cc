#include "service/engine.hh"

#include <chrono>
#include <map>

#include "bounds/bound_scratch.hh"
#include "eval/experiment.hh"
#include "sched/bnb/bnb.hh"
#include "support/diagnostics.hh"
#include "support/metrics.hh"
#include "support/parallel_for.hh"
#include "support/trace.hh"

namespace balance
{

/**
 * One request's private working set: scratch keyed per machine (the
 * six paper configs). Checked out of the engine's free-list for the
 * duration of one request and returned afterwards, so nothing here is
 * ever shared between two in-flight requests. The schedulers
 * themselves are const and shared (schedulerTable()).
 */
struct EngineWorkerState
{
    /**
     * A stable machine instance paired with the scratch built for it:
     * BoundScratch (and the relaxation tables inside) check machine
     * identity by address, so the model a scratch was constructed
     * against must be the very object every later toolkit sees.
     */
    struct MachineState
    {
        MachineModel model;
        std::unique_ptr<BoundScratch> scratch;

        explicit MachineState(const MachineModel &m)
            : model(m),
              scratch(std::make_unique<BoundScratch>(model))
        {}
    };

    std::map<std::string, std::unique_ptr<MachineState>> machines;
    SchedScratch schedScratch;

    MachineState &
    machineFor(const std::string &machineName,
               const MachineModel &machine)
    {
        std::unique_ptr<MachineState> &slot = machines[machineName];
        if (!slot)
            slot = std::make_unique<MachineState>(machine);
        return *slot;
    }
};

ScheduleEngine::ScheduleEngine(const EngineOptions &opts)
    : graphCache(opts.cacheCapacity), threads(opts.threads)
{
    // Pre-register the latency metrics so registration order (and
    // thus snapshot/exposition order) does not depend on traffic.
    MetricRegistry &reg = MetricRegistry::global();
    reg.counter("service.requests");
    reg.counter("service.batches");
    reg.counter("service.errors");
    reg.histogram("service.request_latency_us");
    reg.histogram("service.batch_size");
}

ScheduleEngine::~ScheduleEngine() = default;

std::unique_ptr<EngineWorkerState>
ScheduleEngine::checkOut()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        if (!statePool.empty()) {
            std::unique_ptr<EngineWorkerState> state =
                std::move(statePool.back());
            statePool.pop_back();
            return state;
        }
    }
    return std::make_unique<EngineWorkerState>();
}

void
ScheduleEngine::checkIn(std::unique_ptr<EngineWorkerState> state)
{
    std::lock_guard<std::mutex> lock(poolMutex);
    statePool.push_back(std::move(state));
}

ServiceResult
ScheduleEngine::runWith(EngineWorkerState &state,
                        const ServiceRequest &req)
{
    TraceSpan span("service.request", req.sb.numOps());
    auto t0 = std::chrono::steady_clock::now();

    bool hit = false;
    std::shared_ptr<const CachedGraph> cached =
        graphCache.acquire(req.sb, &hit);
    const GraphContext &ctx = *cached->ctx;
    const Superblock &sb = cached->sb;

    MachineModel parsed = MachineModel::gp4();
    machineByNameChecked(req.machine, &parsed);
    EngineWorkerState::MachineState &ms =
        state.machineFor(req.machine, parsed);
    const MachineModel &machine = ms.model;

    ServiceResult out;
    out.name = sb.name();
    out.machine = req.machine;
    out.scheduler = req.scheduler;
    out.cacheHit = hit;

    // "best" is the paper lineup's envelope; any other key is a
    // lineup of one. A certify request also offers the combo grid to
    // the envelope, so the search starts from the better of the
    // schedule and the grid.
    static const HeuristicSet paper = HeuristicSet::paperSet(false);
    const SchedulerEntry *entry = schedulerByKey(req.scheduler);
    bsAssert(entry, "unknown scheduler '", req.scheduler, "'");
    const bool best = req.scheduler == "best";
    EvalPlan plan;
    plan.ladder = req.bounds;
    plan.lineup = best ? std::span(paper.primaries)
                       : std::span(&entry->scheduler, 1);
    plan.withBest = best || req.certify;
    plan.certify = req.certify;
    plan.bnbMaxNodes = req.bnbMaxNodes;
    // parseServiceRequestSet refuses larger certify requests, so this
    // cap never binds on a parsed request; it keeps a direct caller
    // from reaching the certifier's abort.
    plan.bnbMaxOps = maxBnbOps;
    plan.bnbThreads = 0;
    plan.scratch = ms.scratch.get();
    plan.schedScratch = &state.schedScratch;
    EvalOutcome r = evaluate(ctx, machine, plan);

    out.haveBounds = req.bounds;
    out.bounds = r.bounds;
    out.tightest = r.tightest;
    const Schedule &schedule = best ? r.best.schedule() : r.schedules[0];
    out.wct = schedule.wct(sb);
    out.makespan = schedule.makespan();
    out.issue.reserve(std::size_t(sb.numOps()));
    for (OpId op = 0; op < OpId(sb.numOps()); ++op)
        out.issue.push_back(schedule.issueOf(op));
    if (const BnbResult *bnb = r.bnb.get()) {
        out.haveBnb = true;
        out.bnbWct = bnb->wct;
        out.bnbLowerBound = bnb->lowerBound;
        out.bnbProven = bnb->proven;
        out.bnbExhausted = bnb->exhausted;
        out.bnbNodes = bnb->counters.nodesExpanded;
    }

    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    MetricRegistry &reg = MetricRegistry::global();
    reg.counter("service.requests").add(1);
    reg.histogram("service.request_latency_us").observe(us);
    return out;
}

ServiceResult
ScheduleEngine::run(const ServiceRequest &req)
{
    std::unique_ptr<EngineWorkerState> state = checkOut();
    ServiceResult out = runWith(*state, req);
    checkIn(std::move(state));
    return out;
}

std::vector<ServiceResult>
ScheduleEngine::runBatch(const std::vector<ServiceRequest> &reqs)
{
    MetricRegistry &reg = MetricRegistry::global();
    reg.counter("service.batches").add(1);
    reg.histogram("service.batch_size")
        .observe((long long)(reqs.size()));

    // Per-slot fan-out + in-order assembly: each request writes only
    // its own result slot, so the response bytes are identical for
    // any thread count (the repo's determinism pattern).
    std::vector<ServiceResult> out(reqs.size());
    parallelFor(
        reqs.size(), [this, &reqs, &out](std::size_t i) {
            out[i] = run(reqs[i]);
        },
        threads);
    return out;
}

} // namespace balance
