/**
 * @file
 * The scheduling engine behind the service daemon: each parsed
 * ServiceRequest becomes an EvalPlan for the one evaluation pipeline
 * (eval/pipeline.hh) that the eval drivers and report capture use —
 * the request picks the lineup, whether the bound ladder runs and
 * whether to certify — with the steady-state reuse the bound and
 * scheduler layers were built for:
 *
 *  - GraphContexts come from a shared content-hash LRU cache
 *    (service/graph_cache.hh), fully warmed so one entry serves any
 *    number of concurrent requests.
 *  - BoundScratch / SchedScratch live in a pooled free-list of
 *    worker states, checked out per in-flight request (per-slot, not
 *    per-thread: a pool worker parked in a helping wait can pick up
 *    another request, so thread-keyed scratch would be reentrant).
 *    After warm-up the steady state allocates nothing per request.
 *  - Batches fan out through parallelFor (support/parallel_for.hh)
 *    with per-request result slots assembled in request order, so a
 *    batch response is bytewise independent of the worker count —
 *    the repo-wide determinism contract extends to the wire.
 *
 * Per-request latency lands in MetricRegistry::global() histograms
 * ("service.request_latency_us", plus request/error counters), so a
 * --debug-server /metrics scrape shows live p50/p99.
 */

#ifndef BALANCE_SERVICE_ENGINE_HH
#define BALANCE_SERVICE_ENGINE_HH

#include <memory>
#include <mutex>
#include <vector>

#include "service/graph_cache.hh"
#include "service/protocol.hh"

namespace balance
{

struct EngineWorkerState; // private: per-request scratch

/** Engine configuration. */
struct EngineOptions
{
    /** GraphContext cache capacity (entries). */
    std::size_t cacheCapacity = 256;
    /**
     * Concurrency cap for batch fan-out (support/parallel_for.hh);
     * 0 = hardware, 1 = inline serial. Response bytes are identical
     * for every value — the knob trades latency for interference.
     */
    int threads = 0;
};

/** Executes ServiceRequests (see file comment). */
class ScheduleEngine
{
  public:
    explicit ScheduleEngine(const EngineOptions &opts = {});
    ~ScheduleEngine();

    ScheduleEngine(const ScheduleEngine &) = delete;
    ScheduleEngine &operator=(const ScheduleEngine &) = delete;

    /** Execute one request on the calling thread. */
    ServiceResult run(const ServiceRequest &req);

    /**
     * Execute a batch, fanning out via parallelFor. Results are in
     * request order and identical to running each request alone, for
     * any thread count.
     */
    std::vector<ServiceResult> runBatch(
        const std::vector<ServiceRequest> &reqs);

    /** @return the shared GraphContext cache (stats endpoints). */
    const GraphContextCache &cache() const { return graphCache; }

  private:
    std::unique_ptr<EngineWorkerState> checkOut();
    void checkIn(std::unique_ptr<EngineWorkerState> state);
    ServiceResult runWith(EngineWorkerState &state,
                          const ServiceRequest &req);

    GraphContextCache graphCache;
    int threads;
    std::mutex poolMutex;
    std::vector<std::unique_ptr<EngineWorkerState>> statePool;
};

} // namespace balance

#endif // BALANCE_SERVICE_ENGINE_HH
