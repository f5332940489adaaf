/**
 * @file
 * Front door of the scheduling service (docs/SERVICE.md): the shared
 * listener core (support/http.hh) speaking two protocols on one
 * port, dispatching requests to a shared ScheduleEngine:
 *
 *  - HTTP/1.1:  POST /schedule with a JSON body (single request or
 *    {"requests": [...]}), plus GET /healthz, /stats, /metrics.
 *  - Length-prefixed frames for persistent clients: the 4 bytes
 *    "SBP1", a 4-byte big-endian payload length, then the same JSON
 *    payload as POST /schedule. Responses use identical framing, and
 *    one connection can carry any number of frames back to back.
 *
 * Backpressure has two stages: the core sheds connections with 503
 * once its bounded pending queue is full, and scheduling endpoints
 * shed with 429 once maxInflight request bodies are being evaluated
 * (health/stats stay served under full load, so operators can still
 * see in). Every read on a connection, the protocol sniff included,
 * runs under the one deadline the core sets when a handler adopts it
 * — a stalled client costs a handler thread at most recvTimeoutMs.
 * A frame connection gives each later frame a deadline of its own.
 *
 * The cache disposition of a scheduling response ("hit", "miss", or
 * "partial" for mixed batches) travels in the X-Balance-Cache header,
 * never the body: identical requests produce bitwise-identical bodies
 * on every path.
 */

#ifndef BALANCE_SERVICE_SERVER_HH
#define BALANCE_SERVICE_SERVER_HH

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "service/engine.hh"
#include "service/protocol.hh"
#include "support/http.hh"

namespace balance
{

/** ServiceServer configuration: the listener's settings plus the
 *  service's own. */
struct ServiceServerOptions : HttpServerOptions
{
    /** Max request bodies under evaluation before 429-shedding. */
    int maxInflight = 8;
    /** Max request body bytes (HTTP and frame payloads). */
    std::size_t maxBodyBytes = 1 << 20;
    /** Request parse limits (batch size, op count, B&B node cap). */
    ProtocolLimits protocol;
    /** GraphContext cache capacity. */
    std::size_t cacheCapacity = 256;
    /** Batch fan-out concurrency cap; 0 = hardware (EngineOptions). */
    int threads = 0;
};

/** The scheduling service listener (see file comment). */
class ServiceServer
{
  public:
    ServiceServer() = default;
    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Bind, listen, and start serving.
     * @return true on success; on failure logs to stderr and leaves
     *         the server inactive.
     */
    bool start(const ServiceServerOptions &opts);

    /** Stop all threads and close the socket. Idempotent. */
    void stop() { server.stop(); }

    /** @return true between a successful start() and stop(). */
    bool active() const { return server.active(); }

    /** @return the bound port (valid while active). */
    int port() const { return server.port(); }

    /** @return "http://<addr>:<port>" (valid while active). */
    const std::string &address() const { return server.address(); }

    /** @return the engine (cache stats; valid while active). */
    const ScheduleEngine &engine() const { return *scheduleEngine; }

    /** @return a JSON snapshot of service counters and cache state. */
    std::string statsJson() const;

  private:
    void serveConnection(int fd, Deadline &deadline);
    void serveFrames(int fd, Deadline &deadline);
    HttpResponse route(const HttpRequest &req);

    /**
     * Parse + execute one scheduling payload.
     * @param cacheState receives hit/miss/partial.
     * @return {HTTP status, response body}.
     */
    std::pair<int, std::string> handleSchedule(
        const std::string &body, std::string &cacheState);

    ServiceServerOptions options;
    std::unique_ptr<ScheduleEngine> scheduleEngine;
    std::atomic<int> inflight{0};
    std::atomic<long long> served{0};
    std::atomic<long long> shed429{0};
    std::atomic<long long> shed503{0};
    std::atomic<long long> badRequests{0};
    /** Last member: destroyed first, so its handler threads are
     *  joined before the counters and the engine go. */
    HttpServer server;
};

} // namespace balance

#endif // BALANCE_SERVICE_SERVER_HH
