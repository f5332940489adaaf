/**
 * @file
 * In-process diagnostics HTTP server (docs/OBSERVABILITY.md, "Live
 * introspection"): a route table on the shared listener core
 * (support/http.hh) that serves read-only snapshots of the process's
 * telemetry while a run is in flight:
 *
 *   GET /healthz     -> "ok\n" (liveness)
 *   GET /metrics     -> MetricRegistry::global() in Prometheus text
 *                       exposition format 0.0.4 (support/prometheus.hh)
 *   GET /progress    -> ProgressTracker::global().snapshotJson()
 *   GET /trace       -> TraceSession::global().toJson() (Chrome trace)
 *   GET /hwcounters  -> PerfProfiler::global().snapshot().toJson()
 *
 * Non-perturbation contract: every handler only calls the snapshot
 * paths the at-exit writers already use (mutex-guarded copies of
 * relaxed-atomic monotone values), never a mutating API, so scraping
 * any endpoint at any rate leaves the run's schedules, bounds, and
 * artifact bytes identical to an unobserved run. The server binds
 * 127.0.0.1 by default; port 0 picks an ephemeral port, and the
 * bound address is printed on stdout ("debug-server: listening on
 * http://...") and recorded in the run manifest when one is written.
 *
 * Enabled via --debug-server=PORT on the bench binaries and
 * `report_tool run` (eval/bench_options.hh, bench/report_tool.cc).
 */

#ifndef BALANCE_SUPPORT_DEBUG_SERVER_HH
#define BALANCE_SUPPORT_DEBUG_SERVER_HH

#include <string>

#include "support/http.hh"

namespace balance
{

/** DebugServer configuration: the listener's own settings. */
using DebugServerOptions = HttpServerOptions;

/** The diagnostics server (see file comment). */
class DebugServer
{
  public:
    /**
     * Bind, listen, and start serving the diagnostics routes.
     * Enables ProgressTracker::global() so /progress has data.
     * @return true on success; on failure logs to stderr and leaves
     *         the server inactive.
     */
    bool start(const DebugServerOptions &opts);

    /** Stop all threads and close the socket. Idempotent. */
    void stop() { server.stop(); }

    /** @return true between a successful start() and stop(). */
    bool active() const { return server.active(); }

    /** @return the bound port (valid while active). */
    int port() const { return server.port(); }

    /** @return "http://<addr>:<port>" (valid while active). */
    const std::string &address() const { return server.address(); }

    /**
     * Dispatch one request path to its endpoint. Exposed for tests;
     * @p status receives the HTTP status code and @p contentType the
     * response content type.
     * @return the response body.
     */
    static std::string handlePath(const std::string &path, int &status,
                                  std::string &contentType);

  private:
    HttpServer server;
};

} // namespace balance

#endif // BALANCE_SUPPORT_DEBUG_SERVER_HH
