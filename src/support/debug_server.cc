#include "support/debug_server.hh"

#include "support/metrics.hh"
#include "support/perf_counters.hh"
#include "support/progress.hh"
#include "support/prometheus.hh"
#include "support/trace.hh"

namespace balance
{

namespace
{

/** A plain-text answer that is just @p reason. */
HttpResponse
textReply(int status, const char *reason)
{
    return {status, "text/plain; charset=utf-8", std::string(reason) + "\n",
            {}};
}

} // namespace

std::string
DebugServer::handlePath(const std::string &path, int &status,
                        std::string &contentType)
{
    status = 200;
    contentType = "text/plain; charset=utf-8";
    if (path == "/healthz")
        return "ok\n";
    if (path == "/metrics") {
        contentType = "text/plain; version=0.0.4; charset=utf-8";
        return renderPrometheusText(MetricRegistry::global());
    }
    if (path == "/progress") {
        contentType = "application/json";
        return ProgressTracker::global().snapshotJson();
    }
    if (path == "/trace") {
        contentType = "application/json";
        return TraceSession::global().toJson();
    }
    if (path == "/hwcounters") {
        contentType = "application/json";
        return PerfProfiler::global().snapshot().toJson();
    }
    status = 404;
    return "not found\n";
}

bool
DebugServer::start(const DebugServerOptions &opts)
{
    // Scraper GETs only: no request body is accepted.
    auto serve = [](int fd, Deadline deadline) {
        serveHttpRequest(
            fd, deadline, 0,
            [](const HttpRequest &req) {
                if (req.method != "GET" && req.method != "HEAD")
                    return textReply(405, "method not allowed");
                HttpResponse r;
                r.body = handlePath(req.target, r.status, r.contentType);
                return r;
            },
            textReply);
    };
    if (!server.start("debug-server", opts, serve,
                      [] { return textReply(503, "overloaded"); }))
        return false;
    // /progress is only useful with the tracker publishing.
    ProgressTracker::global().enable();
    return true;
}

} // namespace balance
