#include "service/server.hh"

#include <cstdint>
#include <cstring>

#include "support/metrics.hh"
#include "support/prometheus.hh"

namespace balance
{

namespace
{

constexpr char frameMagic[4] = {'S', 'B', 'P', '1'};

/** A JSON error answer worded by @p reason. */
HttpResponse
serviceError(int status, const char *reason)
{
    return {status, "application/json", renderServiceError(reason), {}};
}

/** Send one SBP1 frame. */
void
writeFrame(int fd, const std::string &payload)
{
    char header[8];
    std::memcpy(header, frameMagic, 4);
    std::uint32_t len = std::uint32_t(payload.size());
    header[4] = char((len >> 24) & 0xff);
    header[5] = char((len >> 16) & 0xff);
    header[6] = char((len >> 8) & 0xff);
    header[7] = char(len & 0xff);
    if (writeAllFd(fd, header, sizeof(header)))
        writeAllFd(fd, payload.data(), payload.size());
}

} // namespace

bool
ServiceServer::start(const ServiceServerOptions &opts)
{
    if (server.active())
        return false;
    options = opts;
    if (options.maxInflight <= 0)
        options.maxInflight = 1;
    EngineOptions engineOpts;
    engineOpts.cacheCapacity = options.cacheCapacity;
    engineOpts.threads = options.threads;
    scheduleEngine = std::make_unique<ScheduleEngine>(engineOpts);

    return server.start(
        "balance-service", options,
        [this](int fd, Deadline &deadline) {
            serveConnection(fd, deadline);
        },
        [this] {
            shed503.fetch_add(1, std::memory_order_relaxed);
            MetricRegistry::global().counter("service.shed_503").add(1);
            return serviceError(503, "overloaded: connection queue full");
        });
}

void
ServiceServer::serveConnection(int fd, Deadline &deadline)
{
    // Sniff the protocol: frame clients open with the literal "SBP1";
    // anything else is HTTP. Read no further than the first byte that
    // leaves the magic; the HTTP reader starts from the bytes read, and
    // a deadline, close or error met here is its to report.
    char magic[4] = {};
    std::size_t got = 0;
    while (got < sizeof(magic) && std::memcmp(magic, frameMagic, got) == 0) {
        ssize_t n = recvUntil(fd, magic + got, sizeof(magic) - got, deadline);
        if (n <= 0)
            break;
        got += std::size_t(n);
    }
    if (got == sizeof(magic) && std::memcmp(magic, frameMagic, got) == 0) {
        serveFrames(fd, deadline);
        return;
    }
    serveHttpRequest(
        fd, deadline, options.maxBodyBytes,
        [this](const HttpRequest &req) { return route(req); },
        [this](int status, const char *reason) {
            if (status != 408)
                badRequests.fetch_add(1, std::memory_order_relaxed);
            return serviceError(status, reason);
        },
        std::string(magic, got));
}

void
ServiceServer::serveFrames(int fd, Deadline &deadline)
{
    // Any number of frames back to back. The sniff read the first
    // frame's magic, and the rest of that frame shares the connection's
    // deadline. Each later frame waits for its first byte under a
    // deadline of its own and reads the rest under one more, which
    // becomes the connection's (the core's closing drain runs under
    // it). Exit on a clean close at a frame boundary.
    char header[8] = {};
    std::memcpy(header, frameMagic, 4);
    std::size_t have = 4;
    for (;;) {
        if (!recvExact(fd, header + have, sizeof(header) - have, deadline))
            return;
        if (std::memcmp(header, frameMagic, 4) != 0) {
            writeFrame(fd, renderServiceError("bad frame magic"));
            return;
        }
        std::uint32_t len =
            (std::uint32_t(std::uint8_t(header[4])) << 24) |
            (std::uint32_t(std::uint8_t(header[5])) << 16) |
            (std::uint32_t(std::uint8_t(header[6])) << 8) |
            std::uint32_t(std::uint8_t(header[7]));
        if (len == 0 || len > options.maxBodyBytes) {
            badRequests.fetch_add(1, std::memory_order_relaxed);
            writeFrame(fd, renderServiceError(
                               "frame payload length out of range"));
            return;
        }
        std::string body(len, '\0');
        if (!recvExact(fd, body.data(), len, deadline))
            return;
        std::string cacheState;
        // Frame responses carry the JSON whatever the status.
        writeFrame(fd, handleSchedule(body, cacheState).second);

        if (recvUntil(fd, header, 1,
                      deadlineAfter(options.recvTimeoutMs)) <= 0)
            return; // clean close, timeout, or error between frames
        deadline = deadlineAfter(options.recvTimeoutMs);
        have = 1;
    }
}

HttpResponse
ServiceServer::route(const HttpRequest &req)
{
    const std::string &path = req.target;
    if (req.method == "GET" || req.method == "HEAD") {
        if (path == "/healthz")
            return {200, "text/plain; charset=utf-8", "ok\n", {}};
        if (path == "/stats")
            return {200, "application/json", statsJson(), {}};
        if (path == "/metrics") {
            return {200, "text/plain; version=0.0.4; charset=utf-8",
                    renderPrometheusText(MetricRegistry::global()), {}};
        }
        return serviceError(404, "not found");
    }
    if (req.method != "POST")
        return serviceError(405, "method not allowed");
    if (path != "/schedule" && path != "/batch")
        return serviceError(404, "not found");
    std::string cacheState;
    auto [status, body] = handleSchedule(req.body, cacheState);
    return {status, "application/json", std::move(body),
            cacheState.empty() ? ""
                               : "X-Balance-Cache: " + cacheState + "\r\n"};
}

std::pair<int, std::string>
ServiceServer::handleSchedule(const std::string &body,
                              std::string &cacheState)
{
    // Admission control: bound the number of bodies being parsed and
    // evaluated, independent of the connection queue. fetch_add
    // first so racing requests cannot both slip under the cap.
    int prior = inflight.fetch_add(1, std::memory_order_acq_rel);
    if (prior >= options.maxInflight) {
        inflight.fetch_sub(1, std::memory_order_acq_rel);
        shed429.fetch_add(1, std::memory_order_relaxed);
        MetricRegistry::global().counter("service.shed_429").add(1);
        return {429, renderServiceError(
                         "overloaded: too many in-flight requests")};
    }

    ServiceRequestSet set;
    std::string error;
    std::pair<int, std::string> out;
    if (!parseServiceRequestSet(body, options.protocol, set, &error)) {
        badRequests.fetch_add(1, std::memory_order_relaxed);
        MetricRegistry::global().counter("service.errors").add(1);
        out = {400, renderServiceError(error)};
    } else {
        std::vector<ServiceResult> results =
            scheduleEngine->runBatch(set.requests);
        served.fetch_add((long long)(results.size()),
                         std::memory_order_relaxed);
        std::size_t hits = 0;
        for (const ServiceResult &r : results)
            hits += r.cacheHit ? 1 : 0;
        cacheState = hits == results.size()  ? "hit"
                     : hits == 0             ? "miss"
                                             : "partial";
        out = {200, renderServiceResponse(results, set.batch)};
    }
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    return out;
}

std::string
ServiceServer::statsJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("served").value(served.load(std::memory_order_relaxed));
    w.key("inflight").value(
        (long long)(inflight.load(std::memory_order_relaxed)));
    w.key("shed_429").value(shed429.load(std::memory_order_relaxed));
    w.key("shed_503").value(shed503.load(std::memory_order_relaxed));
    w.key("bad_requests").value(
        badRequests.load(std::memory_order_relaxed));
    w.key("cache").beginObject();
    if (scheduleEngine) {
        const GraphContextCache &c = scheduleEngine->cache();
        w.key("hits").value(c.hits());
        w.key("misses").value(c.misses());
        w.key("evictions").value(c.evictions());
        w.key("size").value((long long)(c.size()));
        w.key("capacity").value((long long)(c.capacity()));
    }
    w.endObject();
    w.endObject();
    std::string out = w.str();
    out += '\n';
    return out;
}

} // namespace balance
