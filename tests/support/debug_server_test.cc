/**
 * The diagnostics HTTP server (support/debug_server.hh): ephemeral
 * port binding, every endpoint's status and content type, unknown
 * paths, the HTTP framing itself (a raw-socket client, no libcurl),
 * HEAD, 503 shedding, and idempotent stop.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "loopback_http.hh"
#include "support/debug_server.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/progress.hh"

namespace balance
{
namespace
{

TEST(DebugServer, BindsEphemeralPortAndServesHealth)
{
    DebugServer server;
    DebugServerOptions opts;
    opts.port = 0;
    ASSERT_TRUE(server.start(opts));
    EXPECT_TRUE(server.active());
    EXPECT_GT(server.port(), 0);
    EXPECT_EQ(server.address(), "http://127.0.0.1:" +
                                    std::to_string(server.port()));

    std::string resp = httpGet(server.port(), "/healthz");
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
    EXPECT_NE(resp.find("Content-Length: 3"), std::string::npos);
    EXPECT_EQ(bodyOf(resp), "ok\n");
    server.stop();
    EXPECT_FALSE(server.active());
}

TEST(DebugServer, MetricsEndpointSpeaksExpositionFormat)
{
    MetricRegistry::global().counter("debug_server_test.hits").add(5);
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    std::string resp = httpGet(server.port(), "/metrics");
    server.stop();

    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(resp.find(
                  "Content-Type: text/plain; version=0.0.4; "
                  "charset=utf-8"),
              std::string::npos)
        << resp;
    std::string body = bodyOf(resp);
    EXPECT_NE(body.find("# TYPE balance_debug_server_test_hits "
                        "counter"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("balance_debug_server_test_hits 5"),
              std::string::npos);
}

TEST(DebugServer, ProgressEndpointServesTrackerJson)
{
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    // start() must have enabled the global tracker.
    EXPECT_TRUE(ProgressTracker::global().enabled());
    ProgressTracker::global().phase("debug-server-test").start(3);

    std::string resp = httpGet(server.port(), "/progress");
    server.stop();
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(resp.find("Content-Type: application/json"),
              std::string::npos);
    std::string body = bodyOf(resp);
    EXPECT_TRUE(jsonLooksValid(body)) << body;
    EXPECT_NE(body.find("\"debug-server-test\""), std::string::npos);
}

TEST(DebugServer, TraceAndHwCountersAreValidJson)
{
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    for (const char *path : {"/trace", "/hwcounters"}) {
        std::string resp = httpGet(server.port(), path);
        EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos)
            << path;
        EXPECT_TRUE(jsonLooksValid(bodyOf(resp)))
            << path << ": " << bodyOf(resp);
    }
    server.stop();
}

TEST(DebugServer, UnknownPathIs404AndBadMethodIs405)
{
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    EXPECT_NE(httpGet(server.port(), "/nope").find("HTTP/1.1 404"),
              std::string::npos);

    // Raw POST through the same socket path.
    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string resp = exchangeOn(fd, "POST /metrics HTTP/1.1\r\n\r\n");
    EXPECT_NE(resp.find("HTTP/1.1 405"), std::string::npos) << resp;
    server.stop();
}

// Regression: a garbage request line used to come back as 404 (the
// unparsed target fell through to the not-found branch). Protocol
// violations are the client's fault and must say so: 400.
TEST(DebugServer, MalformedRequestLineIs400)
{
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    EXPECT_NE(rawExchange(server.port(), "GARBAGE\r\n\r\n")
                  .find("HTTP/1.1 400"),
              std::string::npos);
    // No HTTP version at all -> still 400, not 404.
    EXPECT_NE(rawExchange(server.port(), "GET /healthz\r\n\r\n")
                  .find("HTTP/1.1 400"),
              std::string::npos);
    // Unknown paths keep their 404.
    EXPECT_NE(httpGet(server.port(), "/nope").find("HTTP/1.1 404"),
              std::string::npos);
    server.stop();
}

// Regression: serveConnection used to block in recv() forever, so one
// stalled client pinned a handler thread for the process lifetime.
// With the poll() deadline the server answers 408 and moves on.
TEST(DebugServer, StallingClientGets408AndDoesNotWedgeServer)
{
    DebugServer server;
    DebugServerOptions opts;
    opts.recvTimeoutMs = 200;
    ASSERT_TRUE(server.start(opts));

    // Half a request line, then silence: the deadline must fire.
    std::string resp = rawExchange(server.port(), "GET /heal");
    EXPECT_NE(resp.find("HTTP/1.1 408"), std::string::npos) << resp;

    // A connection that never sends a byte times out the same way,
    // and the handler thread it occupied is free to serve the next
    // request immediately afterwards.
    EXPECT_NE(rawExchange(server.port(), "").find("HTTP/1.1 408"),
              std::string::npos);
    EXPECT_NE(httpGet(server.port(), "/healthz")
                  .find("HTTP/1.1 200 OK"),
              std::string::npos);
    server.stop();
}

TEST(DebugServer, HeadHealthzCarriesLengthButNoBody)
{
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    std::string resp =
        rawExchange(server.port(), "HEAD /healthz HTTP/1.1\r\n\r\n");
    server.stop();
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
    EXPECT_NE(resp.find("Content-Length: 3\r\n"), std::string::npos);
    EXPECT_NE(resp.find("\r\n\r\n"), std::string::npos);
    EXPECT_EQ(bodyOf(resp), "");
}

TEST(DebugServer, QueueOverflowSheds503AsText)
{
    // One handler thread, queue of one: a stalling client pins the
    // handler, a second fills the queue, the third must be shed.
    DebugServer server;
    DebugServerOptions opts;
    opts.handlerThreads = 1;
    opts.maxQueue = 1;
    opts.recvTimeoutMs = 2000;
    ASSERT_TRUE(server.start(opts));

    int staller = connectLoopback(server.port());
    ASSERT_GE(staller, 0);
    // Give the handler time to adopt the stalled connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int queued = connectLoopback(server.port());
    ASSERT_GE(queued, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::string resp = rawExchange(server.port(), "");
    EXPECT_NE(resp.find("HTTP/1.1 503 Service Unavailable"),
              std::string::npos)
        << resp;
    EXPECT_NE(resp.find("Content-Type: text/plain; charset=utf-8"),
              std::string::npos);
    EXPECT_EQ(bodyOf(resp), "overloaded\n");

    ::close(staller);
    ::close(queued);
    server.stop();
}

TEST(DebugServer, StopIsIdempotentAndRestartable)
{
    DebugServer server;
    DebugServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    int firstPort = server.port();
    server.stop();
    server.stop(); // no-op

    ASSERT_TRUE(server.start(opts));
    EXPECT_GT(server.port(), 0);
    EXPECT_NE(server.port(), 0);
    server.stop();
    (void)firstPort;
}

// Regression: stop() waited out the acceptor's 100-ms poll slice, so
// every start/stop cycle of either server took about 100 ms.
TEST(DebugServer, StartStopCycleIsQuick)
{
    DebugServer server;
    DebugServerOptions opts;
    for (int round = 0; round < 3; ++round) {
        auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(server.start(opts));
        server.stop();
        auto took = std::chrono::steady_clock::now() - t0;
        EXPECT_LT(took, std::chrono::milliseconds(50))
            << "round " << round << " took "
            << std::chrono::duration_cast<std::chrono::milliseconds>(took)
                   .count()
            << " ms";
    }
}

TEST(DebugServer, HandlePathDispatch)
{
    int status = 0;
    std::string type;
    EXPECT_EQ(DebugServer::handlePath("/healthz", status, type),
              "ok\n");
    EXPECT_EQ(status, 200);
    DebugServer::handlePath("/metrics", status, type);
    EXPECT_EQ(type, "text/plain; version=0.0.4; charset=utf-8");
    DebugServer::handlePath("/definitely-not-a-route", status, type);
    EXPECT_EQ(status, 404);
}

} // namespace
} // namespace balance
