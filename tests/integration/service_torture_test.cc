/**
 * Torture tests for the scheduling service (service/server.hh): the
 * full socket stack under concurrent clients, hostile inputs
 * (oversized, truncated, malformed bodies and frames), both wire
 * protocols on one port, admission-control shedding, the one receive
 * deadline per connection, HEAD, the /stats counters, and the
 * bitwise-determinism contract across the cache and thread knobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "loopback_http.hh"
#include "service/server.hh"
#include "support/json.hh"
#include "workload/generator.hh"
#include "workload/paper_figures.hh"
#include "workload/sb_io.hh"

namespace balance
{
namespace
{

struct Reply
{
    int status = 0;
    std::string body;
    std::string cacheHeader;
};

Reply
parseReply(const std::string &raw)
{
    Reply r;
    std::size_t headEnd = raw.find("\r\n\r\n");
    if (headEnd == std::string::npos)
        return r;
    r.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
    r.body = raw.substr(headEnd + 4);
    std::size_t h = raw.find("X-Balance-Cache: ");
    if (h != std::string::npos && h < headEnd) {
        std::size_t start = h + std::strlen("X-Balance-Cache: ");
        r.cacheHeader =
            raw.substr(start, raw.find("\r\n", start) - start);
    }
    return r;
}

Reply
post(int port, const std::string &target, const std::string &body)
{
    std::string wire = "POST " + target + " HTTP/1.1\r\n"
                       "Host: 127.0.0.1\r\n"
                       "Content-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    return parseReply(rawExchange(port, wire));
}

Reply
get(int port, const std::string &target)
{
    return parseReply(rawExchange(
        port, "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n"));
}

/** @return the integer after "name": in @p json, or -1. */
long long
jsonInt(const std::string &json, const std::string &name)
{
    std::size_t at = json.find("\"" + name + "\":");
    return at == std::string::npos
               ? -1
               : std::atoll(json.c_str() + at + name.size() + 3);
}

std::string
scheduleBody(const Superblock &sb)
{
    JsonWriter w;
    w.beginObject()
        .key("superblock").value(writeSuperblock(sb))
        .key("machine").value("GP4")
        .key("scheduler").value("balance")
        .endObject();
    return w.str();
}

std::vector<Superblock>
population(int n)
{
    GeneratorParams params;
    Rng rng(0x70757265f00dULL);
    std::vector<Superblock> out;
    for (int i = 0; i < n; ++i)
        out.push_back(generateSuperblock(
            rng, params, "torture_sb_" + std::to_string(i)));
    return out;
}

/** Send one SBP1 frame and read one framed response. */
bool
frameExchange(int fd, const std::string &payload, std::string &reply)
{
    char header[8] = {'S', 'B', 'P', '1'};
    std::uint32_t len = std::uint32_t(payload.size());
    header[4] = char((len >> 24) & 0xff);
    header[5] = char((len >> 16) & 0xff);
    header[6] = char((len >> 8) & 0xff);
    header[7] = char(len & 0xff);
    if (::send(fd, header, sizeof(header), MSG_NOSIGNAL) !=
        ssize_t(sizeof(header)))
        return false;
    if (::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL) !=
        ssize_t(payload.size()))
        return false;

    char respHeader[8];
    std::size_t got = 0;
    while (got < sizeof(respHeader)) {
        ssize_t n = ::recv(fd, respHeader + got,
                           sizeof(respHeader) - got, 0);
        if (n <= 0)
            return false;
        got += std::size_t(n);
    }
    if (std::memcmp(respHeader, "SBP1", 4) != 0)
        return false;
    std::uint32_t respLen =
        (std::uint32_t(std::uint8_t(respHeader[4])) << 24) |
        (std::uint32_t(std::uint8_t(respHeader[5])) << 16) |
        (std::uint32_t(std::uint8_t(respHeader[6])) << 8) |
        std::uint32_t(std::uint8_t(respHeader[7]));
    reply.resize(respLen);
    got = 0;
    while (got < respLen) {
        ssize_t n = ::recv(fd, reply.data() + got, respLen - got, 0);
        if (n <= 0)
            return false;
        got += std::size_t(n);
    }
    return true;
}

TEST(ServiceTorture, ConcurrentClientsDuringThreadedEvaluation)
{
    ServiceServer server;
    ServiceServerOptions opts;
    opts.handlerThreads = 8;
    opts.maxInflight = 16;
    opts.threads = 0; // batch fan-out on all cores
    ASSERT_TRUE(server.start(opts));

    std::vector<Superblock> sbs = population(6);
    std::vector<std::string> bodies;
    for (const Superblock &sb : sbs)
        bodies.push_back(scheduleBody(sb));

    // Reference responses, serially, before the storm.
    std::vector<std::string> expected;
    for (const std::string &b : bodies) {
        Reply r = post(server.port(), "/schedule", b);
        ASSERT_EQ(r.status, 200) << r.body;
        expected.push_back(r.body);
    }

    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c) {
        clients.emplace_back([&, c] {
            for (int round = 0; round < 5; ++round) {
                std::size_t i =
                    std::size_t(c + round) % bodies.size();
                Reply r =
                    post(server.port(), "/schedule", bodies[i]);
                if (r.status != 200)
                    failures.fetch_add(1);
                else if (r.body != expected[i])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0)
        << "responses under concurrency diverged from serial ones";
    server.stop();
}

TEST(ServiceTorture, CacheHitIsBitwiseIdenticalToMiss)
{
    ServiceServer server;
    ServiceServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    std::string body = scheduleBody(paperFigure6());

    Reply miss = post(server.port(), "/schedule", body);
    Reply hit = post(server.port(), "/schedule", body);
    server.stop();

    ASSERT_EQ(miss.status, 200) << miss.body;
    ASSERT_EQ(hit.status, 200);
    EXPECT_EQ(miss.cacheHeader, "miss");
    EXPECT_EQ(hit.cacheHeader, "hit");
    EXPECT_EQ(miss.body, hit.body);
    // The body must not leak the cache disposition anywhere.
    EXPECT_EQ(miss.body.find("cache"), std::string::npos);
}

TEST(ServiceTorture, HostileBodiesGetTheRightStatuses)
{
    ServiceServer server;
    ServiceServerOptions opts;
    opts.maxBodyBytes = 2048;
    opts.recvTimeoutMs = 300;
    ASSERT_TRUE(server.start(opts));
    int port = server.port();

    // Declared length over the limit: 413 without reading the body.
    EXPECT_EQ(post(port, "/schedule", std::string(4096, 'x')).status,
              413);

    // Truncated body: Content-Length promises more than arrives;
    // the receive deadline turns it into 408 instead of a wedge.
    std::string truncated = "POST /schedule HTTP/1.1\r\n"
                            "Content-Length: 100\r\n\r\nonly-this";
    EXPECT_NE(rawExchange(port, truncated).find("408"),
              std::string::npos);

    // Bytes beyond the declared length are a framing violation.
    std::string overlong = "POST /schedule HTTP/1.1\r\n"
                           "Content-Length: 2\r\n\r\nfour";
    EXPECT_NE(rawExchange(port, overlong).find("400"),
              std::string::npos);

    // Malformed JSON, valid HTTP: 400 with a JSON error body.
    Reply bad = post(port, "/schedule", "{\"superblock\":");
    EXPECT_EQ(bad.status, 400);
    EXPECT_TRUE(jsonLooksValid(bad.body)) << bad.body;
    EXPECT_NE(bad.body.find("error"), std::string::npos);

    // Semantically bad request: unknown machine.
    Reply unknown = post(
        port, "/schedule",
        "{\"superblock\":\"superblock x\\nop 0 int 1\\n"
        "branch 1 1.0 1\\nend\\n\",\"machine\":\"vliw99\"}");
    EXPECT_EQ(unknown.status, 400);
    EXPECT_NE(unknown.body.find("machine"), std::string::npos);

    // Garbage request line: 400; unknown path keeps 404; bad method
    // on a scheduling path: 405.
    EXPECT_NE(rawExchange(port, "GARBAGE\r\n\r\n").find("400"),
              std::string::npos);
    EXPECT_EQ(get(port, "/nope").status, 404);
    EXPECT_NE(rawExchange(port, "PUT /schedule HTTP/1.1\r\n"
                                "Content-Length: 0\r\n\r\n")
                  .find("405"),
              std::string::npos);
    server.stop();
}

TEST(ServiceTorture, FrameProtocolServesBatchesAndRejectsGarbage)
{
    ServiceServer server;
    ServiceServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    std::string body = scheduleBody(paperFigure6());

    // HTTP and frames answer identically on one port.
    Reply viaHttp = post(server.port(), "/schedule", body);
    ASSERT_EQ(viaHttp.status, 200);

    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string first, second;
    ASSERT_TRUE(frameExchange(fd, body, first));
    // Same connection carries another frame.
    ASSERT_TRUE(frameExchange(fd, body, second));
    ::close(fd);
    EXPECT_EQ(first, viaHttp.body);
    EXPECT_EQ(second, viaHttp.body);

    // Zero-length frame: framed JSON error.
    fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string err;
    EXPECT_TRUE(frameExchange(fd, "", err));
    EXPECT_NE(err.find("error"), std::string::npos) << err;
    ::close(fd);

    // A frame body that is not valid JSON comes back as a framed
    // parse error, not a closed connection.
    fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(frameExchange(fd, "not json at all", err));
    EXPECT_NE(err.find("error"), std::string::npos);
    ::close(fd);
    server.stop();
}

TEST(ServiceTorture, QueueOverflowSheds503)
{
    // One handler thread, queue of one: a stalling client pins the
    // handler, a second fills the queue, the third must be shed.
    ServiceServer server;
    ServiceServerOptions opts;
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
    EXPECT_NE(resp.find("503"), std::string::npos) << resp;
    EXPECT_NE(resp.find("overloaded"), std::string::npos);

    ::close(staller);
    ::close(queued);
    server.stop();
}

TEST(ServiceTorture, StatsCountShedsAndReadRefusals)
{
    ServiceServer server;
    ServiceServerOptions opts;
    opts.handlerThreads = 1;
    opts.maxQueue = 1;
    opts.maxBodyBytes = 2048;
    opts.recvTimeoutMs = 2000;
    ASSERT_TRUE(server.start(opts));
    int port = server.port();

    int staller = connectLoopback(port);
    ASSERT_GE(staller, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int queued = connectLoopback(port);
    ASSERT_GE(queued, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_NE(rawExchange(port, "").find("503"), std::string::npos);
    ::close(staller);
    ::close(queued);
    // Until the handler has drained both, a request may be shed too.
    for (int i = 0; i < 100 && get(port, "/healthz").status != 200; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));

    // One 413; a 404 and a 405 are routing answers, not bad requests.
    EXPECT_EQ(post(port, "/schedule", std::string(4096, 'x')).status,
              413);
    EXPECT_EQ(get(port, "/nope").status, 404);
    EXPECT_NE(rawExchange(port, "PUT /schedule HTTP/1.1\r\n\r\n")
                  .find("405"),
              std::string::npos);

    Reply stats = get(port, "/stats");
    ASSERT_EQ(stats.status, 200);
    EXPECT_GE(jsonInt(stats.body, "shed_503"), 1) << stats.body;
    EXPECT_EQ(jsonInt(stats.body, "bad_requests"), 1) << stats.body;
    server.stop();
}

// Regression: the protocol sniff and the HTTP reader each ran under a
// deadline of their own, so a connection that sent nothing, or
// stalled inside the frame magic, held its handler for two timeouts.
TEST(ServiceTorture, StalledConnectionIsRefusedWithinOneDeadline)
{
    ServiceServer server;
    ServiceServerOptions opts;
    opts.recvTimeoutMs = 600;
    ASSERT_TRUE(server.start(opts));
    auto bound = std::chrono::milliseconds(opts.recvTimeoutMs * 3 / 2);

    for (const std::string wire : {"", "S"}) {
        auto t0 = std::chrono::steady_clock::now();
        std::string resp = rawExchange(server.port(), wire);
        auto took = std::chrono::steady_clock::now() - t0;
        EXPECT_NE(resp.find("HTTP/1.1 408"), std::string::npos)
            << "'" << wire << "': " << resp;
        EXPECT_LT(took, bound)
            << "'" << wire << "' was refused after "
            << std::chrono::duration_cast<std::chrono::milliseconds>(took)
                   .count()
            << " ms";
    }

    // A magic prefix and then a half-close is a truncated request,
    // not a stall: 400.
    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    ::send(fd, "S", 1, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    std::string resp = readToClose(fd);
    ::close(fd);
    EXPECT_NE(resp.find("HTTP/1.1 400"), std::string::npos) << resp;
    server.stop();
}

// Regression: a refusal was written and the connection closed with
// bytes of the refused request still unread, so the kernel answered
// the close with a reset and the client could lose the refusal.
TEST(ServiceTorture, RefusalsArriveWholeOverUnreadBytes)
{
    ServiceServer server;
    ServiceServerOptions opts;
    opts.maxBodyBytes = 1024;
    ASSERT_TRUE(server.start(opts));

    // A good frame, then one with a bad magic and its payload behind
    // it. The client reads nothing until the server is done.
    int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string first;
    ASSERT_TRUE(frameExchange(fd, scheduleBody(paperFigure6()), first));
    const char bad[] = {'X', 'X', 'X', 'X', 0, 0, 0, 3, 'a', 'b', 'c'};
    ASSERT_EQ(::send(fd, bad, sizeof(bad), MSG_NOSIGNAL),
              ssize_t(sizeof(bad)));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::string resp = readToClose(fd);
    ::close(fd);
    ASSERT_GE(resp.size(), 8u);
    EXPECT_EQ(resp.substr(0, 4), "SBP1");
    std::size_t len = (std::size_t(std::uint8_t(resp[6])) << 8) |
                      std::size_t(std::uint8_t(resp[7]));
    EXPECT_EQ(resp.size(), 8 + len);
    EXPECT_NE(resp.find("bad frame magic"), std::string::npos) << resp;

    // A body over the limit, sent whole: 413, not a reset.
    fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);
    std::string wire = "POST /schedule HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Length: 16384\r\n\r\n" +
                       std::string(16384, 'x');
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              ssize_t(wire.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    resp = readToClose(fd);
    ::close(fd);
    EXPECT_NE(resp.find("HTTP/1.1 413"), std::string::npos) << resp;
    EXPECT_NE(resp.find("request too large"), std::string::npos) << resp;
    server.stop();
}

TEST(ServiceTorture, InflightOverflowSheds429)
{
    ServiceServer server;
    ServiceServerOptions opts;
    opts.handlerThreads = 8;
    opts.maxInflight = 1;
    ASSERT_TRUE(server.start(opts));

    // Weighty batch bodies so evaluations overlap; with eight
    // handlers racing into a single admission slot, some round must
    // observe a 429. Retry a few rounds to dodge lucky serialization.
    std::vector<Superblock> sbs = population(8);
    JsonWriter w;
    w.beginObject().key("requests").beginArray();
    for (const Superblock &sb : sbs) {
        w.beginObject()
            .key("superblock").value(writeSuperblock(sb))
            .endObject();
    }
    w.endArray().endObject();
    std::string body = w.str();

    std::atomic<int> got429{0}, got200{0};
    for (int round = 0; round < 20 && got429.load() == 0; ++round) {
        std::vector<std::thread> clients;
        for (int c = 0; c < 8; ++c) {
            clients.emplace_back([&] {
                Reply r = post(server.port(), "/schedule", body);
                if (r.status == 429)
                    got429.fetch_add(1);
                else if (r.status == 200)
                    got200.fetch_add(1);
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    EXPECT_GT(got429.load(), 0)
        << "no request was ever shed with maxInflight=1";
    EXPECT_GT(got200.load(), 0) << "no request was ever admitted";

    // The service recovers: a lone request is served normally.
    EXPECT_EQ(post(server.port(), "/schedule",
                   scheduleBody(paperFigure6()))
                  .status,
              200);
    server.stop();
}

TEST(ServiceTorture, StatsAndMetricsStayServedAndValid)
{
    ServiceServer server;
    ServiceServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    post(server.port(), "/schedule", scheduleBody(paperFigure6()));

    Reply health = get(server.port(), "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");

    Reply stats = get(server.port(), "/stats");
    EXPECT_EQ(stats.status, 200);
    EXPECT_TRUE(jsonLooksValid(stats.body)) << stats.body;
    EXPECT_NE(stats.body.find("\"served\""), std::string::npos);
    EXPECT_NE(stats.body.find("\"cache\""), std::string::npos);

    Reply metrics = get(server.port(), "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(
        metrics.body.find("balance_service_request_latency_us"),
        std::string::npos)
        << "request-latency histogram missing from /metrics";
    server.stop();
}

TEST(ServiceTorture, HeadHealthzCarriesLengthButNoBody)
{
    ServiceServer server;
    ServiceServerOptions opts;
    ASSERT_TRUE(server.start(opts));
    std::string resp =
        rawExchange(server.port(), "HEAD /healthz HTTP/1.1\r\n\r\n");
    server.stop();
    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
    EXPECT_NE(resp.find("Content-Length: 3\r\n"), std::string::npos);
    EXPECT_NE(resp.find("\r\n\r\n"), std::string::npos);
    EXPECT_EQ(bodyOf(resp), "");
}

} // namespace
} // namespace balance
