/**
 * @file
 * The one dependency-free HTTP/1.1 listener core under both front
 * ends: the diagnostics server (support/debug_server.hh) and the
 * scheduling service (service/server.hh). HttpServer binds, accepts
 * on one thread, queues accepted connections up to a bound (beyond it
 * each is shed with the front end's 503), and serves them on a small
 * handler pool. A front end supplies what is its own: how to serve an
 * adopted connection, and what to answer when shedding.
 *
 * Everything is blocking I/O under an explicit poll() deadline. The
 * core sets one absolute deadline when a handler adopts a connection,
 * and every read on that connection runs against it, so a client that
 * connects and then stalls holds a handler thread for at most
 * `recvTimeoutMs`, never forever. When the front end is done, the core
 * half-closes the connection and reads off what the client still sends
 * (a bounded amount, under the same deadline) before it closes, so an
 * answer sent over unread bytes, such as a refusal, is not lost to a
 * reset. stop() wakes the acceptor at once.
 *
 * serveHttpRequest reads exactly the subset both front ends need — a
 * request line, headers, and an optional Content-Length body — maps
 * each read failure to its status (deadline -> 408, head or body over
 * limit -> 413, bad framing -> 400), strips the query string, routes,
 * and answers HEAD without body bytes.
 */

#ifndef BALANCE_SUPPORT_HTTP_HH
#define BALANCE_SUPPORT_HTTP_HH

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace balance
{

/** Listener settings shared by both front ends. */
struct HttpServerOptions
{
    /** TCP port to bind; 0 picks an ephemeral port. */
    int port = 0;
    /** Bind address (loopback by default). */
    std::string bindAddress = "127.0.0.1";
    /** Handler pool size (connections served concurrently). */
    int handlerThreads = 4;
    /** Max accepted-but-unserved connections before 503-shedding. */
    int maxQueue = 64;
    /**
     * Receive deadline per connection, from the moment a handler
     * adopts it. A client that connects and stalls gets a 408 after
     * this long instead of pinning a handler thread forever. <= 0
     * disables the deadline (tests only).
     */
    int recvTimeoutMs = 5000;
};

/** An absolute receive deadline; Deadline::max() never expires. */
using Deadline = std::chrono::steady_clock::time_point;

/** @return the deadline @p timeoutMs from now (never if <= 0). */
Deadline deadlineAfter(int timeoutMs);

/**
 * recv() against @p deadline. Retries EINTR; polls until data, close,
 * or the deadline.
 * @return >0 bytes read, 0 peer closed, -1 socket error, -2 deadline
 *         expired.
 */
ssize_t recvUntil(int fd, void *buf, std::size_t len, Deadline deadline);

/** Read exactly @p len bytes before @p deadline. @return success. */
bool recvExact(int fd, void *buf, std::size_t len, Deadline deadline);

/**
 * Write all of @p len bytes, retrying short writes / EINTR.
 * @return false if the peer went away.
 */
bool writeAllFd(int fd, const void *data, std::size_t len);

/** One parsed HTTP/1.1 request. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ... (verbatim)
    std::string target;  ///< request target; routing strips the query
    std::string version; ///< "HTTP/1.1"
    /** Headers in arrival order; names lower-cased, values trimmed. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body; ///< Content-Length bytes (empty if none)

    /** @return the first header named @p nameLower, or nullptr. */
    const std::string *header(const std::string &nameLower) const;
};

/** One "Connection: close" response. */
struct HttpResponse
{
    int status = 200;
    std::string contentType;
    std::string body;
    /** Extra header lines, each ending "\r\n", sent just before
     *  "Connection: close". */
    std::string extraHeaders;
};

/** A front end's routes: the response to one read request. */
using HttpRoute = std::function<HttpResponse(const HttpRequest &)>;

/** A front end's refusal body for @p status, worded by @p reason. */
using HttpRefuse = std::function<HttpResponse(int status,
                                              const char *reason)>;

/**
 * Read one request from @p fd before @p deadline and answer it. A
 * read failure is answered with @p refuse (408 "request timeout", 413
 * "request too large", 400 "bad request"); a peer that closes before
 * sending a byte gets no answer. Otherwise @p route answers the
 * request, its target stripped of any query string, and a HEAD
 * response carries the real Content-Length but no body bytes.
 * @p received holds bytes already read from @p fd; they start the
 * request. Bodies over @p maxBodyBytes are refused with 413.
 */
void serveHttpRequest(int fd, Deadline deadline, std::size_t maxBodyBytes,
                      const HttpRoute &route, const HttpRefuse &refuse,
                      std::string received = {});

/** The listener core (see the file comment). */
class HttpServer
{
  public:
    /** Serves one adopted connection; every read runs against
     *  @p deadline, which the front end may move on (a frame
     *  connection gives each frame its own). The core then
     *  half-closes @p fd, reads off what the client still sends
     *  until the final deadline, and closes it. */
    using Serve = std::function<void(int fd, Deadline &deadline)>;
    /** The 503 answer for a connection shed by a full queue. */
    using Shed = std::function<HttpResponse()>;

    HttpServer() = default;
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind, listen, start the acceptor and handler threads, and print
     * "<name>: listening on http://<addr>:<port>" on stdout.
     * @return true on success; on failure logs to stderr, prefixed by
     *         @p name, and leaves the server inactive.
     */
    bool start(const char *name, const HttpServerOptions &opts,
               Serve serve, Shed shed);

    /** Stop all threads and close the socket. Idempotent. */
    void stop();

    /** @return true between a successful start() and stop(). */
    bool active() const { return running.load(std::memory_order_acquire); }

    /** @return the bound port (valid while active). */
    int port() const { return boundPort; }

    /** @return "http://<addr>:<port>" (valid while active). */
    const std::string &address() const { return boundAddress; }

  private:
    void acceptLoop();
    void handlerLoop();

    Serve serve;
    Shed shed;
    int maxQueue = 64;
    int recvTimeoutMs = 5000;
    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    int listenFd = -1;
    int boundPort = 0;
    std::string boundAddress;
    std::mutex queueMutex;
    std::condition_variable queueCv;
    std::deque<int> pending; ///< accepted, not yet adopted; queueMutex
    std::thread acceptor;
    std::vector<std::thread> handlers;
};

} // namespace balance

#endif // BALANCE_SUPPORT_HTTP_HH
