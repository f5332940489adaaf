#include "support/http.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace balance
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Max bytes of request line + headers. */
constexpr std::size_t maxHeadBytes = 16 * 1024;

/** Pending-connection backlog handed to listen(). */
constexpr int listenBacklog = 128;

/** Bytes a connection's close reads off at most (closeAfterDrain). */
constexpr std::size_t maxDrainBytes = 64 * 1024;

/** Outcome of readHttpRequest (see the status mapping in the file
 *  comment). */
enum class HttpReadResult
{
    Ok,        ///< request fully read and parsed
    Closed,    ///< peer closed before sending anything
    Timeout,   ///< deadline expired mid-request (-> 408)
    TooLarge,  ///< head or declared body over limit (-> 413)
    Malformed, ///< framing or header syntax error (-> 400)
};

/** poll() timeout until @p deadline: -1 never, else >= 0 ms. */
int
waitMs(Deadline deadline)
{
    if (deadline == Deadline::max())
        return -1;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    return left < 0 ? 0 : int(left > 1 << 30 ? 1 << 30 : left);
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

/** Read and parse one request whose first bytes are @p data. On Ok,
 *  @p out is fully populated; otherwise its contents are unspecified. */
HttpReadResult
readHttpRequest(int fd, HttpRequest &out, std::size_t maxBodyBytes,
                Deadline deadline, std::string data)
{
    // Accumulate until the head terminator; anything past it is the
    // start of the body.
    char buf[4096];
    std::size_t headEnd;
    for (;;) {
        headEnd = data.find("\r\n\r\n");
        if (headEnd != std::string::npos)
            break;
        if (data.size() > maxHeadBytes)
            return HttpReadResult::TooLarge;
        ssize_t n = recvUntil(fd, buf, sizeof(buf), deadline);
        if (n == -2)
            return HttpReadResult::Timeout;
        if (n < 0)
            return HttpReadResult::Malformed;
        if (n == 0) {
            return data.empty() ? HttpReadResult::Closed
                                : HttpReadResult::Malformed;
        }
        data.append(buf, std::size_t(n));
    }

    // Request line: METHOD SP TARGET SP HTTP/x.y
    std::size_t lineEnd = data.find("\r\n");
    std::string line = data.substr(0, lineEnd);
    std::size_t sp1 = line.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        sp1 == 0 || sp2 == sp1 + 1)
        return HttpReadResult::Malformed;
    out.method = line.substr(0, sp1);
    out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    out.version = line.substr(sp2 + 1);
    if (out.version.rfind("HTTP/", 0) != 0 || out.target.empty())
        return HttpReadResult::Malformed;

    // Header block.
    std::size_t pos = lineEnd + 2;
    while (pos < headEnd) {
        std::size_t end = data.find("\r\n", pos);
        std::string header = data.substr(pos, end - pos);
        pos = end + 2;
        std::size_t colon = header.find(':');
        if (colon == std::string::npos || colon == 0)
            return HttpReadResult::Malformed;
        out.headers.emplace_back(toLower(trim(header.substr(0, colon))),
                                 trim(header.substr(colon + 1)));
    }

    // Body: Content-Length only. Chunked encoding is out of scope —
    // reject it rather than silently misread the framing.
    if (out.header("transfer-encoding"))
        return HttpReadResult::Malformed;
    std::size_t bodyLen = 0;
    if (const std::string *cl = out.header("content-length")) {
        errno = 0;
        char *endp = nullptr;
        unsigned long long v = std::strtoull(cl->c_str(), &endp, 10);
        if (errno != 0 || endp == cl->c_str() || *endp != '\0')
            return HttpReadResult::Malformed;
        if (v > maxBodyBytes)
            return HttpReadResult::TooLarge;
        bodyLen = std::size_t(v);
    }
    out.body = data.substr(headEnd + 4);
    if (out.body.size() > bodyLen)
        return HttpReadResult::Malformed; // bytes beyond the declared body
    while (out.body.size() < bodyLen) {
        ssize_t n = recvUntil(fd, buf, sizeof(buf), deadline);
        if (n == -2)
            return HttpReadResult::Timeout;
        if (n <= 0)
            return HttpReadResult::Malformed; // truncated body
        out.body.append(buf, std::size_t(n));
        if (out.body.size() > bodyLen)
            return HttpReadResult::Malformed;
    }
    return HttpReadResult::Ok;
}

const char *
httpStatusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 408:
        return "Request Timeout";
      case 413:
        return "Payload Too Large";
      case 429:
        return "Too Many Requests";
      case 500:
        return "Internal Server Error";
      case 503:
        return "Service Unavailable";
      default:
        return "Error";
    }
}

/** Send @p r; @p headOnly keeps the Content-Length but no body. */
void
writeHttpResponse(int fd, const HttpResponse &r, bool headOnly = false)
{
    std::string head = "HTTP/1.1 " + std::to_string(r.status) + " " +
                       httpStatusText(r.status) + "\r\n";
    head += "Content-Type: " + r.contentType + "\r\n";
    head += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
    head += r.extraHeaders;
    head += "Connection: close\r\n\r\n";
    if (writeAllFd(fd, head.data(), head.size()) && !headOnly)
        writeAllFd(fd, r.body.data(), r.body.size());
}

/**
 * Close @p fd without losing the answer. A close with unread bytes
 * (the rest of a refused frame or body) makes the kernel send RST,
 * and a client that has not read the answer yet then loses it. So
 * half-close first, which ends the answer cleanly, then read off what
 * the client still sends, at most maxDrainBytes and no later than
 * @p deadline, and close once the client closes too.
 */
void
closeAfterDrain(int fd, Deadline deadline)
{
    ::shutdown(fd, SHUT_WR);
    char buf[4096];
    for (std::size_t left = maxDrainBytes; left > 0;) {
        ssize_t n =
            recvUntil(fd, buf, std::min(sizeof(buf), left), deadline);
        if (n <= 0)
            break;
        left -= std::size_t(n);
    }
    ::close(fd);
}

} // namespace

Deadline
deadlineAfter(int timeoutMs)
{
    return timeoutMs <= 0
               ? Deadline::max()
               : Clock::now() + std::chrono::milliseconds(timeoutMs);
}

ssize_t
recvUntil(int fd, void *buf, std::size_t len, Deadline deadline)
{
    for (;;) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        int wait = waitMs(deadline);
        if (wait == 0)
            return -2;
        int rc = ::poll(&pfd, 1, wait);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (rc == 0)
            return -2; // deadline expired
        ssize_t n = ::recv(fd, buf, len, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return n;
    }
}

bool
recvExact(int fd, void *buf, std::size_t len, Deadline deadline)
{
    char *p = static_cast<char *>(buf);
    for (std::size_t done = 0; done < len;) {
        ssize_t n = recvUntil(fd, p + done, len - done, deadline);
        if (n <= 0)
            return false;
        done += std::size_t(n);
    }
    return true;
}

bool
writeAllFd(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    std::size_t done = 0;
    while (done < len) {
        ssize_t n = ::send(fd, p + done, len - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // peer went away; nothing useful to do
        }
        done += std::size_t(n);
    }
    return true;
}

const std::string *
HttpRequest::header(const std::string &nameLower) const
{
    for (const auto &[name, value] : headers) {
        if (name == nameLower)
            return &value;
    }
    return nullptr;
}

void
serveHttpRequest(int fd, Deadline deadline, std::size_t maxBodyBytes,
                 const HttpRoute &route, const HttpRefuse &refuse,
                 std::string received)
{
    HttpRequest req;
    switch (readHttpRequest(fd, req, maxBodyBytes, deadline,
                            std::move(received))) {
      case HttpReadResult::Ok:
        break;
      case HttpReadResult::Closed:
        return;
      case HttpReadResult::Timeout:
        writeHttpResponse(fd, refuse(408, "request timeout"));
        return;
      case HttpReadResult::TooLarge:
        writeHttpResponse(fd, refuse(413, "request too large"));
        return;
      case HttpReadResult::Malformed:
        writeHttpResponse(fd, refuse(400, "bad request"));
        return;
    }
    std::size_t q = req.target.find('?');
    if (q != std::string::npos)
        req.target.resize(q);
    writeHttpResponse(fd, route(req), req.method == "HEAD");
}

HttpServer::~HttpServer() { stop(); }

bool
HttpServer::start(const char *name, const HttpServerOptions &opts,
                  Serve serveFn, Shed shedFn)
{
    if (running.load(std::memory_order_acquire))
        return false;

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "%s: socket failed: %s\n", name,
                     std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
    if (::inet_pton(AF_INET, opts.bindAddress.c_str(), &addr.sin_addr) !=
        1) {
        std::fprintf(stderr, "%s: bad bind address '%s'\n", name,
                     opts.bindAddress.c_str());
        ::close(fd);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        std::fprintf(stderr, "%s: bind to %s:%d failed: %s\n", name,
                     opts.bindAddress.c_str(), opts.port,
                     std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (::listen(fd, listenBacklog) < 0) {
        std::fprintf(stderr, "%s: listen failed: %s\n", name,
                     std::strerror(errno));
        ::close(fd);
        return false;
    }

    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &boundLen) < 0) {
        std::fprintf(stderr, "%s: getsockname failed: %s\n", name,
                     std::strerror(errno));
        ::close(fd);
        return false;
    }

    serve = std::move(serveFn);
    shed = std::move(shedFn);
    maxQueue = opts.maxQueue > 0 ? opts.maxQueue : 1;
    recvTimeoutMs = opts.recvTimeoutMs;
    listenFd = fd;
    boundPort = int(ntohs(bound.sin_port));
    boundAddress =
        "http://" + opts.bindAddress + ":" + std::to_string(boundPort);
    stopping.store(false, std::memory_order_release);
    running.store(true, std::memory_order_release);

    acceptor = std::thread([this] { acceptLoop(); });
    int nHandlers = opts.handlerThreads > 0 ? opts.handlerThreads : 1;
    handlers.reserve(std::size_t(nHandlers));
    for (int i = 0; i < nHandlers; ++i)
        handlers.emplace_back([this] { handlerLoop(); });

    std::printf("%s: listening on %s\n", name, boundAddress.c_str());
    std::fflush(stdout);
    return true;
}

void
HttpServer::stop()
{
    if (!running.exchange(false, std::memory_order_acq_rel))
        return;
    {
        // The store must happen under the queue mutex: a handler
        // that has checked the wait predicate but not yet blocked
        // would otherwise miss this notification forever.
        std::lock_guard<std::mutex> lock(queueMutex);
        stopping.store(true, std::memory_order_release);
    }
    queueCv.notify_all();
    // Wake the acceptor from its poll: a shut-down listening socket
    // polls as hung up at once.
    ::shutdown(listenFd, SHUT_RDWR);
    if (acceptor.joinable())
        acceptor.join();
    for (std::thread &t : handlers) {
        if (t.joinable())
            t.join();
    }
    handlers.clear();
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        for (int fd : pending)
            ::close(fd);
        pending.clear();
    }
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
}

void
HttpServer::acceptLoop()
{
    while (!stopping.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        int rc = ::poll(&pfd, 1, -1); // stop() wakes it
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0 || !(pfd.revents & POLLIN))
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        bool full = false;
        {
            std::lock_guard<std::mutex> lock(queueMutex);
            if (int(pending.size()) >= maxQueue)
                full = true;
            else
                pending.push_back(fd);
        }
        if (full) {
            writeHttpResponse(fd, shed());
            ::close(fd);
        } else {
            queueCv.notify_one();
        }
    }
}

void
HttpServer::handlerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock, [this] {
                return stopping.load(std::memory_order_acquire) ||
                       !pending.empty();
            });
            if (stopping.load(std::memory_order_acquire))
                return;
            fd = pending.front();
            pending.pop_front();
        }
        Deadline deadline = deadlineAfter(recvTimeoutMs);
        serve(fd, deadline);
        closeAfterDrain(fd, deadline);
    }
}

} // namespace balance
