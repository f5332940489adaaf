/**
 * @file
 * One raw-socket HTTP client for the server tests: connect to a port
 * on 127.0.0.1, send bytes, read the whole response until the server
 * closes. No libcurl, so the tests see the exact bytes on the wire.
 */

#ifndef BALANCE_TESTS_LOOPBACK_HTTP_HH
#define BALANCE_TESTS_LOOPBACK_HTTP_HH

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>

namespace balance
{

/** @return a socket connected to 127.0.0.1:@p port, or -1. */
inline int
connectLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** @return everything @p fd receives until the peer closes. */
inline std::string
readToClose(int fd)
{
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, std::size_t(n));
    return resp;
}

/** Send @p wire on @p fd, read to close, close @p fd.
 *  @return the response. */
inline std::string
exchangeOn(int fd, const std::string &wire)
{
    if (!wire.empty())
        ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    std::string resp = readToClose(fd);
    ::close(fd);
    return resp;
}

/** Raw bytes in, full response out; "" if the connect fails. */
inline std::string
rawExchange(int port, const std::string &wire)
{
    int fd = connectLoopback(port);
    return fd < 0 ? "" : exchangeOn(fd, wire);
}

/** One HTTP/1.1 GET of @p path. @return the full response. */
inline std::string
httpGet(int port, const std::string &path)
{
    return rawExchange(port, "GET " + path + " HTTP/1.1\r\n"
                             "Host: 127.0.0.1\r\n"
                             "Connection: close\r\n\r\n");
}

/** @return the response body (after the blank line). */
inline std::string
bodyOf(const std::string &resp)
{
    std::size_t pos = resp.find("\r\n\r\n");
    return pos == std::string::npos ? "" : resp.substr(pos + 4);
}

} // namespace balance

#endif // BALANCE_TESTS_LOOPBACK_HTTP_HH
