#include "serve/wire.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/logging.hh"
#include "sim/report.hh"

namespace ltp {

namespace {

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/** Frames are tiny; Nagle would add 40ms hiccups to the request/
 *  response ping-pong. */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

namespace {

/**
 * connect() bounded by @p timeoutMs: flip the socket non-blocking,
 * start the connect, poll for writability, then read SO_ERROR for the
 * real outcome.  @return true on success; on failure @p err is set
 * (blocking mode is restored for the caller either way).
 */
bool
connectWithTimeout(int fd, const struct sockaddr *addr, socklen_t len,
                   int timeoutMs, std::string &err)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        err = std::strerror(errno);
        return false;
    }
    bool ok = false;
    if (::connect(fd, addr, len) == 0) {
        ok = true;
    } else if (errno == EINPROGRESS) {
        struct pollfd pfd = {fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc == 0) {
            err = "connect timed out after " +
                  std::to_string(timeoutMs) + " ms";
        } else if (rc < 0) {
            err = std::strerror(errno);
        } else {
            int so_err = 0;
            socklen_t so_len = sizeof(so_err);
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &so_len);
            if (so_err == 0)
                ok = true;
            else
                err = std::strerror(so_err);
        }
    } else {
        err = std::strerror(errno);
    }
    ::fcntl(fd, F_SETFL, flags);
    return ok;
}

} // namespace

int
connectTcp(const std::string &host, int port, int timeoutMs)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    std::string service = std::to_string(port);
    int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
    if (rc != 0)
        throw std::runtime_error("cannot resolve " + host + ":" +
                                 service + ": " + gai_strerror(rc));

    int fd = -1;
    std::string err = "no addresses";
    for (struct addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            err = std::strerror(errno);
            continue;
        }
        bool connected =
            timeoutMs > 0
                ? connectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                                     timeoutMs, err)
                : ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
        if (connected)
            break;
        if (timeoutMs <= 0)
            err = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        throw std::runtime_error("cannot connect to " + host + ":" +
                                 service + ": " + err +
                                 " (is `ltp serve` running?)");
    setNoDelay(fd);
    return fd;
}

Listener::Listener(int port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throwErrno("socket");
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int e = errno;
        ::close(fd_);
        fd_ = -1;
        errno = e;
        throwErrno("bind port " + std::to_string(port));
    }
    if (::listen(fd_, 64) != 0) {
        int e = errno;
        ::close(fd_);
        fd_ = -1;
        errno = e;
        throwErrno("listen");
    }

    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    else
        port_ = port;
}

Listener::~Listener()
{
    close();
}

int
Listener::accept()
{
    if (fd_ < 0)
        return -1;
    int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0)
        setNoDelay(conn);
    return conn; // -1 after close() (EBADF/EINVAL) ends the loop
}

void
Listener::close()
{
    if (fd_ >= 0) {
        // shutdown() first: close() alone does not unblock a thread
        // already parked in accept() on Linux.
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        fd_ = -1;
    }
}

LineConn::~LineConn()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineConn::readLine(std::string &out)
{
    for (;;) {
        // Only the bytes received since the last scan can hold the
        // newline: rescanning from 0 would be quadratic in frame size.
        auto nl = buf_.find('\n', scanned_);
        if (nl != std::string::npos) {
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            scanned_ = 0;
            return true;
        }
        scanned_ = buf_.size();
        if (scanned_ > kMaxFrameBytes) {
            // Cut the peer off and free the partial frame now; the
            // connection object may outlive this reader.
            std::string().swap(buf_);
            ::shutdown(fd_, SHUT_RDWR);
            return false;
        }
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineConn::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
        // MSG_NOSIGNAL: a vanished peer must surface as a false
        // return, not a process-killing SIGPIPE.
        ssize_t n = ::send(fd_, framed.data() + sent,
                           framed.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
LineConn::writeFrame(const JsonValue &frame)
{
    return writeLine(writeJsonCompact(frame));
}

void
LineConn::shutdown()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

JsonValue
objectFrame(const std::string &type)
{
    JsonValue frame;
    frame.kind = JsonValue::Kind::Object;
    frame.object["type"] = jsonStr(type);
    return frame;
}

JsonValue
objectFrame(std::uint64_t id, const std::string &type)
{
    JsonValue frame = objectFrame(type);
    frame.object["id"] = jsonU64(id);
    return frame;
}

JsonValue
progressFrame(std::uint64_t done, std::uint64_t total, std::uint64_t hits)
{
    JsonValue prog = objectFrame("progress");
    prog.object["done"] = jsonU64(done);
    prog.object["total"] = jsonU64(total);
    prog.object["hits"] = jsonU64(hits);
    return prog;
}

JsonValue
errorFrame(std::uint64_t id, const std::string &message)
{
    JsonValue frame = objectFrame(id, "error");
    frame.object["message"] = jsonStr(message);
    return frame;
}

std::uint64_t
frameU64(const JsonValue &obj, const std::string &key)
{
    const std::string &lexeme =
        jsonField(obj, key, JsonValue::Kind::Number).str;
    std::uint64_t out = 0;
    if (!u64FromLexeme(lexeme, &out))
        throw std::runtime_error("frame field '" + key +
                                 "' is not an exact u64: " + lexeme);
    return out;
}

std::string
frameStr(const JsonValue &obj, const std::string &key)
{
    return jsonField(obj, key, JsonValue::Kind::String).str;
}

const JsonValue &
frameObject(const JsonValue &obj, const std::string &key)
{
    return jsonField(obj, key, JsonValue::Kind::Object);
}

JsonValue
metricsJson(const Metrics &m)
{
    return parseJson(metricsToJson(m));
}

} // namespace ltp
