/**
 * @file
 * Transport for the `ltp serve` protocol: newline-delimited compact
 * JSON frames over TCP.
 *
 * One frame per line, rendered by writeJsonCompact (whose string
 * escaping guarantees no raw newline can appear inside a frame), so
 * the stream is trivially resynchronizable and debuggable with nc(1).
 * This header wraps the POSIX socket calls in three small pieces:
 *
 *  - Listener    — bind/listen on a port (0 = ephemeral, for tests),
 *                  accept() yielding connected fds;
 *  - connectTcp  — client-side connect to host:port;
 *  - LineConn    — a buffered, bidirectional line pipe over one fd
 *                  with a write mutex so concurrent responders (pool
 *                  workers finishing out of order) interleave whole
 *                  frames, never bytes.
 *
 * Below the transport sits the one frame codec both ends share:
 * frame builders and checked readers that name the missing or
 * mistyped field.  A frame's records (config, lengths, sampling plan)
 * are written and read through their field tables (sim/fields.hh).
 * Which frames exist is documented in server.hh and the "serve wire
 * protocol" section of README.md.
 */

#ifndef LTP_SERVE_WIRE_HH
#define LTP_SERVE_WIRE_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "common/json.hh"
#include "sim/metrics.hh"

namespace ltp {

/** Default `ltp serve` port (an unassigned registry hole). */
inline constexpr int kDefaultServePort = 7461;

/** Longest frame a LineConn accepts, in bytes (without the '\n').
 *  The largest frame the shipped scenarios produce is the `sweep`
 *  reply of fig10_tradeoffs, about 77 KB for 88 cells; a peer that
 *  sends more than this bound without a newline is cut off instead
 *  of growing the buffer without limit. */
inline constexpr std::size_t kMaxFrameBytes = std::size_t(16) << 20;

/** Connect to @p host:@p port.  @p timeoutMs > 0 bounds the connect
 *  itself (non-blocking connect + poll); 0 keeps the OS default.
 *  @return the connected fd.
 *  @throws std::runtime_error naming host/port on failure/timeout. */
int connectTcp(const std::string &host, int port, int timeoutMs = 0);

/** Listening TCP socket (loopback-reachable; all interfaces). */
class Listener
{
  public:
    /** Bind + listen.  @p port 0 picks an ephemeral port (tests).
     *  @throws std::runtime_error on bind/listen failure. */
    explicit Listener(int port);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** The actually-bound port (resolves port 0). */
    int port() const { return port_; }

    /** Block for one connection.  @return the connected fd, or -1
     *  once close() has been called (the accept loop's exit signal). */
    int accept();

    /** Close the listening socket, unblocking accept(). */
    void close();

  private:
    int fd_ = -1;
    int port_ = 0;
};

/**
 * One connected socket carrying newline-delimited frames.  readLine is
 * single-consumer (one reader thread per connection); writeLine is
 * safe from any number of threads.
 */
class LineConn
{
  public:
    /** Takes ownership of @p fd. */
    explicit LineConn(int fd) : fd_(fd) {}
    ~LineConn();

    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    /** Read one line (without the '\n').  @return false on EOF,
     *  error, or a line longer than kMaxFrameBytes — the connection
     *  is done either way. */
    bool readLine(std::string &out);

    /** Write @p line + '\n' atomically w.r.t. other writers.
     *  @return false when the peer is gone. */
    bool writeLine(const std::string &line);

    /** writeLine of a compact-rendered JSON frame. */
    bool writeFrame(const JsonValue &frame);

    /** Half-close both directions, unblocking a reader stuck in
     *  recv() (used to tear down connection threads). */
    void shutdown();

  private:
    int fd_;
    std::string buf_;        ///< bytes received past the last line
    std::size_t scanned_ = 0; ///< prefix of buf_ known to hold no '\n'
    std::mutex writeMutex_;
};

/// @name Frame codec
/// @{

/** `{"type":<type>}` — a request before call() stamps its id. */
JsonValue objectFrame(const std::string &type);
/** `{"id":<id>,"type":<type>}` — a reply. */
JsonValue objectFrame(std::uint64_t id, const std::string &type);
JsonValue errorFrame(std::uint64_t id, const std::string &message);
/** The id-less `{"type":"progress","done","total","hits"}` push. */
JsonValue progressFrame(std::uint64_t done, std::uint64_t total,
                        std::uint64_t hits);

/** Field readers; each throws std::runtime_error naming @p key when
 *  it is absent or of the wrong kind. */
std::uint64_t frameU64(const JsonValue &obj, const std::string &key);
std::string frameStr(const JsonValue &obj, const std::string &key);
const JsonValue &frameObject(const JsonValue &obj, const std::string &key);

JsonValue metricsJson(const Metrics &m);

/// @}

} // namespace ltp

#endif // LTP_SERVE_WIRE_HH
