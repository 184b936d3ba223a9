/**
 * @file
 * Client side of the `ltp serve` protocol: an ExecBackend that sends
 * every cell to the daemon, plus the one-shot control RPCs the CLI
 * uses (`ltp serve ping|stats|stop`).
 *
 * One TCP connection is shared by all of the Runner's pool workers:
 * runCell() frames the request with a fresh id, registers a promise,
 * and blocks on its future; a single reader thread demultiplexes the
 * (possibly out-of-order) response stream back to the waiting ids.
 * Server-streamed progress frames are counted but otherwise dropped —
 * the Runner derives its own client-side progress from completed
 * futures.
 */

#ifndef LTP_SERVE_CLIENT_HH
#define LTP_SERVE_CLIENT_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/wire.hh"
#include "sim/exec_backend.hh"
#include "sim/runner.hh"

namespace ltp {

/**
 * Transport robustness knobs.  Every limit exists so a hung or
 * unreachable daemon fails the sweep with an error naming the server,
 * instead of blocking a pool worker forever:
 *
 *  - connect: each attempt is bounded, and attempts are bounded;
 *  - replies: a request times out after `replyTimeoutMs` with no
 *    traffic AT ALL from the server.  Any received frame — another
 *    caller's result, a streamed progress line — resets the clock, so
 *    a busy daemon grinding through a deep queue is never mistaken
 *    for a dead one, while an accept-and-go-silent daemon is caught
 *    within one timeout.
 */
struct ServeClientOptions
{
    int connectTimeoutMs = 5000; ///< per connect attempt
    int connectAttempts = 3;     ///< bounded retry, then fail
    int connectRetryDelayMs = 200;
    int replyTimeoutMs = 300000; ///< max server silence per request
};

/** ExecBackend running every cell on an `ltp serve` daemon. */
class ServeBackend : public ExecBackend
{
  public:
    /** Connects (bounded attempts) and starts the reader thread.
     *  @throws std::runtime_error naming @p host:@p port when the
     *  daemon stays unreachable. */
    ServeBackend(const std::string &host, int port,
                 const ServeClientOptions &opts = {});

    /** Closes the connection; pending requests fail. */
    ~ServeBackend() override;

    std::string name() const override { return "serve"; }

    /** The daemon derives each cell's key from the frame's content
     *  (trace CRCs from its own files); a client key is never sent. */
    bool wantsKey() const override { return false; }

    CellResult runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling) override;

    /** Probe the daemon's result cache for @p key without computing
     *  anything (the cache peer-lookup frame).  @return true and fill
     *  @p out on a hit. */
    bool lookup(const CellKey &key, Metrics *out);

    /**
     * Whole-scenario submission: send the scenario JSON in ONE
     * `scenario` frame; the daemon compiles and runs it server-side
     * (trace paths resolve against its --trace-dir) and replies with
     * the complete grid.  Server-streamed progress frames keep the
     * silence timeout fed during long runs — see setProgressHandler.
     * @throws on transport failure or an `error` reply.
     */
    SweepResult submitScenario(const JsonValue &scenario);

    /** Send a bare `{"type":<type>}` request and return the reply
     *  frame (ping/stats/shutdown).  @throws on transport failure or
     *  an `error` reply. */
    JsonValue rpc(const std::string &type);

    /** "host:port" of the daemon, as error messages name it. */
    std::string address() const;

    /** Progress frames received from the server (observability). */
    std::uint64_t progressFrames() const;

    /** Install a callback invoked (from the reader thread) for every
     *  server-streamed progress frame. */
    void setProgressHandler(ProgressFn fn);

  private:
    void readerLoop();
    JsonValue call(JsonValue frame);

    ServeClientOptions opts_;
    std::string host_;
    int port_;
    std::unique_ptr<LineConn> conn_;
    std::thread reader_;

    mutable std::mutex mutex_;
    std::uint64_t nextId_ = 1;
    std::map<std::uint64_t, std::promise<JsonValue>> pending_;
    bool dead_ = false;
    std::string deadReason_;
    std::uint64_t progressFrames_ = 0;
    ProgressFn progressHandler_;
    /** Lines received, ever: the liveness signal behind the per-
     *  request reply timeout. */
    std::atomic<std::uint64_t> framesSeen_{0};
};

/** Parse --server=host:port ("" / ":7461" / "host" forms allowed). */
void parseHostPort(const std::string &spec, std::string *host,
                   int *port);

} // namespace ltp

#endif // LTP_SERVE_CLIENT_HH
