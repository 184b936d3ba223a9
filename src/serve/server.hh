/**
 * @file
 * The `ltp serve` daemon: a shared simulation service answering sweep
 * cells over TCP so many clients (or repeated CI runs) share one
 * result cache and one thread pool.
 *
 * Protocol (one compact-JSON frame per line, see serve/wire.hh):
 *
 *   → {"id":N,"type":"run","workload":"<name>",
 *      "config":{...},"lengths":{"funcWarm":F,"pipeWarm":P,"detail":D},
 *      "sampling":{"fastForward":F,"warmup":W,"detail":D,"samples":N}}
 *      (the optional "sampling" object selects interval sampling; the
 *      daemon derives the cell key and ignores any "key" sent)
 *   ← {"id":N,"type":"result","hit":B,"deduped":B,"metrics":{...}}
 *   ← {"type":"progress","done":D,"total":T,"hits":H}   (per connection)
 *   → {"id":N,"type":"scenario","scenario":{...}}       (whole scenario)
 *   ← {"id":N,"type":"sweep","sweep":S,"threads":T,"simulations":N,
 *      "cacheHits":H,"wall_ms":W,"results":[{"row":R,"series":S,
 *      "metrics":{...}},...]}           (the `--json` report + frame)
 *   → {"id":N,"type":"lookup","key":"<64-hex>"}         (cache probe)
 *   ← {"id":N,"type":"lookup","found":B,"metrics":{...}} (if found)
 *   → {"id":N,"type":"ping"}       ← {"id":N,"type":"pong","version":V}
 *   → {"id":N,"type":"stats"}      ← {"id":N,"type":"stats",...}
 *   → {"id":N,"type":"shutdown"}   ← {"id":N,"type":"ok","drained":D}
 *                                     (after draining, then exits)
 *   ← {"id":N,"type":"error","message":"..."}            (any failure)
 *
 * Every cell — of a `run` frame or of a submitted `scenario`, which
 * the stock Runner runs server-side — goes down one ExecBackend chain
 * built at construction:
 *
 *   dedupe → CachedBackend (unless --no-cache) → WorkerPool | LocalBackend
 *
 *  - dedupe (server.cc): identical cells in flight at the same moment
 *    (same CellKey hex, any client) compute once; the others wait and
 *    reply with deduped=true, or rethrow the one failure.  It owns the
 *    computed/cacheHits/deduped counters and the shutdown drain.
 *  - CachedBackend: the same on-disk ResultCache a local sweep uses,
 *    so a warm daemon and a warm local cache are interchangeable.
 *  - WorkerPool (serve/worker_pool.hh) when started with
 *    --worker=host:port: peer cache lookup, LPT dispatch to remote
 *    daemons, in-process fallback.  Otherwise LocalBackend.
 *
 * Requests are pipelined: each connection has one reader thread that
 * parses frames and submits `run` cells to the shared pool, so
 * responses can arrive out of submission order — clients match them by
 * id.  A `scenario` frame runs on its connection's reader thread,
 * with trace paths resolved against --trace-dir.
 */

#ifndef LTP_SERVE_SERVER_HH
#define LTP_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.hh"

namespace ltp {

class ResultCache;
class ThreadPool;
struct ServerImpl;

/** Bump when the frame schema changes incompatibly.  v2 added the
 *  optional `sampling` object to `run` frames (interval sampling).
 *  v3 added `scenario` (whole-scenario submission) and `lookup`
 *  (cache peer probe) requests, the `drained` field on the shutdown
 *  reply, and the `workers` array in stats; v1/v2 clients are
 *  unaffected — every v2 frame behaves exactly as before.  v4 makes
 *  the `sweep` reply the `--json` report format (`sweep` replaces
 *  `name`; `wall_ms` has 3 decimals). */
inline constexpr int kServeProtocolVersion = 4;

/** `ltp serve` configuration. */
struct ServeOptions
{
    int port = kDefaultServePort; ///< 0 = ephemeral (tests read port())
    int threads = 0;         ///< pool size; <= 0 = hardware concurrency
    std::string cacheDir;    ///< "" = ResultCache::defaultDir()
    bool useCache = true;    ///< false = compute-only (still dedupes)
    bool quiet = false;      ///< suppress per-connection stderr notes
    /** Remote worker daemons ("host:port"); non-empty turns this
     *  daemon into a frontend that dispatches cells to them. */
    std::vector<std::string> workers;
    /** Base directory for resolving relative trace paths in submitted
     *  scenarios ("" = the daemon's working directory). */
    std::string traceDir;
    /** Max wait for in-flight cells to finish on shutdown. */
    int drainTimeoutMs = 10000;
};

/** The daemon: accept loop + per-connection readers + shared pool. */
class Server
{
  public:
    /** Binds and listens immediately (so port() is valid), but serves
     *  nothing until start().  @throws std::runtime_error on bind
     *  failure. */
    explicit Server(const ServeOptions &opts);

    /** Stops and joins everything still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (resolves an ephemeral request). */
    int port() const;

    /** Spawn the accept loop; returns immediately. */
    void start();

    /** Block until a client sends `shutdown` (or stop() is called). */
    void waitForShutdown();

    /** Initiate shutdown: close the listener, unblock readers, drain
     *  the pool, join all threads.  Idempotent. */
    void stop();

  private:
    std::unique_ptr<ServerImpl> impl_;
};

} // namespace ltp

#endif // LTP_SERVE_SERVER_HH
