#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <future>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hh"
#include "serve/worker_pool.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"
#include "trace/trace_workload.hh"

namespace ltp {

namespace {

/** One client connection: the line pipe + its progress counters. */
struct Conn
{
    explicit Conn(int fd) : pipe(fd) {}

    LineConn pipe;
    std::atomic<std::uint64_t> total{0}; ///< run requests received
    std::atomic<std::uint64_t> done{0};  ///< results sent
    std::atomic<std::uint64_t> hits{0};  ///< of those, hit || deduped
};

/**
 * Reject unresolvable workload names before they reach the pool:
 * makeKernel() treats an unknown name as a user error and fatal()s
 * (exits), which is right for the CLI but must not let one bad
 * request take down the daemon and every other client with it.
 */
void
validateWorkload(const std::string &name)
{
    if (isSmtName(name)) {
        for (const std::string &member : smtMembers(name))
            validateWorkload(member);
        return;
    }
    if (isTraceName(name)) {
        // Throws std::runtime_error on a missing/corrupt trace file.
        loadTraceCached(tracePath(name));
        return;
    }
    for (const SuiteEntry &e : kernelSuite())
        if (e.name == name)
            return;
    throw std::runtime_error("unknown workload '" + name + "'");
}

/**
 * Pool size for the daemon.  In worker mode the pool's tasks mostly
 * block on remote replies, so it is oversized past the local core
 * count — queued cells must reach the WorkerPool's cost-ordered queue
 * (where LPT picks the longest first) rather than sit invisibly in
 * the FIFO task queue behind it.
 */
int
poolThreads(const ServeOptions &o, const WorkerPool *workers)
{
    if (o.threads > 0 || !workers)
        return o.threads;
    return std::max(ThreadPool::defaultThreads(),
                    2 * workers->totalCapacity());
}

/** The layers under the dedupe: [CachedBackend →] WorkerPool | Local. */
ExecBackendPtr
cellChain(const std::shared_ptr<ResultCache> &cache,
          const std::shared_ptr<WorkerPool> &workers)
{
    ExecBackendPtr compute =
        workers ? ExecBackendPtr(workers) : LocalBackend::instance();
    if (!cache)
        return compute;
    return std::make_shared<CachedBackend>(std::move(compute), cache);
}

/**
 * Top of the daemon's cell chain: identical cells in flight at the
 * same moment (same key hex, from any client or scenario) compute
 * once.  Owns the daemon's cell counters and the count of executing
 * cells that a graceful shutdown drains.
 */
class DedupeBackend : public ExecBackend
{
  public:
    explicit DedupeBackend(ExecBackendPtr inner) : inner_(std::move(inner))
    {
    }

    std::string name() const override { return "daemon"; }

    bool wantsKey() const override { return true; }

    CellResult
    runCell(const CellKey &key, const SimConfig &cfg,
            const std::string &workload, const RunLengths &lengths,
            const SamplePlan &sampling) override
    {
        bool deduped = false;
        return run(key, cfg, workload, lengths, sampling, &deduped);
    }

    /** runCell that also reports whether this request waited on
     *  another's computation (its result is then a hit too).  A
     *  failed computation rethrows in every waiter. */
    CellResult run(const CellKey &key, const SimConfig &cfg,
                   const std::string &workload, const RunLengths &lengths,
                   const SamplePlan &sampling, bool *deduped);

    /** Wait up to @p deadlineMs for executing cells to finish.
     *  @return how many of them did. */
    std::size_t drain(int deadlineMs);

    std::size_t
    active() const
    {
        std::lock_guard<std::mutex> lock(activeMutex_);
        return active_;
    }

    std::atomic<std::uint64_t> computed{0};
    std::atomic<std::uint64_t> cacheHits{0}; ///< local, peer, or worker
    std::atomic<std::uint64_t> deduped{0};

  private:
    /** Counts one executing cell for drain(), exception-safely. */
    struct ActiveGuard
    {
        explicit ActiveGuard(DedupeBackend &d) : owner(d)
        {
            std::lock_guard<std::mutex> lock(owner.activeMutex_);
            owner.active_ += 1;
        }
        ~ActiveGuard()
        {
            std::lock_guard<std::mutex> lock(owner.activeMutex_);
            owner.active_ -= 1;
            owner.activeCv_.notify_all();
        }
        DedupeBackend &owner;
    };

    ExecBackendPtr inner_;

    // key hex -> the result of the request computing it.  An entry
    // exists only while its owner is computing on another thread, so a
    // waiter always has an active computer to wait on — no
    // idle-deadlock for any pool size.
    std::mutex inflightMutex_;
    std::map<std::string, std::shared_future<CellResult>> inflight_;

    mutable std::mutex activeMutex_;
    std::condition_variable activeCv_;
    std::size_t active_ = 0;
};

CellResult
DedupeBackend::run(const CellKey &key, const SimConfig &cfg,
                   const std::string &workload, const RunLengths &lengths,
                   const SamplePlan &sampling, bool *wasDeduped)
{
    ActiveGuard active(*this);
    // run frames arrive keyless; the Runner of a scenario frame has
    // already derived its keys.
    CellKey k = key.empty() ? cellKeyFor(cfg, workload, lengths, &sampling)
                            : key;

    // Claim the key BEFORE the cache is consulted: the winner is the
    // only request that touches the cache, the workers, or the
    // simulator for this key.  The cache store happens before the
    // claim is released, so a late request either dedupes onto the
    // running computation or hits the cache — never re-runs.
    std::promise<CellResult> mine;
    std::shared_future<CellResult> theirs;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        auto it = inflight_.find(k.hex);
        if (it != inflight_.end())
            theirs = it->second;
        else
            inflight_.emplace(k.hex, mine.get_future().share());
    }
    *wasDeduped = theirs.valid();
    if (theirs.valid()) {
        deduped.fetch_add(1, std::memory_order_relaxed);
        CellResult r = theirs.get();
        r.cacheHit = true;
        return r;
    }

    auto release = [&]() {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflight_.erase(k.hex);
    };
    try {
        CellResult r = inner_->runCell(k, cfg, workload, lengths, sampling);
        (r.cacheHit ? cacheHits : computed)
            .fetch_add(1, std::memory_order_relaxed);
        release();
        mine.set_value(r);
        return r;
    } catch (...) {
        release();
        mine.set_exception(std::current_exception());
        throw;
    }
}

std::size_t
DedupeBackend::drain(int deadlineMs)
{
    std::unique_lock<std::mutex> lock(activeMutex_);
    std::size_t before = active_;
    activeCv_.wait_for(lock, std::chrono::milliseconds(deadlineMs),
                       [this]() { return active_ == 0; });
    return active_ < before ? before - active_ : 0;
}

} // namespace

struct ServerImpl
{
    explicit ServerImpl(const ServeOptions &o)
        : opts(o), listener(o.port),
          cache(o.useCache ? std::make_shared<ResultCache>(o.cacheDir)
                           : nullptr),
          workers(o.workers.empty()
                      ? nullptr
                      : std::make_shared<WorkerPool>(
                            o.workers, ServeClientOptions{}, o.quiet)),
          cells(std::make_shared<DedupeBackend>(cellChain(cache, workers))),
          pool(poolThreads(o, workers.get()))
    {
    }

    ServeOptions opts;
    Listener listener;
    std::shared_ptr<ResultCache> cache;  ///< null = --no-cache
    std::shared_ptr<WorkerPool> workers; ///< null = compute locally
    /** The one cell path of run and scenario frames alike. */
    std::shared_ptr<DedupeBackend> cells;
    ThreadPool pool;

    std::thread acceptThread;
    std::mutex connMutex;
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::thread> connThreads;

    std::atomic<std::uint64_t> requests{0};

    std::mutex stateMutex;
    std::condition_variable stateCv;
    bool stopping = false;
    bool stopped = false;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Conn> conn);
    void handleFrame(const std::shared_ptr<Conn> &conn,
                     const std::string &line);
    void handleRun(const std::shared_ptr<Conn> &conn, std::uint64_t id,
                   const JsonValue &frame);
    void handleScenario(const std::shared_ptr<Conn> &conn,
                        std::uint64_t id, const JsonValue &frame);
    JsonValue statsFrame(std::uint64_t id) const;
    void requestStop();

    void
    note(const char *fmt, ...) const
    {
        if (opts.quiet)
            return;
        va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "ltp serve: ");
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
    }
};

void
ServerImpl::acceptLoop()
{
    for (;;) {
        int fd = listener.accept();
        if (fd < 0)
            return; // listener closed: shutting down
        auto conn = std::make_shared<Conn>(fd);
        std::lock_guard<std::mutex> lock(connMutex);
        conns.push_back(conn);
        connThreads.emplace_back(
            [this, conn]() { connectionLoop(conn); });
    }
}

void
ServerImpl::connectionLoop(std::shared_ptr<Conn> conn)
{
    std::string line;
    while (conn->pipe.readLine(line))
        handleFrame(conn, line);
}

void
ServerImpl::handleFrame(const std::shared_ptr<Conn> &conn,
                        const std::string &line)
{
    std::uint64_t id = 0;
    try {
        JsonValue frame = parseJson(line);
        if (!frame.isObject())
            throw std::runtime_error("frame is not an object");
        id = frameU64(frame, "id");
        std::string type = frameStr(frame, "type");
        requests.fetch_add(1, std::memory_order_relaxed);

        if (type == "run") {
            handleRun(conn, id, frame);
            return;
        }
        if (type == "scenario") {
            // Runs to completion on this connection's reader thread:
            // a long scenario blocks only its submitter, never the
            // pool or other clients.
            handleScenario(conn, id, frame);
            return;
        }
        if (type == "lookup") {
            CellKey key{frameStr(frame, "key"), ""};
            JsonValue reply = objectFrame(id, "lookup");
            Metrics m;
            bool found = cache && cache->lookup(key, &m);
            reply.object["found"] = jsonBool(found);
            if (found)
                reply.object["metrics"] = metricsJson(m);
            conn->pipe.writeFrame(reply);
            return;
        }
        if (type == "ping") {
            JsonValue reply = objectFrame(id, "pong");
            reply.object["version"] =
                jsonU64(std::uint64_t(kServeProtocolVersion));
            conn->pipe.writeFrame(reply);
            return;
        }
        if (type == "stats") {
            conn->pipe.writeFrame(statsFrame(id));
            return;
        }
        if (type == "shutdown") {
            // Drain before acknowledging: the reply's `drained` count
            // tells the operator how many in-flight cells finished
            // (instead of dying) thanks to the graceful window.
            std::size_t drained = cells->drain(opts.drainTimeoutMs);
            JsonValue reply = objectFrame(id, "ok");
            reply.object["drained"] = jsonU64(std::uint64_t(drained));
            conn->pipe.writeFrame(reply);
            note("shutdown requested (%zu in-flight cell(s) drained)",
                 drained);
            requestStop();
            return;
        }
        throw std::runtime_error("unknown request type '" + type + "'");
    } catch (const std::exception &e) {
        conn->pipe.writeFrame(errorFrame(id, e.what()));
    }
}

JsonValue
ServerImpl::statsFrame(std::uint64_t id) const
{
    JsonValue reply = objectFrame(id, "stats");
    reply.object["requests"] = jsonU64(requests.load());
    reply.object["computed"] = jsonU64(cells->computed.load());
    reply.object["cacheHits"] = jsonU64(cells->cacheHits.load());
    reply.object["deduped"] = jsonU64(cells->deduped.load());
    reply.object["threads"] = jsonU64(std::uint64_t(pool.threadCount()));
    reply.object["activeCells"] = jsonU64(std::uint64_t(cells->active()));
    if (workers) {
        std::uint64_t peerHits = 0;
        JsonValue arr;
        arr.kind = JsonValue::Kind::Array;
        for (const WorkerStats &w : workers->stats()) {
            peerHits += w.peerHits;
            JsonValue ws;
            ws.kind = JsonValue::Kind::Object;
            ws.object["worker"] = jsonStr(w.address);
            ws.object["capacity"] = jsonU64(std::uint64_t(w.capacity));
            ws.object["up"] = jsonBool(w.up);
            ws.object["dispatched"] = jsonU64(w.dispatched);
            ws.object["completed"] = jsonU64(w.completed);
            ws.object["retried"] = jsonU64(w.retried);
            ws.object["failed"] = jsonU64(w.failed);
            ws.object["peerHits"] = jsonU64(w.peerHits);
            arr.array.push_back(std::move(ws));
        }
        reply.object["peerHits"] = jsonU64(peerHits);
        reply.object["workers"] = std::move(arr);
    }
    if (cache) {
        CacheStats cs = cache->stats();
        reply.object["cacheEntries"] = jsonU64(cs.entries);
        reply.object["cacheBytes"] = jsonU64(cs.bytes);
        reply.object["cacheDir"] = jsonStr(cache->dir());
    }
    return reply;
}

void
ServerImpl::handleRun(const std::shared_ptr<Conn> &conn, std::uint64_t id,
                      const JsonValue &frame)
{
    // Parse on the reader thread so malformed requests fail fast (and
    // the pool only ever sees well-formed work).
    SimConfig cfg;
    applyConfigJson(cfg, frameObject(frame, "config"), "config");
    std::string workload = frameStr(frame, "workload");
    validateWorkload(workload);
    RunLengths lengths = parseLengths(frameObject(frame, "lengths"),
                                      "lengths");
    // Optional interval-sampling plan (protocol v2); absent = full
    // detail, exactly as v1 clients expect.
    SamplePlan sampling;
    auto spIt = frame.object.find("sampling");
    if (spIt != frame.object.end())
        sampling = parseSampling(spIt->second, "sampling");
    // A frame's `key` is never trusted: the dedupe layer derives the
    // key from the config, workload and lengths it will actually run,
    // so no frame can file its result under another cell's key.
    CellKey key{"", workload};

    conn->total.fetch_add(1, std::memory_order_relaxed);

    pool.submit([this, conn, id, key, cfg = std::move(cfg),
                 workload = std::move(workload), lengths, sampling]() {
        JsonValue reply;
        bool hit = false;
        try {
            bool deduped = false;
            CellResult r =
                cells->run(key, cfg, workload, lengths, sampling, &deduped);
            hit = r.cacheHit;
            reply = objectFrame(id, "result");
            reply.object["hit"] = jsonBool(r.cacheHit && !deduped);
            reply.object["deduped"] = jsonBool(deduped);
            reply.object["metrics"] = metricsJson(r.metrics);
        } catch (const std::exception &e) {
            reply = errorFrame(id, e.what());
        }

        std::uint64_t d =
            conn->done.fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t h =
            hit ? conn->hits.fetch_add(1, std::memory_order_relaxed) + 1
                : conn->hits.load(std::memory_order_relaxed);
        // Streamed progress: this connection's counters after each
        // completed cell, written BEFORE the result so a client that
        // has observed N results has, by TCP ordering, already
        // received N progress pushes — the count is deterministic.
        conn->pipe.writeFrame(progressFrame(
            d, conn->total.load(std::memory_order_relaxed), h));
        conn->pipe.writeFrame(reply);
    });
}

void
ServerImpl::handleScenario(const std::shared_ptr<Conn> &conn,
                           std::uint64_t id, const JsonValue &frame)
{
    // Compile server-side: relative trace paths resolve against the
    // daemon's --trace-dir, so the client ships scenario text, never
    // trace files.
    Scenario scenario =
        scenarioFromJson(frameObject(frame, "scenario"), opts.traceDir);

    // The stock Runner over the same cell chain as run frames: the
    // grid and its group reduction are bit-identical to a local sweep,
    // while each cell still dedupes, caches, and fans out to workers.
    // The Runner spawns its own pool, so the daemon's task pool is
    // never deadlocked by this long-running request (which occupies
    // only the submitting connection's reader thread).
    int threads = pool.threadCount();
    SweepSpec spec = scenario.compile(threads, cells);

    // Streamed progress keeps the client's silence timeout fed during
    // long runs (the Runner throttles to ~4 frames/s).
    ProgressFn progress = [&conn](const Progress &p) {
        conn->pipe.writeFrame(progressFrame(p.done, p.total, p.hits));
    };
    SweepResult res = Runner(threads, cells).run(spec, progress);

    // The reply is the `--json` report of the run plus the frame
    // fields, so both ends share the report codec.
    JsonValue reply = sweepResultToJson(res);
    reply.object["id"] = jsonU64(id);
    reply.object["type"] = jsonStr("sweep");
    reply.object["cacheHits"] = jsonU64(res.cacheHits);
    conn->pipe.writeFrame(reply);
}

void
ServerImpl::requestStop()
{
    std::lock_guard<std::mutex> lock(stateMutex);
    stopping = true;
    stateCv.notify_all();
}

Server::Server(const ServeOptions &opts)
    : impl_(std::make_unique<ServerImpl>(opts))
{
}

Server::~Server()
{
    stop();
}

int
Server::port() const
{
    return impl_->listener.port();
}

void
Server::start()
{
    impl_->note("listening on port %d (%d worker threads, cache %s)",
                port(), impl_->pool.threadCount(),
                impl_->cache ? impl_->cache->dir().c_str()
                             : "disabled");
    if (impl_->workers)
        impl_->note("frontend mode: %zu remote worker(s), "
                    "%d total remote slots",
                    impl_->workers->workerCount(),
                    impl_->workers->totalCapacity());
    impl_->acceptThread =
        std::thread([this]() { impl_->acceptLoop(); });
}

void
Server::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(impl_->stateMutex);
    impl_->stateCv.wait(lock, [this]() { return impl_->stopping; });
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(impl_->stateMutex);
        if (impl_->stopped) {
            return;
        }
        impl_->stopped = true;
        impl_->stopping = true;
        impl_->stateCv.notify_all();
    }

    // Unblock and join the accept loop first so no new connections
    // arrive while the existing ones drain.
    impl_->listener.close();
    if (impl_->acceptThread.joinable())
        impl_->acceptThread.join();

    // Unblock every connection reader stuck in recv(); in-flight pool
    // tasks still hold shared_ptrs to their Conn, so late responses
    // hit a closed socket harmlessly instead of a dangling pointer.
    std::lock_guard<std::mutex> lock(impl_->connMutex);
    for (const auto &conn : impl_->conns)
        conn->pipe.shutdown();
    for (std::thread &t : impl_->connThreads)
        if (t.joinable())
            t.join();
    // ~ThreadPool drains the queue when impl_ is destroyed.
}

} // namespace ltp
