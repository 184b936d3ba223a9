/**
 * @file
 * Worker fan-out for the serve daemon: persistent connections to N
 * remote `ltp serve` daemons behind one ExecBackend — the compute
 * layer of a frontend's cell chain (dedupe → cache → WorkerPool, see
 * server.hh).  runCell() answers from, in order:
 *
 *  1. a cache peer: the up workers' caches, probed with `lookup`
 *     frames, so a cell any worker ever computed is never re-simulated
 *     (the CachedBackend above stores the answer back);
 *  2. LPT (longest-processing-time) dispatch: the caller blocks while
 *     its cell waits in a queue ordered by estimated cost (cellCost);
 *     whenever a slot frees, the *longest* queued cell goes to the
 *     worker with the most free capacity.  LTP configs simulate ~2×
 *     slower (BENCH_simspeed.json), so longest-first keeps the
 *     makespan near the LPT bound instead of letting a late
 *     heavyweight cell serialize the tail;
 *  3. LocalBackend::instance() once every worker is down, so the sweep
 *     still completes, bit-identically.
 *
 * A transport error (worker died, hung, unreachable) marks the worker
 * down and re-dispatches the cell; a `serve error:` reply is the
 * cell's own fault and propagates without retry.  Downed workers stay
 * down — reconnecting is the operator's job (restart the frontend).
 */

#ifndef LTP_SERVE_WORKER_POOL_HH
#define LTP_SERVE_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/client.hh"

namespace ltp {

/** Snapshot of one worker's lifetime counters (`ltp serve stats`). */
struct WorkerStats
{
    std::string address; ///< host:port
    int capacity = 0;    ///< concurrent cells (the worker's pool size)
    bool up = true;
    std::uint64_t dispatched = 0; ///< cells sent to this worker
    std::uint64_t completed = 0;  ///< successful replies
    std::uint64_t retried = 0;    ///< dispatches that were re-dispatches
    std::uint64_t failed = 0; ///< transport, workload, or probe failures
    std::uint64_t peerHits = 0;   ///< cache peer-lookup hits answered
};

/**
 * Estimated relative wall cost of one cell, the LPT ordering key:
 * detailed instructions (per sample under a sampling plan), doubled
 * for LTP-enabled configs (they simulate ~2× slower), scaled by the
 * SMT thread count.  Only the ordering matters, not the unit.
 */
double cellCost(const SimConfig &cfg, const RunLengths &lengths,
                const SamplePlan &sampling);

/** Persistent connections to N worker daemons + the LPT dispatcher. */
class WorkerPool : public ExecBackend
{
  public:
    /**
     * Connect to every worker (bounded attempts each) and read its
     * capacity from a stats RPC.  @throws std::runtime_error naming
     * the first unreachable worker.
     */
    explicit WorkerPool(const std::vector<std::string> &specs,
                        const ServeClientOptions &opts = {},
                        bool quiet = false);

    std::string name() const override { return "workers"; }

    /** Keys address the peer caches and ride along to the workers. */
    bool wantsKey() const override { return true; }

    std::size_t workerCount() const { return workers_.size(); }

    /** Sum of worker capacities (fixed after construction). */
    int totalCapacity() const { return totalCapacity_; }

    /**
     * Peer lookup, then LPT dispatch (re-dispatching on transport
     * failure), then in-process compute once every worker is down.
     * cacheHit reports an answer from a worker's cache or dedupe.
     * Thread-safe; blocking.
     * @throws std::runtime_error for workload errors (never retried).
     */
    CellResult runCell(const CellKey &key, const SimConfig &cfg,
                       const std::string &workload,
                       const RunLengths &lengths,
                       const SamplePlan &sampling) override;

    std::vector<WorkerStats> stats() const;

  private:
    /** A worker's connection plus its counters; the counters, `up`
     *  and `inflight` are guarded by the pool mutex. */
    struct Worker : WorkerStats
    {
        std::unique_ptr<ServeBackend> client;
        int inflight = 0;
    };

    /** Queue position: highest cost first, FIFO within equal cost. */
    struct QueueKey
    {
        double cost;
        std::uint64_t seq;
        bool
        operator<(const QueueKey &o) const
        {
            if (cost != o.cost)
                return cost > o.cost; // longest-processing-time first
            return seq < o.seq;
        }
    };

    struct Waiter
    {
        Worker *assigned = nullptr;
    };

    /** Probe the up workers' caches for @p key (no compute anywhere).
     *  @return true and fill @p out on the first hit. */
    bool peerLookup(const CellKey &key, Metrics *out);
    /** Block until a slot is granted (LPT order) or every worker is
     *  down (returns nullptr: caller computes locally). */
    Worker *acquireSlot(double cost);
    void releaseSlot(Worker *w);
    void markDown(Worker *w, const std::string &why);
    /** Assign queued waiters to free slots, longest cell to the
     *  least-loaded worker, until one side runs out.  Lock held. */
    void tryAdmitLocked();
    std::size_t upCountLocked() const;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::map<QueueKey, Waiter *> waiters_;
    std::uint64_t nextSeq_ = 0;
    int totalCapacity_ = 0;
    bool quiet_ = false;
};

/** Parse a --workers file: one host:port per line, '#' comments and
 *  blank lines skipped.  @throws on an unreadable file. */
std::vector<std::string> loadWorkerSpecs(const std::string &path);

} // namespace ltp

#endif // LTP_SERVE_WORKER_POOL_HH
