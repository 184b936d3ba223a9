/**
 * @file
 * served_study's deployment: one frontend daemon dispatching to two
 * worker daemons, all in this process on loopback ephemeral ports,
 * each with its own cache directory, plus one client connection.
 */

#ifndef PERFBENCH_CLUSTER_HH
#define PERFBENCH_CLUSTER_HH

#include <memory>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/server.hh"
#include "trace.hh"

namespace perfbench {

class Cluster
{
  public:
    /**
     * Bind, start and connect everything (spans `serve.bind`,
     * `serve.start`, `serve.connect` when traced).  The workers'
     * pools sum to @p simThreads (at least one each); the frontend's
     * pool of @p simThreads dispatch slots only waits on them.
     */
    Cluster(const std::string &dir, int simThreads, Tracer *tracer);

    /** Stops the client, then the frontend, then the workers. */
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    std::shared_ptr<ltp::ServeBackend> client() const { return client_; }

    /** Empty every daemon's result cache (a cold start). */
    void clearCaches() const;

    /** Empty the frontend's cache only: its lookups then go to the
     *  workers' caches (peer hits). */
    void clearFrontendCache() const;

    /** The frontend's `stats` reply. */
    ltp::JsonValue stats() const;

  private:
    std::string dir_;
    Tracer *tracer_;
    std::vector<std::unique_ptr<ltp::Server>> workers_;
    std::unique_ptr<ltp::Server> frontend_;
    std::shared_ptr<ltp::ServeBackend> client_;
};

} // namespace perfbench

#endif // PERFBENCH_CLUSTER_HH
