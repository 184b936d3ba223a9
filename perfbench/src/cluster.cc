#include "cluster.hh"

#include <algorithm>

#include "sim/result_cache.hh"

namespace perfbench {

using namespace ltp;

namespace {

std::unique_ptr<Server>
bindServer(ServeOptions opts, Tracer *tracer)
{
    opts.port = 0;
    opts.quiet = true;
    std::unique_ptr<Server> server;
    {
        SpanScope span(tracer, "serve.bind");
        server = std::make_unique<Server>(opts);
    }
    SpanScope span(tracer, "serve.start");
    server->start();
    return server;
}

std::string
address(const Server &server)
{
    return "127.0.0.1:" + std::to_string(server.port());
}

} // namespace

Cluster::Cluster(const std::string &dir, int simThreads, Tracer *tracer)
    : dir_(dir), tracer_(tracer)
{
    for (int i = 0; i < 2; ++i) {
        ServeOptions w;
        w.threads = std::max(1, simThreads / 2 + (i == 0 ? simThreads % 2 : 0));
        w.cacheDir = dir_ + "/worker" + std::to_string(i);
        workers_.push_back(bindServer(w, tracer_));
    }
    ServeOptions f;
    f.threads = std::max(1, simThreads);
    f.cacheDir = dir_ + "/frontend";
    for (const auto &w : workers_)
        f.workers.push_back(address(*w));
    frontend_ = bindServer(f, tracer_);
    SpanScope span(tracer_, "serve.connect");
    client_ = std::make_shared<ServeBackend>("127.0.0.1", frontend_->port());
}

Cluster::~Cluster()
{
    client_.reset();
    frontend_->stop();
    frontend_.reset(); // closes the WorkerPool's connections
    for (auto &w : workers_)
        w->stop();
}

void
Cluster::clearFrontendCache() const
{
    ResultCache(dir_ + "/frontend").clear();
}

void
Cluster::clearCaches() const
{
    clearFrontendCache();
    for (std::size_t i = 0; i < workers_.size(); ++i)
        ResultCache(dir_ + "/worker" + std::to_string(i)).clear();
}

JsonValue
Cluster::stats() const
{
    SpanScope span(tracer_, "serve.stats");
    return client_->rpc("stats");
}

} // namespace perfbench
