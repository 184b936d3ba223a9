#include "trace.hh"

#include <functional>
#include <thread>

#include "common/json.hh"
#include "sample/sampler.hh"
#include "sim/config.hh"

namespace perfbench {

using namespace ltp;

namespace {

/** The innermost open span on this thread (parent of the next one). */
thread_local const Span *t_current = nullptr;

std::uint64_t
threadNumber()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           100000;
}

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.ms());
    return out;
}

std::string
Tracer::toJson(const std::string &meta) const
{
    std::string out = "{\"otherData\": " + meta + ",\n \"traceEvents\": [";
    bool first = true;
    for (const Span &s : spans()) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        // Chrome trace-event "complete" events; times in µs.
        out += "{\"name\": " + jsonQuote(s.name) +
               ", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
               std::to_string(s.thread) +
               ", \"ts\": " + jsonNum(double(s.startNs) / 1e3) +
               ", \"dur\": " + jsonNum(double(s.endNs - s.startNs) / 1e3) +
               ", \"args\": {\"id\": " + std::to_string(s.id) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"request\": " + std::to_string(s.request) + "}}";
    }
    return out + "\n]}\n";
}

SpanScope::SpanScope(Tracer *tracer, std::string name,
                     std::uint64_t request)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    outer_ = t_current;
    span_.name = std::move(name);
    span_.id = tracer_->newId();
    span_.parent = outer_ ? outer_->id : 0;
    span_.request = request ? request : (outer_ ? outer_->request : 0);
    span_.thread = threadNumber();
    t_current = &span_;
    span_.startNs = tracer_->nowNs();
}

SpanScope::~SpanScope()
{
    if (!tracer_)
        return;
    span_.endNs = tracer_->nowNs();
    t_current = outer_;
    tracer_->record(std::move(span_));
}

TimedBackend::TimedBackend(ExecBackendPtr inner, std::string layer,
                           Tracer *tracer)
    : inner_(std::move(inner)), layer_(std::move(layer)), tracer_(tracer)
{
}

CellResult
TimedBackend::runCell(const CellKey &key, const SimConfig &cfg,
                      const std::string &workload,
                      const RunLengths &lengths,
                      const SamplePlan &sampling)
{
    auto start = std::chrono::steady_clock::now();
    CellResult r;
    try {
        SpanScope span(tracer_, layer_ + ".run_cell",
                       tracer_ ? tracer_->newId() : 0);
        r = inner_->runCell(key, cfg, workload, lengths, sampling);
    } catch (...) {
        failed_.fetch_add(1);
        throw;
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    // Traced runs match cells across backends by content; the config
    // name alone is not unique (an override keeps the preset's name).
    std::string config = tracer_ ? configToJson(cfg) : cfg.name;
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.push_back(Cell{std::move(config), workload, ms});
    return r;
}

std::vector<TimedBackend::Cell>
TimedBackend::cells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cells_;
}

CellResult
ProbeBackend::runCell(const CellKey &, const SimConfig &cfg,
                      const std::string &workload,
                      const RunLengths &lengths,
                      const SamplePlan &sampling)
{
    if (!sampling.enabled()) {
        std::unique_ptr<Simulator> sim;
        {
            SpanScope span(tracer_, "sim.simulator.construct");
            sim = std::make_unique<Simulator>(cfg, workload, lengths);
        }
        SpanScope span(tracer_, "sim.simulator.run");
        return CellResult{sim->run(), false};
    }

    std::unique_ptr<Sampler> sampler;
    {
        SpanScope span(tracer_, "sample.construct");
        sampler = std::make_unique<Sampler>(cfg, workload, sampling);
    }
    // Sampler::run announces each phase as it starts ("fast-forward
    // i/N", "warmup i/N", "sample i/N"); a phase ends where the next
    // begins, or where run() returns.
    SpanScope run(tracer_, "sample.run");
    std::unique_ptr<SpanScope> phase;
    Metrics m = sampler->run([&](const std::string &label) {
        phase.reset();
        const char *name = label.rfind("fast-forward", 0) == 0 ? "sample.ff"
                           : label.rfind("warmup", 0) == 0
                               ? "sample.warmup"
                               : "sample.detail";
        phase = std::make_unique<SpanScope>(tracer_, name);
    });
    phase.reset();
    return CellResult{std::move(m), false};
}

} // namespace perfbench
