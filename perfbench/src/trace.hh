/**
 * @file
 * The benchmark's own tracing: spans recorded in memory around calls
 * into each layer of the stack, written out once at the end of a
 * traced run.  Nothing inside ltp_core is instrumented; every span
 * starts and ends in this directory's code.
 *
 * A span has a name, start and end (steady_clock ns since the tracer
 * was created), the span that caused it, and a request id shared by
 * every span of one cell.  Parents and request ids propagate through
 * a thread-local "current span", so a decorator's span encloses the
 * spans its inner backend records on the same thread.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/exec_backend.hh"

namespace perfbench {

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< 0 = not part of a cell
    std::uint64_t thread = 0;

    double ms() const { return double(endNs - startNs) / 1e6; }
};

/** In-memory span store, safe to record into from any thread. */
class Tracer
{
  public:
    Tracer();

    std::int64_t nowNs() const;
    std::uint64_t newId() { return next_id_.fetch_add(1); }
    void record(Span span);

    /** Every recorded span, in completion order. */
    std::vector<Span> spans() const;

    /** Durations (ms) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Chrome trace-event JSON ("traceEvents"), @p meta in "otherData". */
    std::string toJson(const std::string &meta) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Records one span for its lifetime.  A null tracer makes it a no-op,
 * so untraced runs pay one branch.  @p request 0 inherits the
 * enclosing span's request.
 */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, std::string name, std::uint64_t request = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *tracer_;
    Span span_;
    const Span *outer_ = nullptr;
};

/**
 * ExecBackend decorator that times every runCell.  Per-cell latency
 * is always kept (it feeds cell_ms_p50/cell_ms_tail, so untraced runs
 * need it too); with a tracer it also records a `<layer>.run_cell`
 * span, which opens a new request.
 */
class TimedBackend : public ltp::ExecBackend
{
  public:
    TimedBackend(ltp::ExecBackendPtr inner, std::string layer,
                 Tracer *tracer);

    std::string name() const override { return inner_->name(); }
    bool wantsKey() const override { return inner_->wantsKey(); }
    ltp::CellResult runCell(const ltp::CellKey &key,
                            const ltp::SimConfig &cfg,
                            const std::string &workload,
                            const ltp::RunLengths &lengths,
                            const ltp::SamplePlan &sampling) override;

    /** One cell's latency, keyed like the ResultGrid. */
    struct Cell
    {
        std::string config, workload;
        double ms = 0;
    };
    std::vector<Cell> cells() const;

    std::uint64_t failed() const { return failed_.load(); }

  private:
    ltp::ExecBackendPtr inner_;
    std::string layer_;
    Tracer *tracer_;
    std::atomic<std::uint64_t> failed_{0};
    mutable std::mutex mutex_;
    std::vector<Cell> cells_;
};

/**
 * In-process backend for traced runs only: does what LocalBackend
 * does, but constructs the Simulator (or Sampler) itself so that
 * construction, run() and each sampling phase get their own span:
 * `sim.simulator.construct`, `sim.simulator.run`, `sample.construct`,
 * `sample.run` and, inside it, `sample.ff`, `sample.warmup`,
 * `sample.detail`.
 */
class ProbeBackend : public ltp::ExecBackend
{
  public:
    explicit ProbeBackend(Tracer *tracer) : tracer_(tracer) {}

    std::string name() const override { return "probe"; }
    ltp::CellResult runCell(const ltp::CellKey &key,
                            const ltp::SimConfig &cfg,
                            const std::string &workload,
                            const ltp::RunLengths &lengths,
                            const ltp::SamplePlan &sampling) override;

  private:
    Tracer *tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
