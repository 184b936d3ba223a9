/**
 * @file
 * Interval-sampling controller: drives a sampled run through its
 * repeating [fast-forward | warmup | detail] periods and aggregates
 * the per-sample Metrics into a mean IPC with a Student-t 95%
 * confidence interval (Metrics::sampling).
 *
 * Period i (0-based) measures the detail region starting at
 * per-thread stream position
 *
 *   S_i = start + (i+1)*ff + i*(warmup + detail)
 *
 * where `start` is 0 or a restored checkpoint's position.  Between
 * samples the warmed structures carry forward exactly:
 *
 *  - streams: samples consume the engine's own counting streams, so a
 *    sample's fetch-ahead overshoot is part of the position and the
 *    next fast-forward continues from it (no rewind, no replay);
 *  - branch predictors: trained functionally during fast-forward,
 *    copied into each sample's fresh core, and copied back out after
 *    (detailed fetch trains them in stream order, so training is
 *    continuous across the whole run);
 *  - memory image: the shared hierarchy persists; settle() collapses
 *    in-flight timing at each sample boundary so a fresh core can
 *    restart at cycle 0.
 *
 * Each sample runs on a *fresh* Core: pipeline state is rebuilt by the
 * warmup ops (stats discarded), mirroring the full run's detailed
 * pipeline warm.
 */

#ifndef LTP_SAMPLE_SAMPLER_HH
#define LTP_SAMPLE_SAMPLER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ltp/oracle.hh"
#include "sample/checkpoint.hh"
#include "sample/fast_forward.hh"
#include "sample/sample_plan.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"

namespace ltp {

/** Progress callback: called at each phase boundary with a label like
 *  "fast-forward 3/8", "warmup 3/8", "sample 3/8". */
using PhaseFn = std::function<void(const std::string &)>;

/** Owns one sampled run: streams, fast-forward engine, hierarchy. */
class Sampler
{
  public:
    /** @throws std::runtime_error unless @p plan.enabled() with a
     *  nonzero detail length. */
    Sampler(const SimConfig &cfg, const std::string &kernel,
            const SamplePlan &plan);

    /**
     * Start from an architectural checkpoint instead of stream
     * position 0: each thread's stream seeks to the stored position
     * and the predictor/memory images are installed.  Must be called
     * before run().
     * @throws std::runtime_error when the checkpoint does not match
     *         this run (workload, seed, geometry).
     */
    void restoreFrom(const Checkpoint &ckpt);

    /** Execute the full sampling schedule and aggregate. */
    Metrics run(const PhaseFn &phase = {});

    /** One-shot convenience mirroring Simulator::runOnce. */
    static Metrics runOnce(const SimConfig &cfg,
                           const std::string &kernel,
                           const SamplePlan &plan,
                           const PhaseFn &phase = {});

    /// @name Mid-run access for tests and `ltp checkpoint create`
    /// @{
    FastForward &fastForward() { return *ff_; }
    MemSystem &mem() { return *mem_; }
    /// @}

  private:
    SimConfig cfg_;
    SamplePlan plan_;
    std::string kernel_;
    std::string workload_name_;
    std::vector<std::string> members_;
    std::vector<OracleClassification> oracles_;
    std::unique_ptr<MemSystem> mem_;
    std::unique_ptr<FastForward> ff_;
    bool ran_ = false;
};

} // namespace ltp

#endif // LTP_SAMPLE_SAMPLER_HH
