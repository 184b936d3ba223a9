/**
 * @file
 * Aggregated results of one simulation run — everything the paper's
 * figures report, extracted once at the end of the detailed region.
 */

#ifndef LTP_SIM_METRICS_HH
#define LTP_SIM_METRICS_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "sim/fields.hh"

namespace ltp {

/**
 * Schema version stamped into every serialized Metrics object
 * (`schemaVersion` in metricsToJson) so cache entries and golden
 * snapshots are forward-checkable.  History:
 *
 *   1 — implicit: the unversioned pre-PR-6 format (no field)
 *   2 — adds the schemaVersion field itself
 *
 * Readers accept any version up to the current one (missing = 1,
 * absent fields keep their zero defaults) and reject newer versions,
 * so an old binary can never silently misread a future cache entry.
 */
inline constexpr int kMetricsSchemaVersion = 2;

/**
 * Per-hardware-thread slice of an SMT run, measured with the standard
 * fixed-instruction-sample methodology: each thread's detail region
 * ends the cycle it commits its instruction quota.  A finished thread
 * then stops fetching and drains (so a bounded `trace:` member never
 * runs off the end of its recording) while co-runners continue to
 * their own quotas.  Single-threaded runs carry exactly one entry
 * whose numbers mirror the aggregate fields.
 */
struct ThreadMetrics
{
    std::string workload;
    std::uint64_t insts = 0;  ///< committed when the quota was reached
    std::uint64_t cycles = 0; ///< detail cycles to reach the quota
    double ipc = 0.0;
};

/**
 * Interval-sampling summary of a sampled run (src/sample/): the plan
 * that produced it, the measured fast-forward rate, and the per-sample
 * IPC distribution reduced to a mean and a Student-t 95% confidence
 * half-width.  `samples == 0` means the run was full-detail and the
 * block is absent from serialized Metrics (full-run JSON unchanged).
 */
struct SamplingStats
{
    int samples = 0;                ///< 0 = not a sampled run
    std::uint64_t fastForward = 0;  ///< plan: functional ops / period
    std::uint64_t warmup = 0;       ///< plan: discarded detail ops
    std::uint64_t detail = 0;       ///< plan: measured ops / sample
    double meanIpc = 0.0;           ///< mean of per-sample IPCs
    double ipcStdDev = 0.0;         ///< sample std-dev (n-1); NaN n<2
    double ci95Half = 0.0;          ///< t(n-1) * s / sqrt(n); NaN n<2
    double ffKips = 0.0;            ///< fast-forward rate, kinsts/sec
    std::vector<double> sampleIpcs; ///< per-sample IPCs, period order

    bool enabled() const { return samples > 0; }

    /**
     * True when the run carries a real confidence interval.  One
     * observation has no dispersion estimate, so a `--samples=1` run
     * (and any group average containing one) reports the CI as
     * unavailable — NaN here, omitted in JSON/CSV — never as a
     * perfectly-confident zero width.
     */
    bool
    hasCi() const
    {
        return samples > 1 && std::isfinite(ci95Half);
    }
};

/** Results of one (config, workload) run over the detailed region. */
struct Metrics
{
    std::string config;
    std::string workload;

    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    double cpi = 0.0;

    /// @name Memory behaviour (Fig 1b, Section 4.1)
    /// @{
    double avgOutstanding = 0.0; ///< mean in-flight DRAM reads per cycle
    double avgLoadLatency = 0.0; ///< mean demand load-to-use latency
    std::uint64_t dramReads = 0;
    /// @}

    /// @name Resource occupancies, mean per cycle (Fig 1c, Fig 7)
    /// @{
    double iqOcc = 0.0;
    double robOcc = 0.0;
    double lqOcc = 0.0;
    double sqOcc = 0.0;
    double rfOcc = 0.0;       ///< INT + FP registers in use
    double ltpOcc = 0.0;      ///< instructions in LTP
    double ltpRegsOcc = 0.0;  ///< parked insts with a destination
    double ltpLoadsOcc = 0.0; ///< parked loads
    double ltpStoresOcc = 0.0;///< parked stores
    /// @}

    /// @name LTP behaviour (Fig 7 bottom, Section 5)
    /// @{
    double ltpEnabledFrac = 0.0;
    double parkedFrac = 0.0; ///< parked / committed
    std::uint64_t parked = 0;
    std::uint64_t unparked = 0;
    std::uint64_t forcedUnparks = 0;
    std::uint64_t pressureUnparks = 0;
    double llpredAccuracy = 0.0;
    double bpAccuracy = 0.0;
    /// @}

    /// @name Energy (Fig 10)
    /// @{
    EnergyBreakdown energy;
    double ed2p = 0.0;
    double edp = 0.0;
    /// @}

    /// @name SMT (multi-context) breakdown
    /// @{
    /** One entry per hardware thread, tid order.  Serialized (and
     *  golden-snapshotted) only when there are two or more — a
     *  single-threaded run's Metrics JSON is unchanged. */
    std::vector<ThreadMetrics> threads;
    /// @}

    /** Interval-sampling summary; disabled for full-detail runs. */
    SamplingStats sampling;

    /** IPC speedup of this run over @p base, as a fraction. */
    double
    speedupOver(const Metrics &base) const
    {
        return base.ipc != 0.0 ? ipc / base.ipc : 0.0;
    }

    /** Performance delta vs @p base in percent (paper-style axis). */
    double
    perfDeltaPct(const Metrics &base) const
    {
        return (speedupOver(base) - 1.0) * 100.0;
    }

    /** ED2P delta vs @p base in percent. */
    double
    ed2pDeltaPct(const Metrics &base) const
    {
        return base.ed2p != 0.0 ? (ed2p / base.ed2p - 1.0) * 100.0 : 0.0;
    }

    std::string toString() const;
};

/**
 * The scalar fields of Metrics, in emission order: `config` and
 * `workload` (String), then the U64 and Double measurements, the
 * energy breakdown as `energy.iq`/`energy.rf`/`energy.ltp`, and
 * `ed2p`, `edp`.  This table is the one list of them: the JSON codec
 * (metricsToJson/metricsFromJson), the CSV columns, scenario claim
 * metrics, and averageMetrics all loop over it, so a new scalar is a
 * member plus one row here.  The `smt` and `sampling` blocks carry
 * arrays and stay hand-written.
 */
using MetricFields = std::array<Field, 31>;

/** The table over @p m's members. */
MetricFields metricFields(Metrics &m);

/** The table over a const Metrics, for readers; never write through it. */
inline MetricFields
metricFields(const Metrics &m)
{
    return metricFields(const_cast<Metrics &>(m));
}

/**
 * Arithmetic-mean aggregate of a group of runs (paper group averages):
 * U64 fields sum, Double fields average (adding v/n in run order).
 */
Metrics averageMetrics(const std::vector<Metrics> &runs,
                       const std::string &label);

/**
 * Two-sided 95% Student-t critical value for @p df degrees of freedom
 * (exact table through df=30, asymptotic 1.96 beyond) — the multiplier
 * behind every reported sampling confidence interval.  df < 1 (fewer
 * than two observations) has no critical value and returns NaN.
 */
double studentT95(int df);

/**
 * Multiprogrammed weighted speedup: sum over hardware threads of
 * IPC_i(SMT) / IPC_i(alone), where @p alone holds each thread's
 * standalone (single-context) run in tid order.  N identical threads
 * with no interference score N.
 * @throws std::runtime_error when the shapes disagree or a standalone
 *         IPC is zero.
 */
double weightedSpeedup(const Metrics &smt,
                       const std::vector<Metrics> &alone);

} // namespace ltp

#endif // LTP_SIM_METRICS_HH
