/**
 * @file
 * The benchmark's workloads as data: each one is a scenario file
 * generated from the run's seed, plus the output checks and the
 * reductions of a finished ResultGrid into reported numbers.
 */

#ifndef PERFBENCH_STUDY_HH
#define PERFBENCH_STUDY_HH

#include <cstdint>
#include <string>

#include "sim/runner.hh"

namespace perfbench {

/** One workload: where its study runs and which series to compare. */
struct StudyDef
{
    std::string workload;    ///< mlp_sweep | ilp_sampled | served_study
    std::string scenario;    ///< scenario JSON text (seeded)
    bool served = false;     ///< cells go through the serve daemons
    std::string baseline;    ///< series: IQ64/RF128, no LTP
    std::string shrink;      ///< series: IQ32/RF96, no LTP
    std::string ltp;         ///< series: IQ32/RF96 + NU LTP
};

/**
 * The study of @p workload for @p seed.  @p small shrinks every
 * staging length for the benchmark's own smoke test.
 * @throws std::runtime_error on an unknown workload name.
 */
StudyDef makeStudy(const std::string &workload, std::uint64_t seed,
                   bool small);

/** Deterministic work done by one pass over a study. */
struct WorkCounts
{
    std::uint64_t cells = 0;
    std::uint64_t cycles = 0;      ///< detail-region cycles
    std::uint64_t detailInsts = 0; ///< warmup + measured, per plan
    std::uint64_t ffInsts = 0;     ///< fast-forwarded, per plan
};

WorkCounts workCounts(const ltp::SweepSpec &spec,
                      const ltp::ResultGrid &grid);

/**
 * SHA-256 over every cell's canonical Metrics JSON in (row, series)
 * order, with the one host-time field (sampling.ffKips) removed: a
 * change that only speeds the simulator up must leave it unchanged.
 */
std::string modelDigest(const ltp::ResultGrid &grid);

/**
 * "" when both grids hold the same cells with byte-identical
 * metricsToJson; else a description of the first difference.
 */
std::string gridDifference(const ltp::ResultGrid &a,
                           const ltp::ResultGrid &b);

/**
 * Structural checks every pass must meet: one cell per (kernel,
 * series) of @p spec, every cell simulated some instructions, and on
 * a sampled study every cell carries a confidence interval.  Returns
 * "" or the first violation.
 */
std::string gridProblem(const ltp::SweepSpec &spec,
                        const ltp::ResultGrid &grid);

/** Geometric mean over rows of IPC(@p num) / IPC(@p den). */
double ipcRatio(const ltp::ResultGrid &grid, const std::string &num,
                const std::string &den);

/** Simulated statistics reduced for the per-layer report. */
struct ModelStats
{
    double cpi = 0, iqOcc = 0, rfOcc = 0, robOcc = 0; ///< all cells
    /// LTP series only:
    double parkedPerKinst = 0, unparkedPerKinst = 0;
    double forcedUnparkFrac = 0, enabledFrac = 0, llpredAccuracy = 0,
           ltpOcc = 0;
    double dramReadsPerKinst = 0, avgLoadLatency = 0, mlp = 0;
    double ci95Rel = 0; ///< mean CI half-width / mean IPC (sampled)
};

ModelStats modelStats(const ltp::ResultGrid &grid,
                      const std::string &ltpSeries);

} // namespace perfbench

#endif // PERFBENCH_STUDY_HH
