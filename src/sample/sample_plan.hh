/**
 * @file
 * Interval-sampling plan: the repeating fast-forward / warmup / detail
 * period of a sampled simulation (SMARTS-style systematic sampling).
 *
 * A sampled run replaces the single long detail region with
 * `samples` short ones spread evenly through the stream:
 *
 *   [ ff | warm | detail ] [ ff | warm | detail ] ... x samples
 *
 * Fast-forward retires instructions functionally (registers, memory
 * image, branch-predictor training — no pipeline timing), warmup runs
 * the detailed core with stats discarded, and each detail region is
 * measured.  Per-sample IPCs aggregate into a mean and a Student-t
 * 95% confidence interval (Metrics::sampling).
 *
 * The plan is deliberately *not* part of SimConfig: sampling is a
 * measurement strategy, not an architecture under test.  It joins the
 * result-cache key separately (cellKeyFor's `sampling:` line) so a
 * sampled run can never alias a full-detail run of the same config.
 */

#ifndef LTP_SAMPLE_SAMPLE_PLAN_HH
#define LTP_SAMPLE_SAMPLE_PLAN_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/fields.hh"

namespace ltp {

/** The repeating period of a sampled run (per thread under SMT). */
struct SamplePlan
{
    std::uint64_t fastForward = 0; ///< functional-only instructions
    std::uint64_t warmup = 0;      ///< detailed, stats discarded
    std::uint64_t detail = 0;      ///< measured instructions
    int samples = 0;               ///< 0 = sampling disabled

    bool enabled() const { return samples > 0; }

    /** Span of one period, in per-thread instructions. */
    std::uint64_t
    period() const
    {
        return fastForward + warmup + detail;
    }

    /** Canonical `ff/warm/detail x samples` spelling (cache keys,
     *  progress lines, error messages). */
    std::string toString() const;

    /** Default plan for `ltp sample` when no flags are given. */
    static SamplePlan
    defaults()
    {
        return SamplePlan{40000, 2000, 10000, 8};
    }
};

/**
 * SamplePlan's field table (sim/fields.hh): `samples`, `fastForward`,
 * `warmup`, `detail`, in that order — the spelling of every `sampling`
 * object and the leading rows of Metrics' sampling block.  `samples`
 * and `detail` have a minimum of 1: a plan read from a file, a frame
 * or a flag is always runnable.
 */
using SamplePlanFields = std::array<Field, 4>;

SamplePlanFields samplePlanFields(SamplePlan &p);

/** The table over a const SamplePlan, for writers. */
inline SamplePlanFields
samplePlanFields(const SamplePlan &p)
{
    return samplePlanFields(const_cast<SamplePlan &>(p));
}

} // namespace ltp

#endif // LTP_SAMPLE_SAMPLE_PLAN_HH
