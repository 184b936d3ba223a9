/**
 * @file
 * Static/dynamic instruction-mix statistics over a trace prefix,
 * used by the kernel-mix sanity tests.
 */

#ifndef LTP_TRACE_TRACE_STATS_HH
#define LTP_TRACE_TRACE_STATS_HH

#include <cstdint>
#include <string>

#include "trace/workload.hh"

namespace ltp {

/** Aggregated mix of a trace prefix. */
struct TraceMix
{
    std::uint64_t insts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t longFixedOps = 0; ///< div/sqrt
    std::uint64_t uniquePcs = 0;
    std::uint64_t withDest = 0;

    double frac(std::uint64_t n) const { return insts ? double(n) / insts : 0.0; }
    std::string toString() const;
};

/** Generate @p n micro-ops from @p w (after reset(seed)) and tally. */
TraceMix measureMix(Workload &w, std::uint64_t n, std::uint64_t seed);

} // namespace ltp

#endif // LTP_TRACE_TRACE_STATS_HH
