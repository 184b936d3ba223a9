/**
 * @file
 * Three-level cache hierarchy front door (Table 1):
 *   L1I/L1D 32kB 8-way 4c | L2 256kB 8-way 12c + stride prefetcher
 *   | L3 1MB 16-way 36c | DDR3-1600.
 *
 * The core calls access() for demand loads (at execute) and stores (at
 * SQ drain) and fetchAccess() for instruction fetch.  Results carry two
 * timestamps: when the data arrives, and the *early wakeup* cycle — the
 * phased L2/L3 tag-hit (or DRAM-controller) signal the paper uses to
 * move Non-Ready instructions from LTP to the IQ just in time
 * (Section 3.2).
 *
 * A `std::nullopt` result means the L1D MSHR file is full and the access
 * must be retried (only possible when MSHRs are configured finite).
 */

#ifndef LTP_MEM_MEM_SYSTEM_HH
#define LTP_MEM_MEM_SYSTEM_HH

#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"
#include "mem/prefetcher.hh"

namespace ltp {

/** Where in the hierarchy an access was satisfied. */
enum class HitLevel { L1, L2, L3, Dram, Inflight };

/** Timing outcome of one memory access. */
struct MemAccessResult
{
    Cycle dataReady = 0;   ///< data available to dependents
    Cycle earlyWakeup = 0; ///< LTP wakeup signal (<= dataReady)
    HitLevel level = HitLevel::L1;
};

/** Hierarchy configuration (defaults = Table 1). */
struct MemConfig
{
    CacheConfig l1i{32, 8, 4};
    CacheConfig l1d{32, 8, 4};
    CacheConfig l2{256, 8, 12};
    CacheConfig l3{1024, 16, 36};
    DramConfig dram;
    bool prefetchEnabled = true;
    int prefetchDegree = 4;
    int l1dMshrs = kInfiniteSize; ///< finite only outside the paper runs
    Cycle earlyLead = 8;          ///< tag-phase lead of the wakeup signal
    /**
     * An access counts as long-latency when dataReady - now reaches this
     * bound.  Default 40 > L3 hit latency: LLC misses, per Section 2.
     */
    Cycle llThreshold = 40;
};

/** The full memory hierarchy. */
class MemSystem
{
  public:
    explicit MemSystem(const MemConfig &cfg);

    /** Demand data access; std::nullopt => retry (L1D MSHRs full). */
    std::optional<MemAccessResult> access(Addr pc, Addr addr,
                                          bool is_write, Cycle now);

    /** Instruction fetch probe (no MSHR bound on the I-side). */
    MemAccessResult fetchAccess(Addr pc, Cycle now);

    /**
     * Functional access: warms tags/LRU/prefetcher without timing.
     * @return the level the access would have been satisfied from
     *         (used by the oracle classifier to mark long-latency
     *         loads).
     */
    HitLevel warmAccess(Addr pc, Addr addr, bool is_write, Cycle now);

    /** True if the result latency qualifies as long-latency. */
    bool
    isLongLatency(const MemAccessResult &r, Cycle now) const
    {
        return r.dataReady - now >= cfg_.llThreshold;
    }

    /** Average outstanding DRAM reads per cycle (Figure 1b). */
    double avgOutstanding(Cycle now) { return dram_.meanInflightReads(now); }

    /** Mean demand-load latency (Section 4.1 sensitivity criterion). */
    double avgLoadLatency() const { return load_lat_.mean(); }

    Cycle dramLatency() const { return dram_.typicalLatency(); }

    void resetStats(Cycle now);

    /**
     * Collapse every transient timing artifact — in-flight cache
     * fills, MSHR entries, DRAM bank/bus state, latency averages — so
     * the warmed hierarchy can serve a fresh detailed phase starting
     * at cycle 0.  Tag contents, LRU order, dirty bits, and prefetcher
     * training all survive; this is the boundary between one detailed
     * sample and the next fast-forward stretch.
     */
    void settle();

    /// @name Component access for stats reporting and tests
    /// @{
    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }
    Dram &dram() { return dram_; }
    MshrFile &l1dMshrs() { return l1d_mshrs_; }
    StridePrefetcher &prefetcher() { return prefetcher_; }
    /// @}

  private:
    /** Satisfy a block from L2 and below; fills L2/L3 as needed. */
    Cycle lookupBelowL1(Addr block, Cycle now, HitLevel *level);

    /** Write back a dirty victim to the next level down from @p from. */
    void writeback(int from_level, Addr block, Cycle now);

    void trainPrefetcher(Addr pc, Addr addr, Cycle now);

    MemConfig cfg_;
    Cache l1i_;
    /**
     * Straight-line fetch memo: the last I-block looked up and its
     * line-ready cycle.  Only fetchAccess touches the I-cache, so a
     * repeat of the same block must hit with the same line state —
     * the set walk and LRU restamp (the line is already MRU) can be
     * skipped.  Fills of a different block and settle() reset it.
     */
    Addr last_ifetch_block_ = ~Addr(0);
    Cycle last_ifetch_ready_ = 0;
    Cache l1d_;
    Cache l2_;
    Cache l3_;
    Dram dram_;
    MshrFile l1d_mshrs_;
    StridePrefetcher prefetcher_;
    std::vector<Addr> pf_scratch_;
    Average load_lat_;
};

} // namespace ltp

#endif // LTP_MEM_MEM_SYSTEM_HH
