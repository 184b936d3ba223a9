/**
 * @file
 * Miss Status Holding Register file: bounds the number of outstanding
 * misses a cache level may have in flight.
 *
 * Merge detection itself lives in the cache (in-flight lines carry their
 * fill time); the MSHR file adds the *capacity* constraint.  Entries
 * self-free when their fill completes (lazily, on the next operation).
 */

#ifndef LTP_MEM_MSHR_HH
#define LTP_MEM_MSHR_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace ltp {

/** Bounded set of in-flight misses with lazy expiry. */
class MshrFile
{
  public:
    /** @param entries capacity; kInfiniteSize for the limit study. */
    explicit MshrFile(int entries);

    /** True if a new miss can be accepted at cycle @p now. */
    bool available(Cycle now);

    /** Register a miss on @p block completing at @p ready. */
    void allocate(Addr block, Cycle now, Cycle ready);

    /** Number of live entries at cycle @p now. */
    int occupancy(Cycle now);

    /** Drop all in-flight entries (inter-sample settling; the fills
     *  they tracked are settled to "resident" in the caches). */
    void
    settle()
    {
        live_.clear();
    }

    Counter allocations;
    Counter fullStalls; ///< times available() returned false

  private:
    void expire(Cycle now);

    struct Entry
    {
        Addr block;
        Cycle ready;
    };

    int capacity_;
    std::vector<Entry> live_;
};

} // namespace ltp

#endif // LTP_MEM_MSHR_HH
