/**
 * @file
 * Functional-unit pool.
 *
 * Groups (units / ops):
 *   ALU x4   IntAlu, Branch, Nop        (1c, pipelined)
 *   MUL x2   IntMul (3c pipelined), IntDiv (20c unpipelined)
 *   FP  x2   FpAlu/FpMul pipelined, FpDiv/FpSqrt unpipelined
 *   LD  x2   load address generation + cache port
 *   ST  x1   store address/data staging
 *
 * Total selected per cycle is additionally bounded by the core's issue
 * width (Table 1: 6).
 */

#ifndef LTP_CPU_EXEC_HH
#define LTP_CPU_EXEC_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/opclass.hh"

namespace ltp {

/** Functional-unit counts. */
struct FuConfig
{
    int alu = 4;
    int mul = 2;
    int fp = 2;
    int ld = 2;
    int st = 1;
};

/** Per-cycle functional-unit arbiter. */
class FuPool
{
  public:
    explicit FuPool(const FuConfig &cfg);

    /**
     * Can an op of class @p c start at cycle @p now?  Per-cycle issue
     * counts are stamped with the cycle they were taken in and expire
     * implicitly when @p now moves on — there is no per-cycle reset
     * pass, and @p now must never move backwards.
     */
    bool canIssue(OpClass c, Cycle now) const;

    /** Claim a unit; returns the execute latency of the op. */
    int issue(OpClass c, Cycle now);

    /**
     * The first cycle a unit for class @p c is free, ignoring this
     * cycle's issue count: canIssue() holds at every later cycle
     * until the next issue (idle-cycle skipping's FU event).
     */
    Cycle freeAt(OpClass c) const;

  private:
    enum Group { kAlu, kMul, kFp, kLd, kSt, kNumGroups };

    static Group groupOf(OpClass c);

    struct GroupState
    {
        std::vector<Cycle> busyUntil;
        Cycle stamp = 0;          ///< cycle issuedThisCycle refers to
        int issuedThisCycle = 0;
    };

    std::array<GroupState, kNumGroups> groups_;
};

} // namespace ltp

#endif // LTP_CPU_EXEC_HH
