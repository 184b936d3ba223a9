/**
 * @file
 * The in-flight dynamic instruction record.
 *
 * One DynInst exists per fetched micro-op from fetch until commit (or
 * squash).  It carries the renamed operands, LTP classification state
 * (urgent / non-ready / parked, tickets, internal LTP register id), the
 * saved previous RAT state of its destination (for rollback and for
 * commit-time register freeing), and per-stage timestamps.
 *
 * Everything is inline: the LTP queue (src/ltp/ltp_queue.*) stores
 * DynInst pointers without needing to link against the cpu library.
 */

#ifndef LTP_CPU_DYN_INST_HH
#define LTP_CPU_DYN_INST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/microop.hh"
#include "ltp/tickets.hh"
#include "mem/mem_system.hh"

namespace ltp {

/**
 * In-flight sequence-number window: live instructions always span less
 * than this many sequence numbers (the core's instruction pool is this
 * size and asserts slots are dead on reuse), so seq % kInstWindow is a
 * collision-free index for per-inflight-instruction bitmasks.
 */
inline constexpr std::size_t kInstWindow = 8192;

/**
 * A renamed source operand.  Exactly one of three states:
 *  - none:   no register source (slot unused)
 *  - phys:   resolved physical register
 *  - ltp id: the producer is parked; the physical register will be
 *            looked up in the LTP RAT (RAT_LTP) when this instruction
 *            leaves the LTP (Section 5.2 / Appendix A)
 */
struct SrcRef
{
    RegClass cls = RegClass::Int;
    std::int32_t phys = -1;
    std::int32_t ltpId = -1;

    bool isPhys() const { return phys >= 0; }
    bool isLtp() const { return ltpId >= 0; }
};

/** Saved previous RAT mapping of an instruction's destination. */
struct PrevMapping
{
    enum class Kind : std::uint8_t { None, Phys, Ltp };
    Kind kind = Kind::None;
    std::int32_t idx = -1; ///< phys reg or LTP id, per kind
};

/** One in-flight dynamic instruction. */
struct DynInst
{
    MicroOp op;
    SeqNum seq = kSeqNone;
    int tid = 0; ///< hardware thread (SMT context) this belongs to

    /// @name Classification (Section 2)
    /// @{
    bool classified = false;  ///< table lookups done (memoized: hardware
                              ///< classifies once when the group enters
                              ///< rename, not on every stall retry)
    bool urgent = false;      ///< ancestor of a long-latency instruction
    bool nonReady = false;    ///< descendant of one (live tickets)
    bool predictedLL = false; ///< predicted long-latency at rename
    bool actualLL = false;    ///< observed long-latency at execute
    TicketMask tickets;       ///< live ticket dependences at rename
    int ownTicket = -1;       ///< ticket allocated to this instruction
    /// @}

    /// @name Parking state
    /// @{
    bool parked = false; ///< went through LTP
    bool inLtp = false;  ///< currently parked
    int ltpId = -1;      ///< internal LTP register id for the dest
    /// @}

    /// @name Rename state
    /// @{
    SrcRef srcs[kMaxSrcs];
    std::int32_t dstPhys = -1;
    PrevMapping prevMap;      ///< what the dest arch reg mapped to before
    Addr prevProducerPc = 0;  ///< RAT rollback: producer-PC extension
    bool prevParkedBit = false;
    TicketMask prevTickets;
    /// @}

    /// @name Structure indices
    /// @{
    bool inIq = false;
    bool inLq = false;
    bool inSq = false;
    /// @}

    /// @name Scheduler linkage (event-driven IQ)
    /// @{
    DynInst *iqPrev = nullptr;    ///< seq-ordered IQ list
    DynInst *iqNext = nullptr;
    DynInst *readyPrev = nullptr; ///< seq-ordered ready list
    DynInst *readyNext = nullptr;
    int pendingSrcs = 0; ///< physical sources not yet ready
    /// @}

    /// @name LTP queue linkage (event-driven parking structure)
    /// @{
    DynInst *ltpPrev = nullptr;      ///< seq-ordered parked list
    DynInst *ltpNext = nullptr;
    DynInst *ltpReadyPrev = nullptr; ///< seq-ordered ticket-clear list
    DynInst *ltpReadyNext = nullptr;
    int pendingTickets = 0; ///< still-pending tickets in `tickets`
    /**
     * Park-episode counter: incremented every time this pool slot is
     * parked, never reset.  Ticket subscriber entries snapshot it, so
     * a subscription survives as long as (and only as long as) the
     * park it was made for — a recycled slot re-parked under a new
     * identity does not inherit stale subscriptions.
     */
    std::uint64_t ltpGen = 0;
    /// @}

    /// @name Status
    /// @{
    bool dispatched = false;
    bool issued = false;
    bool executed = false;  ///< stores: address+data staged in the SQ
    bool completed = false; ///< result available (loads: data arrived)
    bool committed = false;
    bool squashed = false;
    bool mispredicted = false; ///< branch direction/target mispredict
    /// @}

    /// @name Memory state
    /// @{
    bool waitingOnStore = false;
    SeqNum waitStoreSeq = kSeqNone;
    HitLevel memLevel = HitLevel::L1;
    /// @}

    /// @name Timing
    /// @{
    Cycle fetchCycle = 0;
    Cycle renameCycle = 0;
    Cycle earliestIssue = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;
    Cycle unparkCycle = 0;
    /// @}

    bool hasDst() const { return op.hasDst(); }
    RegClass dstClass() const { return op.dst.regClass(); }

    /** Reset for reuse from the instruction pool. */
    void
    init(const MicroOp &o, SeqNum s, Cycle fetch_cycle, int thread = 0)
    {
        std::uint64_t keep_ltp_gen = ltpGen; // park-episode counter
        *this = DynInst{};                   // survives slot reuse
        ltpGen = keep_ltp_gen;
        op = o;
        seq = s;
        tid = thread;
        fetchCycle = fetch_cycle;
    }

    /**
     * Age order across hardware threads: per-thread sequence numbers
     * are only comparable within a thread, so cross-thread structures
     * (the shared IQ) order by (seq, tid) — identical to plain seq
     * order on a single-threaded machine.
     */
    bool
    olderThan(const DynInst &o) const
    {
        return seq < o.seq || (seq == o.seq && tid < o.tid);
    }

    std::string toString() const;
};

} // namespace ltp

#endif // LTP_CPU_DYN_INST_HH
