/**
 * @file
 * The Long Term Parking structure itself — Sections 5.2 and Appendix A.
 *
 * For the Non-Urgent-only design the LTP is a plain FIFO queue: parked
 * instructions are inserted at rename in program order and only ever
 * leave from the head (ROB-position wakeup is in program order) — this
 * is the property that makes the structure "enormously more efficient"
 * than an IQ.
 *
 * For the Non-Ready modes the structure additionally supports
 * CAM-style extraction: any entry whose ticket vector has been fully
 * cleared may leave out of order (the paper's ticket bit-matrix).  The
 * energy model charges the two modes differently.
 *
 * The model is event-driven, mirroring the IQ's dependents-list
 * scheduler: parked instructions live on an intrusive seq-ordered list
 * (O(1) park / extract / squash, no allocation), and each instruction
 * carries a count of its still-pending tickets.  Every ticket keeps a
 * *subscriber* cohort — the parked instructions waiting on it — so a
 * ticket-clear broadcast (one DRAM return) wakes its whole cohort in
 * one pass instead of the core re-scanning every parked instruction
 * every cycle.  Instructions whose count reaches zero move onto one of
 * two seq-ordered ready lists (urgent / non-urgent); wakeup selection
 * is a bounded merge walk of those lists, never a scan of the queue.
 *
 * Subscriptions are never eagerly torn down: liveness is checked
 * against the instruction's park-episode counter (DynInst::ltpGen) on
 * each walk, and stale entries are compacted in place.  A subscription
 * deliberately outlives the ticket's *clear* — if the ticket id is
 * released and reallocated to a new long-latency instruction while the
 * subscriber is still parked, the reused id re-blocks it, exactly as
 * the per-cycle liveSubset scan used to observe.
 *
 * Capacity and insert/extract port counts are configurable — the
 * subject of Figure 10's sweep.
 */

#ifndef LTP_LTP_LTP_QUEUE_HH
#define LTP_LTP_LTP_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/dyn_inst.hh"

namespace ltp {

/** Bounded parking queue with per-cycle port limits. */
class LtpQueue
{
  public:
    /**
     * @param entries       capacity (kInfiniteSize for the limit study)
     * @param insert_ports  parks accepted per cycle
     * @param extract_ports wakeups served per cycle
     */
    LtpQueue(int entries, int insert_ports, int extract_ports);

    /**
     * Replenish port budgets explicitly (standalone/test use).  A
     * clock-bound queue (bindClock) replenishes lazily instead: every
     * port consumer checks the bound cycle and refreshes stale budgets
     * in place, so the core's per-cycle begin pass is gone.
     */
    void beginCycle();

    /** Bind the cycle counter for lazy port replenishment. */
    void bindClock(const Cycle *clock) { clock_ = clock; }

    /** Can another instruction be parked this cycle? */
    bool canInsert() const;

    /**
     * Park @p inst (callers park in program order).  Subscribes it to
     * every ticket in its mask; all mask bits are pending at park time
     * (rename live-filters the mask in the same cycle), so the pending
     * count starts at the mask population.
     */
    void push(DynInst *inst);

    /** Can another instruction be woken this cycle? */
    bool canExtract() const;

    /** Oldest parked instruction, or nullptr. */
    DynInst *front() const { return head_; }

    /** Remove the head (FIFO extraction; consumes an extract port). */
    void popFront();

    /**
     * CAM extraction for Non-Ready wakeup: remove @p inst wherever it
     * sits in the queue (consumes an extract port).
     */
    void remove(DynInst *inst);

    /** Squash support: drop every entry younger than @p seq. */
    void squashYoungerThan(SeqNum seq);

    /// @name Ticket-event hooks (the batched-unpark path)
    /// @{
    /**
     * Ticket @p t transitioned pending → cleared: decrement every live
     * subscriber's pending count; those reaching zero join a ready
     * list.  Call only on an actual transition.
     */
    void onTicketCleared(int t);

    /**
     * Ticket @p t was (re)allocated, so its pending bit is set again:
     * any still-parked subscriber from a previous life of the id is
     * re-blocked (the ticket-aliasing case the per-cycle scan handled
     * implicitly).
     */
    void onTicketPending(int t);
    /// @}

    /// @name Ready-list access for wakeup selection (seq-ordered)
    /// @{
    DynInst *urgentReadyFront() const { return uready_head_; }
    DynInst *nonUrgentReadyFront() const { return ready_head_; }
    static DynInst *readyNext(const DynInst *i) { return i->ltpReadyNext; }
    /// @}

    /** Visit entries oldest-first (brute-force checks, inspection). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (DynInst *i = head_; i; i = i->ltpNext)
            fn(i);
    }

    int size() const { return size_; }
    bool empty() const { return size_ == 0; }
    int capacity() const { return capacity_; }

    /// @name Statistics (Figure 7 utilisation, Figure 10 activity)
    /// @{
    Counter pushes;
    Counter pops;
    Counter camExtractions;
    Counter fullStalls;
    OccupancyStat occupancy;
    OccupancyStat parkedWithDest; ///< "Regs in LTP"  (Fig 7)
    OccupancyStat parkedLoads;    ///< "Loads in LTP" (Fig 7)
    OccupancyStat parkedStores;   ///< "Stores in LTP"(Fig 7)
    void resetStats(Cycle now);
    /// @}

  private:
    /** One parked instruction waiting on a ticket; `gen` snapshots
     *  DynInst::ltpGen so recycled pool slots self-invalidate. */
    struct Subscriber
    {
        DynInst *inst;
        std::uint64_t gen;
    };

    bool subscriberLive(const Subscriber &s) const
    {
        return s.inst->ltpGen == s.gen && s.inst->inLtp;
    }

    void unlink(DynInst *inst);
    void readyInsert(DynInst *inst);
    void readyRemove(DynInst *inst);
    void accountRemove(DynInst *inst);

    /** Lazy port replenishment for clock-bound queues (see beginCycle). */
    void
    refreshPorts() const
    {
        if (clock_ && port_stamp_ != *clock_) {
            port_stamp_ = *clock_;
            inserts_left_ = insert_ports_;
            extracts_left_ = extract_ports_;
        }
    }

    int capacity_;
    int insert_ports_;
    int extract_ports_;
    const Cycle *clock_ = nullptr;   ///< lazy-replenish time source
    mutable Cycle port_stamp_ = 0;   ///< cycle the budgets refer to
    mutable int inserts_left_ = 0;
    mutable int extracts_left_ = 0;
    int size_ = 0;

    DynInst *head_ = nullptr; ///< seq-ordered parked list
    DynInst *tail_ = nullptr;
    DynInst *uready_head_ = nullptr; ///< urgent, tickets clear
    DynInst *uready_tail_ = nullptr;
    DynInst *ready_head_ = nullptr; ///< non-urgent, tickets clear
    DynInst *ready_tail_ = nullptr;

    std::vector<std::vector<Subscriber>> subs_; ///< per-ticket cohorts
};

} // namespace ltp

#endif // LTP_LTP_LTP_QUEUE_HH
