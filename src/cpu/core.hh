/**
 * @file
 * The out-of-order core with integrated Long Term Parking — an N-way
 * SMT machine (N = 1 reproduces the paper's single-threaded Table 1
 * core bit-for-bit).
 *
 * A cycle-driven model of the Table 1 machine: 8-wide fetch/decode/
 * rename, 6-wide issue, 8-wide writeback/commit, ROB 256, IQ 64, LQ 64,
 * SQ 32, 128 INT + 128 FP rename registers, gshare+BTB front end,
 * backed by the src/mem hierarchy.
 *
 * SMT partitioning (the Criticality-Aware-Multiprocessors / QoSMT
 * setting): each hardware thread owns a ThreadContext holding its whole
 * front end and in-order window — fetch queue, branch predictor, RAT,
 * ROB, LSQ — plus its private LTP machinery (parking queue, tickets,
 * UIT, hit/miss predictor, DRAM monitor) and instruction pool.  The
 * issue queue, physical register files, functional units, and the
 * memory hierarchy are shared: that contention is what parking
 * non-critical instructions relieves.  Fetch and rename bandwidth are
 * arbitrated by a pluggable policy (round-robin or ICOUNT).
 *
 * LTP integration points (Figure 8):
 *  - rename: UIT/oracle classification, parked-bit and ticket
 *    propagation, park decision, LTP-id allocation;
 *  - a wakeup stage ahead of rename (LTP-first register priority):
 *    forced unpark of a parked ROB head, ROB-proximity Non-Urgent
 *    wakeup, ticket-cleared Non-Ready wakeup;
 *  - execute: long-latency detection, early-wakeup ticket clears,
 *    DRAM-monitor arming;
 *  - commit: UIT seeding from committed long-latency loads, hit/miss
 *    predictor training, register/LTP-id freeing.
 */

#ifndef LTP_CPU_CORE_HH
#define LTP_CPU_CORE_HH

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/timing_wheel.hh"
#include "cpu/branch_pred.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/exec.hh"
#include "cpu/iq.hh"
#include "cpu/lsq.hh"
#include "cpu/regfile.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "ltp/llpred.hh"
#include "ltp/ltp_queue.hh"
#include "ltp/monitor.hh"
#include "ltp/oracle.hh"
#include "ltp/tickets.hh"
#include "ltp/uit.hh"
#include "mem/mem_system.hh"

namespace ltp {

/** Which instruction classes LTP parks (Figure 6 curves). */
enum class LtpMode { Off, NU, NR, NRNU };

const char *ltpModeName(LtpMode mode);

/** Classification source: learned hardware tables vs. the oracle. */
enum class ClassifierKind { Learned, Oracle };

/**
 * SMT fetch/rename arbitration policy:
 *  - RoundRobin: threads take turns owning the front end, rotating
 *    every cycle.
 *  - ICount: the classic Tullsen policy — the thread with the fewest
 *    instructions in its front-end queue plus the shared IQ goes
 *    first, starving threads that hog the scheduling window.
 * Irrelevant (and bit-invisible) on a single-threaded core.
 */
enum class FetchPolicy { RoundRobin, ICount };

const char *fetchPolicyName(FetchPolicy p);

/**
 * Non-Urgent wakeup policy (ablation of the Section 3.2 design choice):
 *  - RobProximity: the paper's policy — wake between the ROB head and
 *    the second long-latency instruction.
 *  - Eager: wake as soon as ports allow (parking barely holds).
 *  - Lazy: only the deadlock machinery wakes instructions (forced head
 *    unpark + resource pressure).
 */
enum class WakeupPolicy { RobProximity, Eager, Lazy };

/** LTP-specific configuration. */
struct LtpConfig
{
    LtpMode mode = LtpMode::Off;
    ClassifierKind classifier = ClassifierKind::Learned;
    int entries = 128;      ///< LTP queue capacity (Fig 10 sweep)
    int insertPorts = 4;    ///< parks per cycle (Fig 10 sweep)
    int extractPorts = 4;   ///< wakeups per cycle (Fig 10 sweep)
    int uitEntries = 256;   ///< Section 5.6
    int uitAssoc = 4;
    int numTickets = 64;    ///< Appendix A / Fig 11 sweep
    bool useMonitor = true; ///< DRAM-timer power gating (Section 5.2)
    WakeupPolicy wakeup = WakeupPolicy::RobProximity;
    bool delayLqSq = false; ///< limit-study late LQ/SQ allocation
    int reservedRegs = 8;   ///< Section 5.4 deadlock reserve
    int reservedLqSq = 4;   ///< only meaningful with delayLqSq
};

/** Full core configuration (defaults = Table 1 baseline). */
struct CoreConfig
{
    int fetchWidth = 8;
    int decodeWidth = 8;
    int renameWidth = 8;
    int issueWidth = 6;
    int wbWidth = 8;
    int commitWidth = 8;

    int robSize = 256;
    int iqSize = 64;
    int lqSize = 64;
    int sqSize = 32;
    int intRegs = 128; ///< available (renameable) registers
    int fpRegs = 128;

    int frontendDepth = 3;   ///< fetch-to-rename latency
    int fetchQueueCap = 64;
    int redirectPenalty = 8; ///< extra cycles after branch resolve
    int bpTableBits = 14;
    int btbEntries = 4096;
    int sqDrainWidth = 2;

    /// @name SMT (multi-context) shape
    /// @{
    int numThreads = 1; ///< hardware contexts sharing IQ/RF/FUs/memory
    FetchPolicy fetchPolicy = FetchPolicy::RoundRobin;
    /// @}

    FuConfig fu;
    LtpConfig ltp;
};

/** Random-access trace source (supports squash rewind by seq). */
class InstSource
{
  public:
    virtual ~InstSource() = default;
    /** The micro-op at trace position @p seq. */
    virtual MicroOp fetch(SeqNum seq) = 0;
    /** All seq <= @p upto are committed; storage may be trimmed. */
    virtual void retire(SeqNum upto) { (void)upto; }
};

/** Behavioural counters exported by the core, one set per thread. */
struct CoreStats
{
    Counter committed;
    Counter fetched;
    Counter renamed;
    Counter parked;
    Counter unparked;
    Counter forcedUnparks;
    Counter pressureUnparks;
    Counter boundaryUnparks;
    Counter ticketUnparks;

    Counter iqIssued;
    Counter wbWrites;   ///< completions (wakeup broadcasts)
    Counter rfReads;    ///< operand reads at issue
    Counter rfWrites;   ///< result writes

    Counter loadsExecuted;
    Counter storesExecuted;
    Counter squashes;
    Counter memViolations;

    Counter classUrgent;
    Counter classNonReady;
    Counter parkSkippedOff; ///< monitor had LTP powered off

    Counter renameStallRob;
    Counter renameStallRegs;
    Counter renameStallIq;
    Counter renameStallLq;
    Counter renameStallSq;
    Counter renameStallLtp;
    Counter commitStallLoad;
    Counter commitStallOther;

    void reset();

    /** Visit every counter (idle-cycle skipping scales them in bulk). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn)
    {
        for (Counter *c :
             {&committed, &fetched, &renamed, &parked, &unparked,
              &forcedUnparks, &pressureUnparks, &boundaryUnparks,
              &ticketUnparks, &iqIssued, &wbWrites, &rfReads, &rfWrites,
              &loadsExecuted, &storesExecuted, &squashes, &memViolations,
              &classUrgent, &classNonReady, &parkSkippedOff,
              &renameStallRob, &renameStallRegs, &renameStallIq,
              &renameStallLq, &renameStallSq, &renameStallLtp,
              &commitStallLoad, &commitStallOther})
            fn(*c);
    }
};

/**
 * Per-thread simulated address-space stride.  Multiprogrammed SMT
 * contexts model distinct programs: offsetting each thread's PCs and
 * data addresses far above any kernel's footprint keeps their streams
 * from aliasing in the shared hierarchy while leaving the set indexing
 * (and the power-of-two DRAM channel/bank mapping) of each individual
 * stream unchanged.  Thread 0's base is zero, so a single-threaded
 * core touches exactly the paper's addresses.
 */
inline constexpr Addr kThreadAddrStride = Addr(1) << 40;

/** The simulated address-space base of hardware thread @p tid. */
inline constexpr Addr
threadAddrBase(int tid)
{
    return Addr(tid) * kThreadAddrStride;
}

/**
 * Per-stage wall-clock attribution of Core::tick, filled in when a
 * profile is attached via Core::setProfiler (the `ltp bench --profile`
 * path).  When no profile is attached the profiled tick variant is
 * never entered, so measurement costs nothing in normal runs.  Idle-
 * cycle skipping stays on while profiling: its bookkeeping is the
 * IdleSkip stage, and the cycles it jumps are counted, not ticked.
 */
struct TickProfile
{
    enum Stage
    {
        BeginCycle,
        TicketEvents,
        Writeback,
        Commit,
        LtpWakeup,
        Rename,
        Execute,
        DrainStores,
        Fetch,
        IdleSkip,
        kNumStages
    };

    std::array<std::uint64_t, kNumStages> ns{}; ///< per-stage wall ns
    std::uint64_t ticks = 0;                    ///< ticks attributed
    std::uint64_t skippedTicks = 0;             ///< cycles jumped

    static const char *stageName(int s);

    std::uint64_t
    totalNs() const
    {
        std::uint64_t t = 0;
        for (auto v : ns)
            t += v;
        return t;
    }
};

/**
 * Sorted-unique flat set of sequence numbers.
 *
 * Backs the per-thread in-flight long-latency tracking, whose access
 * pattern a node-based set serves badly: inserts at rename arrive in
 * program order (amortised O(1) push_back), out-of-order inserts and
 * erases touch one contiguous cache-resident array bounded by the
 * window size, and the ROB-proximity wakeup boundary reads are just
 * the first two elements.  No allocation after warm-up.
 */
class SeqFlatSet
{
  public:
    void
    insert(SeqNum s)
    {
        if (v_.empty() || s > v_.back()) {
            v_.push_back(s);
            return;
        }
        auto it = std::lower_bound(v_.begin(), v_.end(), s);
        if (it == v_.end() || *it != s)
            v_.insert(it, s);
    }

    void
    erase(SeqNum s)
    {
        auto it = std::lower_bound(v_.begin(), v_.end(), s);
        if (it != v_.end() && *it == s)
            v_.erase(it);
    }

    std::size_t size() const { return v_.size(); }
    /** The i-th smallest element; i < size(). */
    SeqNum nth(std::size_t i) const { return v_[i]; }

  private:
    std::vector<SeqNum> v_;
};

/** The OOO core: one shared back end, N hardware-thread contexts. */
class Core
{
  public:
    /**
     * Single-threaded convenience constructor (the paper's machine).
     * @param oracle optional per-dynamic-instruction classification for
     *               limit-study runs (ClassifierKind::Oracle).
     */
    Core(const CoreConfig &cfg, MemSystem &mem, InstSource &source,
         const OracleClassification *oracle = nullptr);

    /**
     * SMT constructor: one InstSource (and optionally one oracle) per
     * hardware thread; cfg.numThreads must equal sources.size().
     */
    Core(const CoreConfig &cfg, MemSystem &mem,
         const std::vector<InstSource *> &sources,
         const std::vector<const OracleClassification *> &oracles = {});

    ~Core();

    /** Advance one cycle (never skips: the reference the run loops
     *  must match bit for bit). */
    void tick();

    /**
     * Hook run after every executed tick of a multi-thread run loop.
     * Cycles the loop jumps are not ticked, so the hook may observe
     * only state that changes with progress (commit counts, not the
     * clock).
     */
    using TickHook = std::function<void()>;

    /**
     * Run until every thread has committed @p n instructions (or
     * @p max_cycles).  On a single-threaded core this is the classic
     * "run until n committed".  @p on_tick, if set, runs after every
     * executed tick — the Simulator's SMT staging uses it to detect
     * per-thread quota crossings without a second driver loop.
     *
     * Quiet stretches are skipped, bit-identically to ticking them:
     * once two consecutive ticks make no progress (no event fired or
     * popped; no commit, unpark, rename, issue, store-drain attempt,
     * fetch attempt or squash), the clock jumps to one cycle before
     * the next event and every counter advances by the span times the
     * second tick's increment.  The jump never passes @p max_cycles,
     * and the no-progress watchdog still panics on the same cycle.
     */
    void runUntilCommitted(std::uint64_t n,
                           Cycle max_cycles = kCycleNever,
                           const TickHook &on_tick = {});

    /**
     * Gate one thread's fetch (SMT staging: a context that has
     * committed its phase quota stops consuming its instruction
     * stream and drains, instead of running arbitrarily far ahead —
     * which would walk off the end of a bounded `trace:` replay).
     */
    void setFetchEnabled(int tid, bool on);

    /** Stop fetching and run until every window is empty (tests).
     *  Skips quiet stretches exactly as runUntilCommitted does. */
    void drain();

    /**
     * Squash every thread-@p tid instruction younger than @p keep and
     * rewind that thread's fetch.  Exercised by memory-order-violation
     * recovery and by tests.
     */
    void squashAfter(SeqNum keep, int tid = 0);

    /** Inspect a thread's rename table (tests, inspector). */
    const RatEntry &ratEntry(RegId r, int tid = 0) const;

    /**
     * Brute-force source-readiness scan.  The scheduler no longer polls
     * this per cycle — wakeup is event-driven via the register
     * dependents lists — but it remains the reference predicate the
     * property tests validate the ready list against.
     */
    bool srcsReady(const DynInst *inst) const;

    Cycle cycle() const { return now_; }
    /** Cycles jumped by idle-cycle skipping (included in cycle()). */
    std::uint64_t skippedTicks() const { return skipped_; }
    int numThreads() const { return static_cast<int>(threads_.size()); }
    std::uint64_t committedInsts(int tid = 0) const;

    /** Reset measurement state at the start of the detailed region. */
    void resetStats();

    /**
     * Attach (or detach, with nullptr) a per-stage tick profile.  While
     * attached, every tick's stage wall times accumulate into it.
     */
    void setProfiler(TickProfile *profile) { profile_ = profile; }

    /// @name Component access (tests, metrics extraction).  Thread-
    /// owned structures take a tid (default 0 keeps every existing
    /// single-threaded caller working unchanged).
    /// @{
    CoreStats &stats(int tid = 0);
    IssueQueue &iq() { return iq_; }
    Rob &rob(int tid = 0);
    Lsq &lsq(int tid = 0);
    LtpQueue &ltpQueue(int tid = 0);
    Uit &uit(int tid = 0);
    TicketPool &tickets(int tid = 0);
    LoadLatencyPredictor &llpred(int tid = 0);
    LtpMonitor &monitor(int tid = 0);
    BranchPredictor &branchPred(int tid = 0);
    PhysRegFile &regs(RegClass cls)
    {
        return cls == RegClass::Int ? int_regs_ : fp_regs_;
    }
    const PhysRegFile &regs(RegClass cls) const
    {
        return cls == RegClass::Int ? int_regs_ : fp_regs_;
    }
    const CoreConfig &config() const { return cfg_; }
    /// @}

  private:
    /**
     * Everything one hardware thread owns: the in-order front end and
     * window, the per-thread LTP machinery, and the instruction pool.
     * The shared back end (IQ, register files, FUs, memory) lives on
     * the Core itself.
     */
    struct ThreadContext
    {
        ThreadContext(int tid, const CoreConfig &cfg, InstSource &source,
                      const OracleClassification *oracle,
                      Cycle dram_latency);

        int tid;
        InstSource *source;
        const OracleClassification *oracle;

        // ---- front end ----
        BranchPredictor bpred;
        struct FrontEntry
        {
            DynInst *inst;
            Cycle readyAt;
        };
        Ring<FrontEntry> front_queue;
        SeqNum next_fetch_seq = 0;
        SeqNum fetch_blocked_on = kSeqNone; ///< unresolved mispredict
        Cycle fetch_resume_at = 0;
        bool fetch_enabled = true;

        // ---- rename / window ----
        RenameTable rat;
        LtpRat ltp_rat;
        Rob rob;
        Lsq lsq;

        // ---- LTP ----
        LtpQueue ltp;
        Uit uit;
        LoadLatencyPredictor llpred;
        TicketPool tickets;
        LtpMonitor monitor;
        SeqFlatSet ll_inflight; ///< incomplete long-latency insts
        bool rename_pressure = false; ///< resource-stall unpark trigger
        /** Whether the last rename stall was on a *full LTP* with a
         *  must-park instruction — the one stall that draining the LTP
         *  relieves directly, and hence the only pressure trigger.
         *  Register/LQ/SQ recovery is what the ROB-proximity wakeup
         *  already provides (waking more than the about-to-commit
         *  region early measurably wastes the registers parking
         *  saved), and a parked ROB head is handled by the forced
         *  unpark. */
        bool rename_stall_commit_freed = false;
        std::vector<std::uint64_t> ticket_epoch; ///< stale-event guard

        // ---- instruction pool ----
        std::vector<DynInst> pool;
        std::vector<std::uint64_t> pool_gen;

        /**
         * Per-thread simulated address-space base: multiprogrammed
         * contexts run distinct programs, so their memory streams must
         * not alias in the shared hierarchy.  Zero for thread 0 — a
         * single-threaded core touches exactly the paper's addresses.
         */
        Addr mem_base;

        // ---- stats ----
        CoreStats stats;
    };

    // ---- pipeline stages (tick order) ----
    void processTicketEvents();
    void writeback();
    void commit(ThreadContext &t);
    void ltpWakeup(ThreadContext &t);
    void rename();
    void execute();
    void drainStores(ThreadContext &t);
    void fetch();

    // ---- helpers ----
    ThreadContext &thread(int tid) { return *threads_[std::size_t(tid)]; }
    const ThreadContext &thread(int tid) const
    {
        return *threads_[std::size_t(tid)];
    }
    ThreadContext &threadOf(const DynInst *inst)
    {
        return thread(inst->tid);
    }
    DynInst *slotFor(ThreadContext &t, SeqNum seq);
    DynInst *allocInst(ThreadContext &t, const MicroOp &op, SeqNum seq);
    bool eventInstValid(const ThreadContext &t, SeqNum seq,
                        std::uint64_t gen) const;
    std::uint64_t poolGen(const DynInst *inst) const;

    /**
     * Thread visit order for this cycle's fetch/rename arbitration,
     * per cfg.fetchPolicy.  Always {0} on a single-threaded core.
     */
    const std::vector<int> &threadOrder();

    void renameThread(ThreadContext &t, int &budget);
    bool fetchEligible(const ThreadContext &t) const;
    void fetchThread(ThreadContext &t);

    struct Classification
    {
        bool urgent = false;
        bool nonReady = false;
        bool predictedLL = false;
        TicketMask tickets;
        bool parkEligible = false; ///< class-based park wanted
    };
    Classification classify(ThreadContext &t, DynInst *inst);

    bool renameOne(ThreadContext &t, DynInst *inst);
    SrcRef readSrc(const ThreadContext &t, RegId reg) const;
    bool tryUnpark(ThreadContext &t, DynInst *inst, bool forced);
    void enqueueIq(DynInst *inst, bool emergency);
    void wakeDependents(PhysRegFile &rf, std::int32_t phys);
    void bindOccupancyClocks();
    void registerCounters();
    Cycle nextEventCycle() const;
    void skipIdle(Cycle limit);
    SeqNum nuWakeupBoundary(const ThreadContext &t) const;
    void executeLoad(DynInst *inst, Cycle now);
    void scheduleCompletion(DynInst *inst, Cycle when);
    void scheduleTicketClear(ThreadContext &t, int ticket, Cycle when);
    void completeInst(DynInst *inst);
    bool ltpOn(const ThreadContext &t) const;

    // ---- configuration & wiring ----
    CoreConfig cfg_;
    MemSystem &mem_;

    // ---- time ----
    Cycle now_ = 0;

    // ---- idle-cycle skipping ----
    bool progress_ = false;   ///< the last tick did work (see skipIdle)
    bool idle_armed_ = false; ///< counter_snap_ holds a quiet tick's end
    std::uint64_t skipped_ = 0;
    std::vector<Counter *> counters_; ///< every counter the core owns
    std::vector<std::uint64_t> counter_snap_;

    // ---- hardware threads ----
    std::vector<std::unique_ptr<ThreadContext>> threads_;

    // ---- shared rename targets ----
    PhysRegFile int_regs_;
    PhysRegFile fp_regs_;

    // ---- shared window / execution ----
    IssueQueue iq_;
    FuPool fu_;

    // ---- events (shared clock, tid-tagged payloads) ----
    /** Result-ready event (drained by writeback, width-limited). */
    struct CompletionEv
    {
        Cycle when;
        SeqNum seq;
        std::uint64_t gen;
        int tid;
        bool operator>(const CompletionEv &o) const { return when > o.when; }
    };
    /** Early-wakeup broadcast clearing a ticket (Appendix A). */
    struct TicketEv
    {
        Cycle when;
        int ticket;
        std::uint64_t epoch; ///< guards against cleared-then-reused ids
        int tid;
        bool operator>(const TicketEv &o) const { return when > o.when; }
    };
    /** Retry of a load whose L1D MSHR allocation failed. */
    struct RetryEv
    {
        Cycle when;
        SeqNum seq;
        std::uint64_t gen;
        int tid;
        bool operator>(const RetryEv &o) const { return when > o.when; }
    };
    template <typename T>
    using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;
    MinHeap<CompletionEv> completions_;
    MinHeap<RetryEv> retry_events_;
    /**
     * Ticket-expiry events ride a timing wheel, not a heap: clears are
     * commutative within a cycle (the epoch guard plus the pending-bit
     * transition check make processing order immaterial), which is
     * exactly the property the wheel's insertion-order firing needs.
     * The completion/retry heaps must stay heaps — their equal-cycle
     * pop order is observable through the writeback width budget and
     * MSHR allocation order.
     */
    TimingWheel<TicketEv> ticket_events_;

    // ---- scratch ----
    std::vector<DynInst *> scratch_loads_;  ///< store-wake collection
    std::vector<DynInst *> scratch_select_; ///< per-cycle select list
    std::vector<int> scratch_order_;        ///< per-cycle thread order

    // ---- profiling ----
    void tickProfiled();
    TickProfile *profile_ = nullptr;
};

} // namespace ltp

#endif // LTP_CPU_CORE_HH
