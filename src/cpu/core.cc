#include "cpu/core.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace ltp {

namespace {

/** In-flight instruction pool size, per thread: must exceed ROB +
 *  front end + SQ drain backlog by a wide margin so slots are never
 *  live on reuse.  Shared with the IQ's (tid, seq)-indexed ready
 *  bitmask (kInstWindow). */
constexpr std::size_t kPoolSize = kInstWindow;

} // namespace

const char *
ltpModeName(LtpMode mode)
{
    switch (mode) {
      case LtpMode::Off: return "off";
      case LtpMode::NU: return "NU";
      case LtpMode::NR: return "NR";
      case LtpMode::NRNU: return "NR+NU";
    }
    return "?";
}

const char *
fetchPolicyName(FetchPolicy p)
{
    switch (p) {
      case FetchPolicy::RoundRobin: return "roundRobin";
      case FetchPolicy::ICount: return "icount";
    }
    return "?";
}

void
CoreStats::reset()
{
    *this = CoreStats{};
}

Core::ThreadContext::ThreadContext(int tid_, const CoreConfig &cfg,
                                   InstSource &source_,
                                   const OracleClassification *oracle_,
                                   Cycle dram_latency)
    : tid(tid_),
      source(&source_),
      oracle(oracle_),
      bpred(cfg.bpTableBits, cfg.btbEntries),
      front_queue(std::size_t(std::min(cfg.fetchQueueCap, 512))),
      ltp_rat(4 * (std::min(cfg.ltp.entries, cfg.robSize) + cfg.robSize)),
      rob(cfg.robSize),
      lsq(cfg.lqSize, cfg.sqSize,
          cfg.ltp.mode != LtpMode::Off && cfg.ltp.delayLqSq
              ? cfg.ltp.reservedLqSq : 0,
          cfg.ltp.mode != LtpMode::Off && cfg.ltp.delayLqSq
              ? cfg.ltp.reservedLqSq : 0),
      ltp(cfg.ltp.entries, cfg.ltp.insertPorts, cfg.ltp.extractPorts),
      uit(cfg.ltp.uitEntries, cfg.ltp.uitAssoc),
      llpred(),
      tickets(cfg.ltp.numTickets),
      monitor(cfg.ltp.useMonitor, dram_latency),
      pool(kPoolSize),
      pool_gen(kPoolSize, 0),
      mem_base(threadAddrBase(tid_))
{
    ticket_epoch.assign(tickets.capacity(), 0);
}

Core::Core(const CoreConfig &cfg, MemSystem &mem, InstSource &source,
           const OracleClassification *oracle)
    : Core(cfg, mem, std::vector<InstSource *>{&source},
           std::vector<const OracleClassification *>{oracle})
{
}

Core::Core(const CoreConfig &cfg, MemSystem &mem,
           const std::vector<InstSource *> &sources,
           const std::vector<const OracleClassification *> &oracles)
    : cfg_(cfg),
      mem_(mem),
      int_regs_(cfg.intRegs,
                cfg.ltp.mode != LtpMode::Off ? cfg.ltp.reservedRegs : 0),
      fp_regs_(cfg.fpRegs,
               cfg.ltp.mode != LtpMode::Off ? cfg.ltp.reservedRegs : 0),
      iq_(cfg.iqSize, std::max(cfg.numThreads, 1)),
      fu_(cfg.fu)
{
    int n = std::max(cfg.numThreads, 1);
    if (static_cast<int>(sources.size()) != n)
        fatal("core.numThreads=%d but %d instruction source(s) provided",
              n, static_cast<int>(sources.size()));
    for (int tid = 0; tid < n; ++tid) {
        const OracleClassification *oracle =
            tid < static_cast<int>(oracles.size()) ? oracles[tid]
                                                   : nullptr;
        if (cfg.ltp.classifier == ClassifierKind::Oracle && !oracle)
            fatal("oracle classifier selected but no oracle provided "
                  "for thread %d", tid);
        threads_.push_back(std::make_unique<ThreadContext>(
            tid, cfg, *sources[std::size_t(tid)], oracle,
            mem.dramLatency()));
    }
    bindOccupancyClocks();
    registerCounters();
}

Core::~Core() = default;

// ---------------------------------------------------------------------
// Per-thread component accessors

CoreStats &Core::stats(int tid) { return thread(tid).stats; }
Rob &Core::rob(int tid) { return thread(tid).rob; }
Lsq &Core::lsq(int tid) { return thread(tid).lsq; }
LtpQueue &Core::ltpQueue(int tid) { return thread(tid).ltp; }
Uit &Core::uit(int tid) { return thread(tid).uit; }
TicketPool &Core::tickets(int tid) { return thread(tid).tickets; }
LoadLatencyPredictor &Core::llpred(int tid) { return thread(tid).llpred; }
LtpMonitor &Core::monitor(int tid) { return thread(tid).monitor; }
BranchPredictor &Core::branchPred(int tid) { return thread(tid).bpred; }

const RatEntry &
Core::ratEntry(RegId r, int tid) const
{
    return thread(tid).rat[r];
}

std::uint64_t
Core::committedInsts(int tid) const
{
    return thread(tid).stats.committed.value();
}

bool
Core::ltpOn(const ThreadContext &t) const
{
    return cfg_.ltp.mode != LtpMode::Off && t.monitor.enabled(now_);
}

// ---------------------------------------------------------------------
// Instruction pool (one per thread)

DynInst *
Core::slotFor(ThreadContext &t, SeqNum seq)
{
    return &t.pool[seq % kPoolSize];
}

DynInst *
Core::allocInst(ThreadContext &t, const MicroOp &op, SeqNum seq)
{
    DynInst *inst = slotFor(t, seq);
    sim_assert(inst->seq == kSeqNone || inst->committed ||
               inst->squashed);
    sim_assert(!inst->inIq && !inst->inLtp && !inst->inLq && !inst->inSq);
    t.pool_gen[seq % kPoolSize] += 1;
    inst->init(op, seq, now_, t.tid);
    return inst;
}

bool
Core::eventInstValid(const ThreadContext &t, SeqNum seq,
                     std::uint64_t gen) const
{
    const DynInst &inst = t.pool[seq % kPoolSize];
    return inst.seq == seq && t.pool_gen[seq % kPoolSize] == gen &&
           !inst.squashed;
}

std::uint64_t
Core::poolGen(const DynInst *inst) const
{
    return thread(inst->tid).pool_gen[inst->seq % kPoolSize];
}

// ---------------------------------------------------------------------
// Event scheduling

void
Core::scheduleCompletion(DynInst *inst, Cycle when)
{
    sim_assert(when >= now_);
    completions_.push(
        CompletionEv{when, inst->seq, poolGen(inst), inst->tid});
}

void
Core::scheduleTicketClear(ThreadContext &t, int ticket, Cycle when)
{
    ticket_events_.schedule(
        when, TicketEv{when, ticket,
                       t.ticket_epoch[std::size_t(ticket)], t.tid});
}

void
Core::processTicketEvents()
{
    ticket_events_.advanceTo(now_, [this](const TicketEv &ev) {
        progress_ = true;
        ThreadContext &t = thread(ev.tid);
        if (t.ticket_epoch[std::size_t(ev.ticket)] != ev.epoch)
            return;
        // The broadcast counter charges every (epoch-valid) clear, but
        // only an actual pending→cleared transition wakes the ticket's
        // parked subscriber cohort.
        bool was_pending = t.tickets.pending().test(ev.ticket);
        t.tickets.clearPending(ev.ticket);
        if (was_pending)
            t.ltp.onTicketCleared(ev.ticket);
    });
}

// ---------------------------------------------------------------------
// Writeback

void
Core::completeInst(DynInst *inst)
{
    ThreadContext &t = threadOf(inst);
    sim_assert(!inst->completed);
    inst->completed = true;
    inst->executed = true;
    inst->completeCycle = now_;
    t.stats.wbWrites++;

    if (inst->dstPhys >= 0) {
        wakeDependents(regs(inst->dstClass()), inst->dstPhys);
        t.stats.rfWrites++;
    }

    // A store's data is now staged: re-disambiguate loads that waited.
    if (inst->op.isStore()) {
        scratch_loads_.clear();
        t.lsq.collectLoadsWaitingOn(inst->seq, scratch_loads_);
        for (DynInst *ld : scratch_loads_) {
            ld->waitingOnStore = false;
            ld->waitStoreSeq = kSeqNone;
            executeLoad(ld, now_);
        }
    }

    // Resolved the branch the front end was blocked on?
    if (t.fetch_blocked_on == inst->seq) {
        t.fetch_blocked_on = kSeqNone;
        t.fetch_resume_at = now_ + cfg_.redirectPenalty;
    }

    // Only predicted/actual long-latency instructions ever enter the
    // set — everything else skips the lookup.
    if (inst->predictedLL || inst->actualLL)
        t.ll_inflight.erase(inst->seq);
}

void
Core::writeback()
{
    int budget = cfg_.wbWidth;
    while (budget > 0 && !completions_.empty() &&
           completions_.top().when <= now_) {
        CompletionEv ev = completions_.top();
        completions_.pop();
        progress_ = true;
        ThreadContext &t = thread(ev.tid);
        if (!eventInstValid(t, ev.seq, ev.gen))
            continue;
        completeInst(slotFor(t, ev.seq));
        budget -= 1;
    }
}

// ---------------------------------------------------------------------
// Event-driven scheduling: dependents-list wakeup + ready-list insert

/**
 * Writeback broadcast for one destination register: mark it ready and
 * wake exactly the consumers linked on it.  Stale links (squashed and
 * possibly refetched consumers) are filtered by pool generation; a
 * consumer whose last outstanding source this was moves onto the IQ
 * ready list.
 */
void
Core::wakeDependents(PhysRegFile &rf, std::int32_t phys)
{
    rf.setReady(phys);
    for (const RegDependent &d : rf.dependents(phys)) {
        DynInst *consumer = d.inst;
        if (poolGen(consumer) != d.gen || !consumer->inIq)
            continue;
        sim_assert(consumer->pendingSrcs > 0);
        consumer->pendingSrcs -= 1;
        if (consumer->pendingSrcs == 0)
            iq_.markReady(consumer);
    }
    rf.clearDependents(phys);
}

/**
 * IQ insert with wakeup subscription: count the not-yet-ready physical
 * sources and link this instruction onto each one's dependents list.
 * An instruction arriving with every source ready goes straight onto
 * the ready list.
 */
void
Core::enqueueIq(DynInst *inst, bool emergency)
{
    iq_.insert(inst, emergency);
    int pending = 0;
    for (const auto &src : inst->srcs) {
        sim_assert(!src.isLtp()); // resolved before dispatch, always
        if (src.isPhys() && !regs(src.cls).ready(src.phys)) {
            regs(src.cls).addDependent(src.phys, inst, poolGen(inst));
            pending += 1;
        }
    }
    inst->pendingSrcs = pending;
    if (pending == 0)
        iq_.markReady(inst);
}

// ---------------------------------------------------------------------
// Commit (per thread; retirement ports are per-context)

void
Core::commit(ThreadContext &t)
{
    bool learned = cfg_.ltp.classifier == ClassifierKind::Learned;
    SeqNum last_committed = kSeqNone;

    for (int i = 0; i < cfg_.commitWidth; ++i) {
        DynInst *head = t.rob.head();
        if (!head)
            break;
        if (head->inLtp) {
            // Forced unpark will handle it this cycle (Section 5.4).
            t.stats.commitStallOther++;
            break;
        }
        if (!head->completed) {
            if (head->op.isLoad())
                t.stats.commitStallLoad++;
            else
                t.stats.commitStallOther++;
            break;
        }

        // Free the previous mapping of the destination register.
        switch (head->prevMap.kind) {
          case PrevMapping::Kind::Phys:
            regs(head->dstClass()).release(head->prevMap.idx);
            break;
          case PrevMapping::Kind::Ltp: {
            std::int32_t phys = t.ltp_rat.lookup(head->prevMap.idx);
            sim_assert(phys >= 0);
            regs(head->dstClass()).release(phys);
            t.ltp_rat.release(head->prevMap.idx);
            break;
          }
          case PrevMapping::Kind::None:
            break;
        }

        // LTP learning (Section 5.2): long-latency loads seed the UIT;
        // the hit/miss predictor trains on every load outcome.
        if (head->op.isLoad() && cfg_.ltp.mode != LtpMode::Off &&
            learned) {
            t.llpred.update(head->op.pc, head->actualLL);
            if (head->actualLL)
                t.uit.insert(head->op.pc);
        }

        if (head->ownTicket >= 0) {
            t.ticket_epoch[std::size_t(head->ownTicket)] += 1;
            if (t.tickets.pending().test(head->ownTicket))
                t.ltp.onTicketCleared(head->ownTicket);
            t.tickets.release(head->ownTicket);
        }

        if (head->op.isLoad() && head->inLq)
            t.lsq.removeLoad(head);

        head->committed = true;
        t.rob.popHead();
        t.stats.committed++;
        last_committed = head->seq;
    }

    // Retirement is a prefix trim, so one call with the youngest
    // committed seq releases the whole group's trace storage.
    if (last_committed != kSeqNone) {
        progress_ = true;
        t.source->retire(last_committed);
    }
}

// ---------------------------------------------------------------------
// LTP wakeup (Sections 3.2, 5.2, 5.4, Appendix A) — per thread

SeqNum
Core::nuWakeupBoundary(const ThreadContext &t) const
{
    switch (cfg_.ltp.wakeup) {
      case WakeupPolicy::Eager:
        return kSeqNone; // everything is always "in the window"
      case WakeupPolicy::Lazy:
        return 0; // nothing qualifies; forced/pressure paths only
      case WakeupPolicy::RobProximity:
        break;
    }
    // Wake everything older than the *second* long-latency instruction
    // in the ROB: when the blocking (first) one finishes, all of it can
    // retire in a burst.
    if (t.ll_inflight.size() < 2)
        return kSeqNone; // unbounded
    return t.ll_inflight.nth(1);
}

bool
Core::tryUnpark(ThreadContext &t, DynInst *inst, bool forced)
{
    if (forced ? !iq_.hasEmergencySpace() : !iq_.hasSpace())
        return false;

    // Sources produced by still-parked instructions cannot be resolved.
    std::int32_t resolved[kMaxSrcs];
    for (int i = 0; i < kMaxSrcs; ++i) {
        resolved[i] = -1;
        if (inst->srcs[i].isLtp()) {
            resolved[i] = t.ltp_rat.lookup(inst->srcs[i].ltpId);
            if (resolved[i] < 0)
                return false;
        }
    }

    std::int32_t dst = -1;
    if (inst->hasDst()) {
        dst = regs(inst->dstClass())
                  .allocate(forced ? AllocPriority::Forced
                                   : AllocPriority::Unpark);
        if (dst < 0)
            return false;
    }

    // Late LQ/SQ allocation (limit study).  Only the forced ROB-head
    // unpark may take the reserved entries: NR extraction is out of
    // order, and younger memory ops holding the reserve could not
    // commit past a parked head left with no slot (Section 5.4).
    bool need_lq = cfg_.ltp.delayLqSq && inst->op.isLoad();
    bool need_sq = cfg_.ltp.delayLqSq && inst->op.isStore();
    if ((need_lq && !t.lsq.lqHasSpace(forced)) ||
        (need_sq && !t.lsq.sqHasSpace(forced))) {
        if (dst >= 0)
            regs(inst->dstClass()).release(dst);
        return false;
    }

    // ---- commit the unpark ----
    for (int i = 0; i < kMaxSrcs; ++i) {
        if (inst->srcs[i].isLtp()) {
            inst->srcs[i].phys = resolved[i];
            inst->srcs[i].ltpId = -1;
        }
    }
    if (dst >= 0) {
        inst->dstPhys = dst;
        t.ltp_rat.resolve(inst->ltpId, dst);
        // If no younger writer renamed the register since, clear the
        // Parked bit so future consumers need not park.  The mapping
        // itself stays Ltp(id): readSrc() resolves it through RAT_LTP,
        // and the id is released when the next writer commits — the
        // same lifetime as the physical register it now names.
        RatEntry &e = t.rat[inst->op.dst];
        if (e.map.kind == PrevMapping::Kind::Ltp &&
            e.map.idx == inst->ltpId)
            e.parked = false;
    }
    if (need_lq)
        t.lsq.insertLoad(inst);
    if (need_sq) {
        t.lsq.removeShadowStore(inst);
        t.lsq.insertStore(inst);
    }

    enqueueIq(inst, forced && !iq_.hasSpace());
    inst->earliestIssue = now_ + 1;
    inst->unparkCycle = now_;
    t.stats.unparked++;
    progress_ = true;
    return true;
}

void
Core::ltpWakeup(ThreadContext &t)
{
    if (cfg_.ltp.mode == LtpMode::Off || t.ltp.empty())
        return;

    // 1) Forced: a parked ROB head must leave immediately or nothing
    //    can ever commit again (Section 5.4).
    DynInst *head = t.rob.head();
    if (head && head->inLtp) {
        sim_assert(t.ltp.front() == head);
        if (t.ltp.canExtract() && tryUnpark(t, head, /*forced=*/true)) {
            t.ltp.popFront();
            t.stats.forcedUnparks++;
        }
    }

    // Everything below unparks with forced=false, which requires
    // regular IQ space — with none, every attempt fails without side
    // effects, so skip the selection work outright.
    if (!iq_.hasSpace()) {
        t.rename_pressure = false;
        return;
    }

    // 2) Pressure: rename starved for a committed-freed resource last
    //    cycle; draining the oldest parked instruction frees resources
    //    at its commit.
    if (t.rename_pressure && !t.ltp.empty() && t.ltp.canExtract()) {
        DynInst *front = t.ltp.front();
        if (tryUnpark(t, front, /*forced=*/false)) {
            t.ltp.popFront();
            t.stats.pressureUnparks++;
        }
    }
    t.rename_pressure = false;

    // 3) Policy wakeup.
    SeqNum boundary = nuWakeupBoundary(t);
    LtpMode mode = cfg_.ltp.mode;

    if (mode == LtpMode::NU) {
        // Strict FIFO: eligibility is monotone in seq, so head-only
        // extraction loses nothing.
        while (t.ltp.canExtract() && !t.ltp.empty()) {
            DynInst *front = t.ltp.front();
            if (boundary != kSeqNone && front->seq >= boundary)
                break;
            if (!tryUnpark(t, front, false))
                break;
            t.ltp.popFront();
            t.stats.boundaryUnparks++;
        }
        return;
    }

    // NR and NR+NU: CAM-style extraction, oldest first.  Eligibility
    // decomposes onto the queue's two ticket-clear ready lists:
    //
    //   NR:   eligible = tickets clear                (window ignored)
    //   NRNU: urgent     → tickets clear
    //         non-urgent → tickets clear && in window
    //
    // (A parked instruction that was not Non-Ready has an empty ticket
    // mask, so "tickets clear" holds trivially — the old per-entry
    // scan's NU+R case folds into the non-urgent list.)  Candidates
    // come from a seq-ordered merge of the two lists, bounded by the
    // extract ports; the non-urgent side stops at the wakeup boundary
    // since its list is seq-ordered too.
    scratch_select_.clear();
    auto &selected = scratch_select_;
    if (t.ltp.canExtract()) {
        DynInst *u = t.ltp.urgentReadyFront();
        DynInst *r = t.ltp.nonUrgentReadyFront();
        while (static_cast<int>(selected.size()) < cfg_.ltp.extractPorts) {
            if (mode == LtpMode::NRNU && r && boundary != kSeqNone &&
                r->seq >= boundary)
                r = nullptr;
            if (u && (!r || u->seq < r->seq)) {
                selected.push_back(u);
                u = LtpQueue::readyNext(u);
            } else if (r) {
                selected.push_back(r);
                r = LtpQueue::readyNext(r);
            } else {
                break;
            }
        }
    }
    for (DynInst *inst : selected) {
        if (!t.ltp.canExtract())
            break;
        if (tryUnpark(t, inst, false)) {
            t.ltp.remove(inst);
            // Selected instructions have clear tickets by construction;
            // the old scan's ticket/boundary attribution reduces to the
            // Non-Ready classification.
            if (inst->nonReady)
                t.stats.ticketUnparks++;
            else
                t.stats.boundaryUnparks++;
        }
    }
}

// ---------------------------------------------------------------------
// Rename / dispatch

SrcRef
Core::readSrc(const ThreadContext &t, RegId reg) const
{
    const RatEntry &e = t.rat[reg];
    SrcRef ref;
    ref.cls = reg.regClass();
    switch (e.map.kind) {
      case PrevMapping::Kind::None:
        break; // architectural base copy: always ready
      case PrevMapping::Kind::Phys:
        ref.phys = e.map.idx;
        break;
      case PrevMapping::Kind::Ltp: {
        // The producer may have unparked without repointing the RAT
        // (a younger writer took over the mapping cannot happen here —
        // this *is* the current mapping), resolve eagerly if possible.
        std::int32_t phys = t.ltp_rat.lookup(e.map.idx);
        if (phys >= 0)
            ref.phys = phys;
        else
            ref.ltpId = e.map.idx;
        break;
      }
    }
    return ref;
}

Core::Classification
Core::classify(ThreadContext &t, DynInst *inst)
{
    Classification c;
    const MicroOp &op = inst->op;
    bool on = ltpOn(t);

    // Table lookups happen once per instruction (when its group first
    // reaches rename); stall retries reuse the memoized answer.
    if (!inst->classified) {
        if (cfg_.ltp.classifier == ClassifierKind::Oracle) {
            inst->urgent = t.oracle->urgent(inst->seq);
            inst->predictedLL = t.oracle->longLatency(inst->seq);
            inst->classified = true;
        } else if (on) {
            inst->urgent = t.uit.lookup(op.pc);
            // The hit/miss prediction also feeds the ROB long-latency
            // tracking the Non-Urgent wakeup boundary needs, so it runs
            // in every LTP mode.
            if (op.isLoad())
                inst->predictedLL = t.llpred.predictLong(op.pc);
            inst->classified = true;
        } else {
            // LTP powered off: nothing parks, so skip the lookups and
            // treat the instruction as urgent *without* memoizing —
            // a placeholder must never feed backward propagation.
            inst->urgent = true;
        }
        if (isFixedLongLat(op.opc))
            inst->predictedLL = true;
        if (inst->classified && inst->urgent)
            t.stats.classUrgent++;
    }
    c.urgent = inst->urgent;
    c.predictedLL = inst->predictedLL;

    // Ticket inheritance: union of live source tickets (Appendix A).
    // Recomputed on retries — tickets may have cleared while stalled.
    for (const auto &src : op.srcs)
        if (src.valid())
            c.tickets.orWith(t.rat[src].tickets);
    c.tickets = t.tickets.liveSubset(c.tickets);
    c.nonReady = c.tickets.any();

    switch (cfg_.ltp.mode) {
      case LtpMode::Off:
        c.parkEligible = false;
        break;
      case LtpMode::NU:
        c.parkEligible = !c.urgent;
        break;
      case LtpMode::NR:
        c.parkEligible = c.nonReady;
        break;
      case LtpMode::NRNU:
        c.parkEligible = !c.urgent || c.nonReady;
        break;
    }
    return c;
}

bool
Core::renameOne(ThreadContext &t, DynInst *inst)
{
    const MicroOp &op = inst->op;
    t.rename_stall_commit_freed = false;

    // A ROB-full stall is *not* a pressure trigger: parked instructions
    // keep their ROB entries (Section 3), so draining the LTP cannot
    // free ROB space — the forced unpark of a parked ROB head is the
    // rule that guarantees progress there.
    if (t.rob.full()) {
        t.stats.renameStallRob++;
        return false;
    }

    Classification cls = classify(t, inst);

    bool src_parked = false;
    for (const auto &src : op.srcs)
        if (src.valid() && t.rat[src].parked)
            src_parked = true;

    bool on = ltpOn(t);
    bool must_park = src_parked; // no physical source to wait on
    bool park = must_park || (on && cls.parkEligible);
    if (!on && cls.parkEligible)
        t.stats.parkSkippedOff++;

    if (park) {
        bool ltp_ok = t.ltp.canInsert() &&
                      (!inst->hasDst() || t.ltp_rat.availableCount() > 0);
        if (!ltp_ok) {
            if (must_park) {
                t.stats.renameStallLtp++;
                t.ltp.fullStalls++;
                t.rename_stall_commit_freed = true;
                return false;
            }
            park = false;
        }
    }

    if (!park) {
        if (!iq_.hasSpace()) {
            t.stats.renameStallIq++;
            return false;
        }
        if (inst->hasDst() &&
            regs(inst->dstClass()).freeFor(AllocPriority::Rename) <= 0) {
            t.stats.renameStallRegs++;
            return false;
        }
    }

    bool delay = cfg_.ltp.delayLqSq;
    bool need_lq = op.isLoad() && !(park && delay);
    bool need_sq = op.isStore() && !(park && delay);
    if (need_lq && !t.lsq.lqHasSpace(false)) {
        t.stats.renameStallLq++;
        return false;
    }
    if (need_sq && !t.lsq.sqHasSpace(false)) {
        t.stats.renameStallSq++;
        return false;
    }

    // ---- all checks passed: perform the rename ----
    inst->nonReady = cls.nonReady;
    inst->tickets = cls.tickets;
    if (cls.nonReady)
        t.stats.classNonReady++;

    // Read sources (and their producer PCs) before touching the RAT:
    // an instruction may read and write the same architectural register.
    Addr producer_pcs[kMaxSrcs] = {0, 0, 0};
    for (int i = 0; i < kMaxSrcs; ++i) {
        if (op.srcs[i].valid()) {
            inst->srcs[i] = readSrc(t, op.srcs[i]);
            producer_pcs[i] = t.rat[op.srcs[i]].producerPc;
        }
    }

    // Backward urgency propagation (Section 5.2, step 2).
    if (cfg_.ltp.classifier == ClassifierKind::Learned && cls.urgent &&
        on) {
        for (Addr ppc : producer_pcs)
            if (ppc != 0)
                t.uit.insert(ppc);
    }

    // Own ticket for predicted long-latency instructions.
    bool tickets_enabled = cfg_.ltp.mode == LtpMode::NR ||
                           cfg_.ltp.mode == LtpMode::NRNU;
    TicketMask dst_tickets = cls.tickets;
    if (tickets_enabled && cls.predictedLL) {
        int ticket = t.tickets.allocate();
        if (ticket >= 0) {
            t.ticket_epoch[std::size_t(ticket)] += 1;
            inst->ownTicket = ticket;
            // The reused id's pending bit is set again: any still-
            // parked subscriber from a previous life of this ticket is
            // re-blocked until the new owner clears it.
            t.ltp.onTicketPending(ticket);
            dst_tickets.reset();
            dst_tickets.set(ticket);
        }
    }

    // Destination rename.
    if (inst->hasDst()) {
        RatEntry &e = t.rat[op.dst];
        inst->prevMap = e.map;
        inst->prevProducerPc = e.producerPc;
        inst->prevParkedBit = e.parked;
        inst->prevTickets = e.tickets;

        if (park) {
            inst->ltpId = t.ltp_rat.allocate();
            sim_assert(inst->ltpId >= 0);
            e.map = PrevMapping{PrevMapping::Kind::Ltp, inst->ltpId};
            e.parked = true;
        } else {
            inst->dstPhys =
                regs(inst->dstClass()).allocate(AllocPriority::Rename);
            sim_assert(inst->dstPhys >= 0);
            e.map = PrevMapping{PrevMapping::Kind::Phys, inst->dstPhys};
            e.parked = false;
        }
        e.producerPc = op.pc;
        e.tickets = dst_tickets;
    }

    t.rob.push(inst);
    if (need_lq)
        t.lsq.insertLoad(inst);
    if (need_sq)
        t.lsq.insertStore(inst);
    if (park && delay && op.isStore())
        t.lsq.addShadowStore(inst);

    if (park) {
        t.ltp.push(inst);
        inst->parked = true;
        t.stats.parked++;
    } else {
        enqueueIq(inst, false);
    }

    if (inst->predictedLL)
        t.ll_inflight.insert(inst->seq);

    inst->dispatched = true;
    inst->renameCycle = now_;
    inst->earliestIssue = now_ + 1;
    progress_ = true;
    return true;
}

/**
 * Thread visit order for this cycle's front-end arbitration.  A
 * single-threaded core always yields {0}; round-robin rotates the
 * starting thread every cycle; ICOUNT sorts by front-end + IQ
 * occupancy (fewest first, ties to the lower tid) so window hogs
 * yield bandwidth.
 */
const std::vector<int> &
Core::threadOrder()
{
    int n = numThreads();
    scratch_order_.clear();
    if (n == 1 || cfg_.fetchPolicy == FetchPolicy::RoundRobin) {
        int idx = n == 1 ? 0 : static_cast<int>(now_ % Cycle(n));
        for (int i = 0; i < n; ++i) {
            scratch_order_.push_back(idx);
            idx += 1;
            if (idx == n)
                idx = 0;
        }
        return scratch_order_;
    }
    for (int i = 0; i < n; ++i)
        scratch_order_.push_back(i);
    auto icount = [&](int tid) {
        return static_cast<int>(thread(tid).front_queue.size()) +
               iq_.sizeOf(tid);
    };
    std::stable_sort(scratch_order_.begin(), scratch_order_.end(),
                     [&](int a, int b) { return icount(a) < icount(b); });
    return scratch_order_;
}

void
Core::renameThread(ThreadContext &t, int &budget)
{
    while (budget > 0 && !t.front_queue.empty()) {
        ThreadContext::FrontEntry &fe = t.front_queue.front();
        if (fe.readyAt > now_)
            break;
        if (!renameOne(t, fe.inst)) {
            // Commit-freed resource stall: nudge the LTP to drain so
            // the oldest parked instruction can commit (Section 5.4).
            if (t.rename_stall_commit_freed && !t.ltp.empty())
                t.rename_pressure = true;
            break;
        }
        t.front_queue.pop_front();
        budget -= 1;
        t.stats.renamed++;
    }
}

void
Core::rename()
{
    // The rename width is shared: threads are offered the remaining
    // budget in policy order, so a stalled thread's leftover bandwidth
    // flows to the next context instead of idling.
    int budget = cfg_.renameWidth;
    if (threads_.size() == 1) {
        renameThread(*threads_[0], budget);
        return;
    }
    for (int tid : threadOrder()) {
        if (budget <= 0)
            break;
        renameThread(thread(tid), budget);
    }
}

// ---------------------------------------------------------------------
// Execute

bool
Core::srcsReady(const DynInst *inst) const
{
    for (const auto &src : inst->srcs) {
        if (src.isLtp())
            panic("unresolved LTP source in the IQ (seq %llu)",
                  static_cast<unsigned long long>(inst->seq));
        if (src.isPhys() && !regs(src.cls).ready(src.phys))
            return false;
    }
    return true;
}

void
Core::executeLoad(DynInst *inst, Cycle now)
{
    ThreadContext &t = threadOf(inst);
    DynInst *conflict = t.lsq.olderStoreConflict(inst);
    if (conflict && !conflict->executed) {
        // Exact-address (oracle) disambiguation: wait for the store's
        // data instead of speculating and squashing.
        inst->waitingOnStore = true;
        inst->waitStoreSeq = conflict->seq;
        return;
    }
    if (conflict) {
        // Store-to-load forwarding out of the SQ.
        t.lsq.forwards++;
        inst->memLevel = HitLevel::L1;
        Cycle ready = now + mem_.l1d().hitLatency();
        scheduleCompletion(inst, ready);
        if (inst->ownTicket >= 0)
            scheduleTicketClear(t, inst->ownTicket, ready);
        return;
    }

    auto res = mem_.access(inst->op.pc + t.mem_base,
                           inst->op.effAddr + t.mem_base, false, now);
    if (!res) {
        retry_events_.push(
            RetryEv{now + 1, inst->seq, poolGen(inst), inst->tid});
        return;
    }
    inst->memLevel = res->level;
    inst->actualLL = mem_.isLongLatency(*res, now);
    if (inst->actualLL)
        t.ll_inflight.insert(inst->seq);
    if (res->level == HitLevel::Dram)
        t.monitor.onDramDemandMiss(now);
    scheduleCompletion(inst, res->dataReady);
    if (inst->ownTicket >= 0)
        scheduleTicketClear(t, inst->ownTicket, res->earlyWakeup);
}

void
Core::execute()
{
    // Load retries first (they were selected in an earlier cycle).
    while (!retry_events_.empty() && retry_events_.top().when <= now_) {
        RetryEv ev = retry_events_.top();
        retry_events_.pop();
        progress_ = true;
        ThreadContext &t = thread(ev.tid);
        if (!eventInstValid(t, ev.seq, ev.gen))
            continue;
        DynInst *inst = slotFor(t, ev.seq);
        if (!inst->completed && !inst->waitingOnStore)
            executeLoad(inst, now_);
    }

    // Select walks only the ready list (oldest first across threads) —
    // readiness was established by the dependents-list wakeup at
    // writeback, so the per-cycle srcsReady poll over the whole window
    // is gone.
    int budget = cfg_.issueWidth;
    scratch_select_.clear();
    auto &selected = scratch_select_;
    iq_.forEachReady([&](DynInst *inst) {
        if (inst->earliestIssue > now_)
            return true;
        if (!fu_.canIssue(inst->op.opc, now_))
            return true;
        fu_.issue(inst->op.opc, now_);
        selected.push_back(inst);
        budget -= 1;
        return budget > 0;
    });

    if (!selected.empty())
        progress_ = true;
    for (DynInst *inst : selected) {
        ThreadContext &t = threadOf(inst);
        iq_.remove(inst);
        inst->issued = true;
        inst->issueCycle = now_;
        t.stats.iqIssued++;
        for (const auto &src : inst->srcs)
            if (src.isPhys())
                t.stats.rfReads++;

        const MicroOp &op = inst->op;
        if (op.isLoad()) {
            t.stats.loadsExecuted++;
            executeLoad(inst, now_);
        } else if (op.isStore()) {
            t.stats.storesExecuted++;
            scheduleCompletion(inst, now_ + 1);
        } else {
            int lat = opInfo(op.opc).latency;
            Cycle done = now_ + lat;
            scheduleCompletion(inst, done);
            if (inst->ownTicket >= 0) {
                Cycle lead = std::min<Cycle>(done - now_, 8);
                scheduleTicketClear(t, inst->ownTicket, done - lead);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Store drain (post-commit, per thread)

void
Core::drainStores(ThreadContext &t)
{
    for (int i = 0; i < cfg_.sqDrainWidth; ++i) {
        DynInst *st = t.lsq.oldestDrainableStore();
        if (!st)
            break;
        progress_ = true;
        auto res = mem_.access(st->op.pc + t.mem_base,
                               st->op.effAddr + t.mem_base, true, now_);
        if (!res)
            break; // MSHRs full: retry next cycle
        t.lsq.removeStore(st);
    }
}

// ---------------------------------------------------------------------
// Fetch

bool
Core::fetchEligible(const ThreadContext &t) const
{
    return t.fetch_enabled && t.fetch_blocked_on == kSeqNone &&
           now_ >= t.fetch_resume_at &&
           static_cast<int>(t.front_queue.size()) < cfg_.fetchQueueCap;
}

void
Core::fetchThread(ThreadContext &t)
{
    progress_ = true;
    int budget = cfg_.fetchWidth;
    while (budget > 0 &&
           static_cast<int>(t.front_queue.size()) < cfg_.fetchQueueCap) {
        MicroOp op = t.source->fetch(t.next_fetch_seq);

        MemAccessResult fr = mem_.fetchAccess(op.pc + t.mem_base, now_);
        if (fr.dataReady > now_ + mem_.l1i().hitLatency()) {
            t.fetch_resume_at = fr.dataReady; // I-cache miss
            break;
        }

        DynInst *inst = allocInst(t, op, t.next_fetch_seq);
        t.next_fetch_seq += 1;
        t.stats.fetched++;

        bool fetch_break = false;
        if (op.isBranch()) {
            bool correct = t.bpred.predict(op.pc, op.taken, op.target);
            if (!correct) {
                inst->mispredicted = true;
                t.fetch_blocked_on = inst->seq;
                fetch_break = true;
            } else if (op.taken) {
                fetch_break = true; // taken branch ends the fetch group
            }
        }

        t.front_queue.push_back(
            ThreadContext::FrontEntry{inst, now_ + cfg_.frontendDepth});
        budget -= 1;
        if (fetch_break)
            break;
    }
}

void
Core::fetch()
{
    // Coarse-grained front-end multiplexing: one thread owns the whole
    // fetch engine each cycle (the policy picks which); a thread that
    // cannot fetch at all — redirecting, I-miss stalled, queue full —
    // yields the slot to the next one in order.
    if (threads_.size() == 1) {
        ThreadContext &t = *threads_[0];
        if (fetchEligible(t))
            fetchThread(t);
        return;
    }
    for (int tid : threadOrder()) {
        ThreadContext &t = thread(tid);
        if (!fetchEligible(t))
            continue;
        fetchThread(t);
        break;
    }
}

// ---------------------------------------------------------------------
// Squash (memory-order violations; exercised by the store-set mode and
// by tests — the default oracle disambiguation never violates).
// Squashes are a per-thread event: only thread @p tid's window rewinds.

void
Core::squashAfter(SeqNum keep, int tid)
{
    ThreadContext &t = thread(tid);
    t.stats.squashes++;
    progress_ = true;

    t.rob.squashYoungerThan(keep, [&](DynInst *inst) {
        if (inst->hasDst()) {
            RatEntry &e = t.rat[inst->op.dst];
            e.map = inst->prevMap;
            e.producerPc = inst->prevProducerPc;
            e.parked = inst->prevParkedBit;
            e.tickets = inst->prevTickets;
            if (inst->dstPhys >= 0)
                regs(inst->dstClass()).release(inst->dstPhys);
            if (inst->ltpId >= 0)
                t.ltp_rat.release(inst->ltpId);
        }
        if (inst->ownTicket >= 0) {
            t.ticket_epoch[std::size_t(inst->ownTicket)] += 1;
            if (t.tickets.pending().test(inst->ownTicket))
                t.ltp.onTicketCleared(inst->ownTicket);
            t.tickets.release(inst->ownTicket);
        }
        if (inst->predictedLL || inst->actualLL)
            t.ll_inflight.erase(inst->seq);
        inst->squashed = true;
    });

    iq_.squashYoungerThan(keep, tid);
    t.lsq.squashYoungerThan(keep);
    t.ltp.squashYoungerThan(keep);

    while (!t.front_queue.empty() &&
           t.front_queue.back().inst->seq > keep) {
        t.front_queue.back().inst->squashed = true;
        t.front_queue.pop_back();
    }

    if (t.next_fetch_seq > keep + 1)
        t.next_fetch_seq = keep + 1;

    if (t.fetch_blocked_on != kSeqNone && t.fetch_blocked_on > keep) {
        t.fetch_blocked_on = kSeqNone;
        t.fetch_resume_at = now_ + cfg_.redirectPenalty;
    }
}

// ---------------------------------------------------------------------
// Top level

const char *
TickProfile::stageName(int s)
{
    switch (s) {
      case BeginCycle: return "beginCycle";
      case TicketEvents: return "ticketEvents";
      case Writeback: return "writeback";
      case Commit: return "commit";
      case LtpWakeup: return "ltpWakeup";
      case Rename: return "rename";
      case Execute: return "execute";
      case DrainStores: return "drainStores";
      case Fetch: return "fetch";
      case IdleSkip: return "idleSkip";
    }
    return "?";
}

void
Core::tick()
{
    if (profile_) {
        tickProfiled();
        return;
    }

    // FU issue counts and LTP port budgets replenish lazily off the
    // advanced cycle stamp — no begin-of-cycle pass at all.
    now_ += 1;
    progress_ = false;

    processTicketEvents();
    writeback();
    for (auto &t : threads_)
        commit(*t);
    for (auto &t : threads_)
        ltpWakeup(*t);
    rename();
    execute();
    for (auto &t : threads_)
        drainStores(*t);
    fetch();
}

/**
 * The profiled twin of tick(): identical stage sequence, with a
 * steady_clock sample between stages accumulating into the attached
 * TickProfile.  A separate function (rather than inline conditionals)
 * keeps the unprofiled hot loop free of clock reads entirely.
 */
void
Core::tickProfiled()
{
    using Clock = std::chrono::steady_clock;
    TickProfile &p = *profile_;
    Clock::time_point mark = Clock::now();
    auto lap = [&mark, &p](TickProfile::Stage s) {
        Clock::time_point t = Clock::now();
        p.ns[s] += std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - mark)
                .count());
        mark = t;
    };

    now_ += 1;
    progress_ = false;
    lap(TickProfile::BeginCycle);

    processTicketEvents();
    lap(TickProfile::TicketEvents);
    writeback();
    lap(TickProfile::Writeback);
    for (auto &t : threads_)
        commit(*t);
    lap(TickProfile::Commit);
    for (auto &t : threads_)
        ltpWakeup(*t);
    lap(TickProfile::LtpWakeup);
    rename();
    lap(TickProfile::Rename);
    execute();
    lap(TickProfile::Execute);
    for (auto &t : threads_)
        drainStores(*t);
    lap(TickProfile::DrainStores);
    fetch();
    lap(TickProfile::Fetch);
    p.ticks += 1;
}

namespace {

/** Commit-progress watchdog shared by every run loop. */
constexpr Cycle kNoProgressWindow = 200000;

/** Window-drain watchdog. */
constexpr Cycle kDrainWindow = 500000;

[[noreturn]] void
panicNoProgress(Cycle now, std::uint64_t committed)
{
    panic("no commit progress for 200k cycles at cycle %llu "
          "(likely deadlock; %llu committed)",
          static_cast<unsigned long long>(now),
          static_cast<unsigned long long>(committed));
}

} // namespace

/**
 * The first cycle after now_ at which a quiescent core could act
 * differently from this cycle: an event comes due, a front end
 * unblocks, the LTP monitor times out, or a ready instruction's issue
 * delay and functional unit both clear.  Only meaningful right after
 * a tick that made no progress (nothing due was left unpopped, and no
 * ready instruction could issue).
 */
Cycle
Core::nextEventCycle() const
{
    Cycle next = ticket_events_.nextEventCycle();
    if (!completions_.empty())
        next = std::min(next, completions_.top().when);
    if (!retry_events_.empty())
        next = std::min(next, retry_events_.top().when);
    for (const auto &tp : threads_) {
        const ThreadContext &t = *tp;
        if (t.fetch_enabled && t.fetch_blocked_on == kSeqNone &&
            static_cast<int>(t.front_queue.size()) < cfg_.fetchQueueCap &&
            t.fetch_resume_at > now_)
            next = std::min(next, t.fetch_resume_at);
        if (!t.front_queue.empty() && t.front_queue.front().readyAt > now_)
            next = std::min(next, t.front_queue.front().readyAt);
        if (cfg_.ltp.mode != LtpMode::Off)
            next = std::min(next, t.monitor.nextChange(now_));
    }
    iq_.forEachReady([&](DynInst *inst) {
        next = std::min(next, std::max(inst->earliestIssue,
                                       fu_.freeAt(inst->op.opc)));
        return true;
    });
    return next;
}

/**
 * Idle-cycle skipping, run by every loop after every tick.  A tick
 * without progress arms it: the counters are snapshotted, and if the
 * next tick makes no progress either, that second tick is the steady
 * state every quiet cycle up to the next event repeats exactly (the
 * first quiet tick may still settle one-off state, e.g. memoized
 * classification).  The clock then jumps to one cycle before that
 * event, never past @p limit, and every counter advances by the span
 * times the second tick's increment.  Occupancy stats integrate off
 * now_, and memory is timestamp-driven, so nothing else needs
 * touching.
 */
void
Core::skipIdle(Cycle limit)
{
    if (progress_) {
        idle_armed_ = false;
        return;
    }
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
    if (profile_)
        start = Clock::now();
    if (!idle_armed_) {
        for (std::size_t i = 0; i < counters_.size(); ++i)
            counter_snap_[i] = counters_[i]->value();
        idle_armed_ = true;
    } else {
        // A fresh pair of quiet ticks is needed after any jump: the
        // event that ends it may change state without progress.
        idle_armed_ = false;
        Cycle target = std::min(nextEventCycle() - 1, limit);
        if (target > now_) {
            Cycle span = target - now_;
            for (std::size_t i = 0; i < counters_.size(); ++i) {
                std::uint64_t delta =
                    counters_[i]->value() - counter_snap_[i];
                if (delta)
                    *counters_[i] += delta * span;
            }
            now_ = target;
            skipped_ += span;
            if (profile_)
                profile_->skippedTicks += span;
        }
    }
    if (profile_)
        profile_->ns[TickProfile::IdleSkip] += std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
}

void
Core::runUntilCommitted(std::uint64_t n, Cycle max_cycles,
                        const TickHook &on_tick)
{
    idle_armed_ = false;
    // Single-threaded fast path: one counter, read straight off the
    // context — this is the whole-simulation driver loop, so it must
    // not pay per-thread aggregation (or an indirect hook call) on
    // every tick.
    if (threads_.size() == 1 && !on_tick) {
        const Counter &committed = threads_[0]->stats.committed;
        std::uint64_t last_committed = committed.value();
        Cycle last_progress = now_;
        while (committed.value() < n) {
            tick();
            if (committed.value() != last_committed) {
                last_committed = committed.value();
                last_progress = now_;
            }
            if (now_ - last_progress > kNoProgressWindow)
                panicNoProgress(now_, last_committed);
            skipIdle(
                std::min(max_cycles, last_progress + kNoProgressWindow));
            if (now_ >= max_cycles)
                break;
        }
        return;
    }

    auto leastCommitted = [&] {
        std::uint64_t least = thread(0).stats.committed.value();
        for (const auto &t : threads_)
            least = std::min(least, t->stats.committed.value());
        return least;
    };
    auto totalCommitted = [&] {
        std::uint64_t total = 0;
        for (const auto &t : threads_)
            total += t->stats.committed.value();
        return total;
    };

    std::uint64_t last_committed = totalCommitted();
    Cycle last_progress = now_;
    while (leastCommitted() < n) {
        tick();
        if (on_tick)
            on_tick();
        if (totalCommitted() != last_committed) {
            last_committed = totalCommitted();
            last_progress = now_;
        }
        if (now_ - last_progress > kNoProgressWindow)
            panicNoProgress(now_, last_committed);
        skipIdle(
            std::min(max_cycles, last_progress + kNoProgressWindow));
        if (now_ >= max_cycles)
            break;
    }
}

void
Core::setFetchEnabled(int tid, bool on)
{
    thread(tid).fetch_enabled = on;
}

void
Core::drain()
{
    for (auto &t : threads_)
        t->fetch_enabled = false;
    auto windowEmpty = [&] {
        for (const auto &t : threads_)
            if (!t->rob.empty() || !t->front_queue.empty())
                return false;
        return true;
    };
    idle_armed_ = false;
    Cycle start = now_;
    while (!windowEmpty()) {
        tick();
        if (now_ - start > kDrainWindow)
            panic("drain did not converge");
        skipIdle(start + kDrainWindow);
    }
    for (auto &t : threads_)
        t->fetch_enabled = true;
}

/**
 * Point every core-structure occupancy stat at the core clock, so the
 * untimed mutators integrate lazily on change (see OccupancyStat's
 * clocked style) and quiet cycles cost nothing — there is no per-cycle
 * advance pass in tick().
 */
void
Core::bindOccupancyClocks()
{
    iq_.occupancy.bindClock(&now_);
    for (auto &tp : threads_) {
        ThreadContext &t = *tp;
        t.rob.occupancy.bindClock(&now_);
        t.lsq.lqOccupancy.bindClock(&now_);
        t.lsq.sqOccupancy.bindClock(&now_);
        t.ltp.bindClock(&now_); // lazy port replenishment
        t.ltp.occupancy.bindClock(&now_);
        t.ltp.parkedWithDest.bindClock(&now_);
        t.ltp.parkedLoads.bindClock(&now_);
        t.ltp.parkedStores.bindClock(&now_);
    }
    int_regs_.occupancy.bindClock(&now_);
    fp_regs_.occupancy.bindClock(&now_);
}

/**
 * Collect every Counter the core owns — per-thread stats and the LTP,
 * window and front-end structure counters, plus the shared IQ and
 * register files — for idle-cycle skipping to scale in bulk.
 */
static_assert(sizeof(CoreStats) == 28 * sizeof(Counter),
              "CoreStats::forEachCounter must visit every counter");

void
Core::registerCounters()
{
    auto add = [this](Counter &c) { counters_.push_back(&c); };
    for (auto &tp : threads_) {
        ThreadContext &t = *tp;
        t.stats.forEachCounter(add);
        for (Counter *c :
             {&t.ltp.pushes, &t.ltp.pops, &t.ltp.camExtractions,
              &t.ltp.fullStalls, &t.uit.lookups, &t.uit.hits,
              &t.uit.inserts, &t.uit.conflictEvictions,
              &t.llpred.predictions, &t.llpred.correct,
              &t.llpred.mispredicts, &t.tickets.allocations,
              &t.tickets.exhaustions, &t.tickets.broadcasts,
              &t.ltp_rat.allocations, &t.ltp_rat.exhaustions,
              &t.lsq.forwards, &t.bpred.lookups, &t.bpred.mispredicts})
            add(*c);
    }
    for (Counter *c : {&iq_.inserts, &int_regs_.allocations,
                       &int_regs_.reserveAllocations,
                       &fp_regs_.allocations,
                       &fp_regs_.reserveAllocations})
        add(*c);
    counter_snap_.assign(counters_.size(), 0);
}

void
Core::resetStats()
{
    iq_.inserts.reset();
    iq_.occupancy.reset(now_);
    int_regs_.resetStats(now_);
    fp_regs_.resetStats(now_);
    for (auto &tp : threads_) {
        ThreadContext &t = *tp;
        t.stats.reset();
        t.rob.occupancy.reset(now_);
        t.lsq.lqOccupancy.reset(now_);
        t.lsq.sqOccupancy.reset(now_);
        t.lsq.forwards.reset();
        t.ltp.resetStats(now_);
        t.uit.resetStats();
        t.llpred.resetStats();
        t.tickets.resetStats();
        t.monitor.resetStats(now_);
        t.bpred.lookups.reset();
        t.bpred.mispredicts.reset();
    }
}

} // namespace ltp
