#include "ltp/ltp_queue.hh"

#include "common/logging.hh"
#include "ltp/tickets.hh"

namespace ltp {

LtpQueue::LtpQueue(int entries, int insert_ports, int extract_ports)
    : capacity_(entries),
      insert_ports_(insert_ports),
      extract_ports_(extract_ports),
      subs_(std::size_t(kMaxTickets))
{
    sim_assert(entries > 0 && insert_ports > 0 && extract_ports > 0);
}

void
LtpQueue::beginCycle()
{
    inserts_left_ = insert_ports_;
    extracts_left_ = extract_ports_;
}

bool
LtpQueue::canInsert() const
{
    refreshPorts();
    return inserts_left_ > 0 && size_ < capacity_;
}

void
LtpQueue::push(DynInst *inst)
{
    sim_assert(canInsert()); // also refreshes stale port budgets
    sim_assert(!tail_ || tail_->seq < inst->seq);
    inserts_left_ -= 1;

    inst->ltpPrev = tail_;
    inst->ltpNext = nullptr;
    if (tail_)
        tail_->ltpNext = inst;
    else
        head_ = inst;
    tail_ = inst;
    size_ += 1;

    inst->inLtp = true;
    inst->ltpGen += 1;

    // All mask bits are pending at park time (rename live-filtered the
    // mask this same cycle), so the count is the mask population; the
    // subscriptions are what keep it current from here on.
    inst->pendingTickets = inst->tickets.count();
    inst->tickets.forEachSet([&](int t) {
        subs_[std::size_t(t)].push_back(Subscriber{inst, inst->ltpGen});
    });
    if (inst->pendingTickets == 0)
        readyInsert(inst);

    pushes++;
    occupancy.add(1);
    if (inst->hasDst())
        parkedWithDest.add(1);
    if (inst->op.isLoad())
        parkedLoads.add(1);
    if (inst->op.isStore())
        parkedStores.add(1);
}

bool
LtpQueue::canExtract() const
{
    refreshPorts();
    return extracts_left_ > 0;
}

void
LtpQueue::unlink(DynInst *inst)
{
    if (inst->ltpPrev)
        inst->ltpPrev->ltpNext = inst->ltpNext;
    else
        head_ = inst->ltpNext;
    if (inst->ltpNext)
        inst->ltpNext->ltpPrev = inst->ltpPrev;
    else
        tail_ = inst->ltpPrev;
    inst->ltpPrev = nullptr;
    inst->ltpNext = nullptr;
    size_ -= 1;
}

void
LtpQueue::readyInsert(DynInst *inst)
{
    DynInst *&rhead = inst->urgent ? uready_head_ : ready_head_;
    DynInst *&rtail = inst->urgent ? uready_tail_ : ready_tail_;

    // Insert from the tail: the common case (a newly parked or newly
    // cleared instruction is among the youngest) is O(1).
    DynInst *after = rtail;
    while (after && inst->seq < after->seq)
        after = after->ltpReadyPrev;

    inst->ltpReadyPrev = after;
    if (after) {
        inst->ltpReadyNext = after->ltpReadyNext;
        after->ltpReadyNext = inst;
    } else {
        inst->ltpReadyNext = rhead;
        rhead = inst;
    }
    if (inst->ltpReadyNext)
        inst->ltpReadyNext->ltpReadyPrev = inst;
    else
        rtail = inst;
}

void
LtpQueue::readyRemove(DynInst *inst)
{
    DynInst *&rhead = inst->urgent ? uready_head_ : ready_head_;
    DynInst *&rtail = inst->urgent ? uready_tail_ : ready_tail_;

    if (inst->ltpReadyPrev)
        inst->ltpReadyPrev->ltpReadyNext = inst->ltpReadyNext;
    else
        rhead = inst->ltpReadyNext;
    if (inst->ltpReadyNext)
        inst->ltpReadyNext->ltpReadyPrev = inst->ltpReadyPrev;
    else
        rtail = inst->ltpReadyPrev;
    inst->ltpReadyPrev = nullptr;
    inst->ltpReadyNext = nullptr;
}

void
LtpQueue::accountRemove(DynInst *inst)
{
    if (inst->pendingTickets == 0)
        readyRemove(inst);
    inst->inLtp = false;
    occupancy.sub(1);
    if (inst->hasDst())
        parkedWithDest.sub(1);
    if (inst->op.isLoad())
        parkedLoads.sub(1);
    if (inst->op.isStore())
        parkedStores.sub(1);
}

void
LtpQueue::popFront()
{
    refreshPorts();
    sim_assert(head_ && extracts_left_ > 0);
    extracts_left_ -= 1;
    DynInst *inst = head_;
    unlink(inst);
    accountRemove(inst);
    pops++;
}

void
LtpQueue::remove(DynInst *inst)
{
    refreshPorts();
    sim_assert(extracts_left_ > 0);
    sim_assert(inst->inLtp);
    extracts_left_ -= 1;
    unlink(inst);
    accountRemove(inst);
    pops++;
    camExtractions++;
}

void
LtpQueue::squashYoungerThan(SeqNum seq)
{
    while (tail_ && tail_->seq > seq) {
        DynInst *inst = tail_;
        unlink(inst);
        accountRemove(inst);
    }
}

void
LtpQueue::onTicketCleared(int t)
{
    auto &v = subs_[std::size_t(t)];
    std::size_t i = 0;
    while (i < v.size()) {
        if (!subscriberLive(v[i])) {
            v[i] = v.back();
            v.pop_back();
            continue;
        }
        DynInst *inst = v[i].inst;
        sim_assert(inst->pendingTickets > 0);
        inst->pendingTickets -= 1;
        if (inst->pendingTickets == 0)
            readyInsert(inst);
        ++i;
    }
}

void
LtpQueue::onTicketPending(int t)
{
    auto &v = subs_[std::size_t(t)];
    std::size_t i = 0;
    while (i < v.size()) {
        if (!subscriberLive(v[i])) {
            v[i] = v.back();
            v.pop_back();
            continue;
        }
        DynInst *inst = v[i].inst;
        if (inst->pendingTickets == 0)
            readyRemove(inst);
        inst->pendingTickets += 1;
        ++i;
    }
}

void
LtpQueue::resetStats(Cycle now)
{
    pushes.reset();
    pops.reset();
    camExtractions.reset();
    fullStalls.reset();
    occupancy.reset(now);
    parkedWithDest.reset(now);
    parkedLoads.reset(now);
    parkedStores.reset(now);
}

} // namespace ltp
