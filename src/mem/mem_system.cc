#include "mem/mem_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ltp {

MemSystem::MemSystem(const MemConfig &cfg)
    : cfg_(cfg),
      l1i_("l1i", cfg.l1i),
      l1d_("l1d", cfg.l1d),
      l2_("l2", cfg.l2),
      l3_("l3", cfg.l3),
      dram_(cfg.dram),
      l1d_mshrs_(cfg.l1dMshrs),
      prefetcher_(cfg.prefetchEnabled ? cfg.prefetchDegree : 0)
{
}

void
MemSystem::writeback(int from_level, Addr block, Cycle now)
{
    // Mostly-inclusive hierarchy: a victim usually hits the level below;
    // when it does not (silent inclusion break), the dirty data goes
    // straight to the next level that has it, or to memory.
    if (from_level <= 1 && l2_.contains(block)) {
        l2_.setDirty(block);
        return;
    }
    if (from_level <= 2 && l3_.contains(block)) {
        l3_.setDirty(block);
        return;
    }
    dram_.access(block, now, /*is_write=*/true);
}

Cycle
MemSystem::lookupBelowL1(Addr block, Cycle now, HitLevel *level)
{
    Cycle line_ready;
    if (l2_.lookup(block, now, &line_ready)) {
        *level = line_ready > now ? HitLevel::Inflight : HitLevel::L2;
        return std::max(line_ready, now + l2_.hitLatency());
    }
    if (l3_.lookup(block, now, &line_ready)) {
        Cycle ready = std::max(line_ready, now + l3_.hitLatency());
        *level = line_ready > now ? HitLevel::Inflight : HitLevel::L3;
        auto v2 = l2_.fill(block, now, ready, false);
        if (v2.valid && v2.dirty)
            writeback(2, v2.addr, now);
        return ready;
    }
    // DRAM: the request reaches the controller after the L3 tag check.
    Cycle ready = dram_.access(block, now, false, l3_.hitLatency());
    *level = HitLevel::Dram;
    auto v3 = l3_.fill(block, now, ready, false);
    if (v3.valid && v3.dirty)
        writeback(3, v3.addr, now);
    auto v2 = l2_.fill(block, now, ready, false);
    if (v2.valid && v2.dirty)
        writeback(2, v2.addr, now);
    return ready;
}

void
MemSystem::trainPrefetcher(Addr pc, Addr addr, Cycle now)
{
    if (!cfg_.prefetchEnabled)
        return;
    pf_scratch_.clear();
    prefetcher_.observe(pc, addr, pf_scratch_);
    for (Addr block : pf_scratch_) {
        if (l1d_.contains(block) || l2_.contains(block))
            continue;
        Cycle line_ready;
        Cycle ready;
        if (l3_.lookup(block, now, &line_ready)) {
            ready = std::max(line_ready, now + l3_.hitLatency());
        } else {
            ready = dram_.access(block, now, false, l3_.hitLatency());
            auto v3 = l3_.fill(block, now, ready, true);
            if (v3.valid && v3.dirty)
                writeback(3, v3.addr, now);
        }
        auto v2 = l2_.fill(block, now, ready, true);
        if (v2.valid && v2.dirty)
            writeback(2, v2.addr, now);
    }
}

std::optional<MemAccessResult>
MemSystem::access(Addr pc, Addr addr, bool is_write, Cycle now)
{
    Addr block = blockAlign(addr);
    MemAccessResult res;

    Cycle line_ready;
    if (l1d_.lookup(block, now, &line_ready)) {
        if (line_ready <= now) {
            res.dataReady = now + l1d_.hitLatency();
            res.earlyWakeup = res.dataReady;
            res.level = HitLevel::L1;
        } else {
            // Merge with the in-flight fill (MSHR secondary miss).
            res.dataReady = std::max(line_ready, now + l1d_.hitLatency());
            res.earlyWakeup =
                std::max(now, res.dataReady - cfg_.earlyLead);
            res.level = HitLevel::Inflight;
        }
        if (is_write)
            l1d_.setDirty(block);
        if (!is_write)
            load_lat_.sample(double(res.dataReady - now));
        return res;
    }

    if (!l1d_mshrs_.available(now))
        return std::nullopt;

    // Train the prefetcher on the L1-miss (i.e. L2 demand) stream.
    trainPrefetcher(pc, addr, now);

    HitLevel level;
    Cycle ready = lookupBelowL1(block, now, &level);
    auto v1 = l1d_.fill(block, now, ready, false);
    if (v1.valid && v1.dirty)
        writeback(1, v1.addr, now);
    l1d_mshrs_.allocate(block, now, ready);
    if (is_write)
        l1d_.setDirty(block);

    res.dataReady = ready;
    res.earlyWakeup = std::max(now, ready - cfg_.earlyLead);
    res.level = level;
    if (!is_write)
        load_lat_.sample(double(res.dataReady - now));
    return res;
}

MemAccessResult
MemSystem::fetchAccess(Addr pc, Cycle now)
{
    Addr block = blockAlign(pc);
    MemAccessResult res;

    if (block == last_ifetch_block_) {
        res.dataReady =
            std::max(last_ifetch_ready_, now + l1i_.hitLatency());
        res.level = last_ifetch_ready_ > now ? HitLevel::Inflight
                                             : HitLevel::L1;
        res.earlyWakeup = res.dataReady;
        return res;
    }

    Cycle line_ready;
    if (l1i_.lookup(block, now, &line_ready)) {
        res.dataReady = std::max(line_ready, now + l1i_.hitLatency());
        res.level = line_ready > now ? HitLevel::Inflight : HitLevel::L1;
        last_ifetch_ready_ = line_ready;
    } else {
        HitLevel level;
        Cycle ready = lookupBelowL1(block, now, &level);
        l1i_.fill(block, now, ready, false); // I-side lines: never dirty
        res.dataReady = ready;
        res.level = level;
        last_ifetch_ready_ = ready;
    }
    last_ifetch_block_ = block;
    res.earlyWakeup = res.dataReady;
    return res;
}

HitLevel
MemSystem::warmAccess(Addr pc, Addr addr, bool is_write, Cycle now)
{
    // Fully functional: install resident lines with data_ready=0 and
    // keep LRU and prefetcher training warm; never touch MSHR or DRAM
    // timing state so a detailed phase can follow at any clock value.
    (void)now;
    Addr block = blockAlign(addr);
    Cycle line_ready;
    HitLevel level = HitLevel::L1;
    if (!l1d_.lookup(block, 0, &line_ready)) {
        // Functional prefetch: train and install into L2 directly.
        if (cfg_.prefetchEnabled) {
            pf_scratch_.clear();
            prefetcher_.observe(pc, addr, pf_scratch_);
            for (Addr pf : pf_scratch_) {
                if (!l1d_.contains(pf) && !l2_.contains(pf))
                    l2_.fill(pf, 0, 0, true);
            }
        }
        if (l2_.lookup(block, 0, &line_ready)) {
            level = HitLevel::L2;
        } else {
            if (l3_.lookup(block, 0, &line_ready)) {
                level = HitLevel::L3;
            } else {
                level = HitLevel::Dram;
                auto v3 = l3_.fill(block, 0, 0, false);
                (void)v3; // functional warm: drop write-back traffic
            }
            l2_.fill(block, 0, 0, false);
        }
        l1d_.fill(block, 0, 0, false);
    }
    if (is_write)
        l1d_.setDirty(block);
    return level;
}

void
MemSystem::settle()
{
    last_ifetch_block_ = ~Addr(0); // line-ready cycles are re-zeroed
    l1i_.settle();
    l1d_.settle();
    l2_.settle();
    l3_.settle();
    dram_.settle();
    l1d_mshrs_.settle();
    load_lat_.reset();
}

void
MemSystem::resetStats(Cycle now)
{
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
    l3_.resetStats();
    dram_.resetStats(now);
    l1d_mshrs_.allocations.reset();
    l1d_mshrs_.fullStalls.reset();
    prefetcher_.issued.reset();
    prefetcher_.trainings.reset();
    load_lat_.reset();
}

} // namespace ltp
