/**
 * @file
 * Property-based tests: invariants that must hold across the whole
 * (kernel x configuration) space, swept with parameterized gtest.
 *
 *  P1  Full completion: every run commits exactly the requested count.
 *  P2  Occupancy bounds: mean occupancies never exceed capacities.
 *  P3  Monotonic resources: an infinite-resource run is at least as
 *      fast as any finite configuration (within noise).
 *  P4  Determinism: identical (config, kernel, seed) => identical
 *      cycle counts.
 *  P5  LTP accounting: parked == unparked after drain-free runs,
 *      forced unparks only under pressure-capable configs.
 *  P6  Oracle closure: urgency is exactly the ancestor closure of
 *      long-latency seeds on random DAG traces.
 *  P7  Trace format round trip: write→read→write of randomized
 *      micro-op streams is byte-identical and record-identical, and
 *      corrupted headers/payloads/CRCs are rejected.
 *  P8  Scheduler invariants: the event-driven ready list equals a
 *      brute-force srcsReady scan every cycle (so every woken
 *      instruction really has all sources ready), stays seq-sorted and
 *      duplicate-free, and survives mid-run squashes.  (Waking an
 *      entry twice trips the IQ's ready-bitmask sim_assert, which is
 *      active in every build.)
 *  P9  LTP wakeup invariants: the ticket-expiry wheel + batched-unpark
 *      ready lists (urgent and non-urgent) equal a brute-force
 *      per-cycle scan of every parked instruction's ticket mask
 *      against the pending bitmask — same membership, same seq order —
 *      and each parked pendingTickets counter equals a fresh recount,
 *      every cycle, including across mid-run squashes.
 *  P10 Idle-cycle skipping: the shipped run loops (single-thread and
 *      SMT on_tick) end on the same cycle, with the same counters,
 *      occupancy means and memory means, as a bare Core::tick() loop,
 *      on every suite kernel under a dozen configurations.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <tuple>

#include "common/binio.hh"
#include "common/random.hh"
#include "ltp/oracle.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace ltp {
namespace {

RunLengths
tiny()
{
    RunLengths l;
    l.funcWarm = 20000;
    l.pipeWarm = 2000;
    l.detail = 8000;
    return l;
}

// ---------------------------------------------------------------------
// P1/P2/P5 across kernel x LTP-mode.

using KernelMode = std::tuple<std::string, LtpMode>;

class KernelModeProp : public ::testing::TestWithParam<KernelMode>
{
};

TEST_P(KernelModeProp, CompletionOccupancyAndAccounting)
{
    const auto &[kernel, mode] = GetParam();
    SimConfig cfg = mode == LtpMode::Off
                        ? SimConfig::baseline()
                        : SimConfig::ltpProposal(mode);
    RunLengths lengths = tiny();
    Simulator sim(cfg, kernel, lengths);
    Metrics m = sim.run();

    // P1: full completion (commit is 8-wide, so the final cycle may
    // overshoot by up to commitWidth-1).
    EXPECT_GE(m.insts, lengths.detail);
    EXPECT_LT(m.insts, lengths.detail + 8);

    // P2: occupancy bounds.
    EXPECT_LE(m.iqOcc, double(cfg.core.iqSize) + 1.0); // emergency slot
    EXPECT_LE(m.robOcc, double(cfg.core.robSize));
    EXPECT_LE(m.lqOcc, double(cfg.core.lqSize));
    EXPECT_LE(m.sqOcc, double(cfg.core.sqSize));
    EXPECT_LE(m.rfOcc, double(cfg.core.intRegs + cfg.core.fpRegs));
    if (mode != LtpMode::Off)
        EXPECT_LE(m.ltpOcc, double(cfg.core.ltp.entries));
    else
        EXPECT_EQ(m.parked, 0u);

    // P5: parking balance after drain.  Unparks may exceed parks by
    // whatever sat in the LTP when stats were reset at the start of
    // the detail region — never the other way around.
    sim.core().drain();
    EXPECT_EQ(sim.core().ltpQueue().size(), 0);
    std::uint64_t parked = sim.core().stats().parked.value();
    std::uint64_t unparked = sim.core().stats().unparked.value();
    EXPECT_GE(unparked, parked);
    EXPECT_LE(unparked - parked,
              std::uint64_t(std::min(cfg.core.ltp.entries,
                                     cfg.core.robSize)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelModeProp,
    ::testing::Combine(
        ::testing::Values("paper_loop", "graph_walk",
                          "indirect_stream_fp", "sparse_gather",
                          "hash_probe", "linked_list", "bucket_shuffle",
                          "btree_lookup", "dense_compute", "branchy_int",
                          "fp_kernel", "cache_stream", "reduction",
                          "int_mix", "div_heavy"),
        ::testing::Values(LtpMode::Off, LtpMode::NU, LtpMode::NRNU)),
    [](const ::testing::TestParamInfo<KernelMode> &info) {
        std::string mode;
        switch (std::get<1>(info.param)) {
          case LtpMode::Off: mode = "Off"; break;
          case LtpMode::NU: mode = "NU"; break;
          case LtpMode::NR: mode = "NR"; break;
          case LtpMode::NRNU: mode = "NRNU"; break;
        }
        return std::get<0>(info.param) + "_" + mode;
    });

// ---------------------------------------------------------------------
// P3: resource monotonicity.

class MonotonicProp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MonotonicProp, InfiniteResourcesNoSlower)
{
    RunLengths lengths = tiny();
    Metrics finite = Simulator::runOnce(SimConfig::baseline(),
                                        GetParam(), lengths);
    Metrics infinite = Simulator::runOnce(
        SimConfig::baseline()
            .withIq(kInfiniteSize)
            .withRegs(kInfiniteSize)
            .withLq(kInfiniteSize)
            .withSq(kInfiniteSize),
        GetParam(), lengths);
    // Modest tolerance: second-order scheduling interactions exist.
    EXPECT_GE(infinite.ipc, finite.ipc * 0.98) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MonotonicProp,
    ::testing::Values("paper_loop", "indirect_stream_fp",
                      "bucket_shuffle", "dense_compute", "hash_probe"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// P4: determinism across independent Simulator instances.

class DeterminismProp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DeterminismProp, IdenticalRunsIdenticalCycles)
{
    Metrics a = Simulator::runOnce(SimConfig::ltpProposal(), GetParam(),
                                   tiny());
    Metrics b = Simulator::runOnce(SimConfig::ltpProposal(), GetParam(),
                                   tiny());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.parked, b.parked);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterminismProp,
    ::testing::Values("graph_walk", "indirect_stream_fp", "div_heavy"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// P8: event-driven scheduler invariants, validated cycle by cycle.

using SchedCase = std::tuple<std::string, LtpMode, int>;

class SchedulerInvariantProp : public ::testing::TestWithParam<SchedCase>
{
};

/**
 * Assert the IQ's ready list is exactly what a brute-force readiness
 * poll would compute: same membership, oldest-first order, no
 * duplicates, consistent bitmask, and pendingSrcs drained to zero.
 */
void
checkSchedulerInvariants(Core &core, Cycle cycle)
{
    IssueQueue &iq = core.iq();

    std::vector<const DynInst *> brute;
    int entries = 0;
    iq.forEachInOrder([&](DynInst *inst) {
        entries += 1;
        bool ready = core.srcsReady(inst); // panics on LTP sources
        ASSERT_EQ(iq.isReady(inst), ready)
            << "entry seq " << inst->seq << " at cycle " << cycle;
        if (ready) {
            brute.push_back(inst);
            EXPECT_EQ(inst->pendingSrcs, 0)
                << "seq " << inst->seq << " at cycle " << cycle;
        }
    });
    ASSERT_EQ(entries, iq.size());

    std::vector<const DynInst *> ready_list;
    SeqNum prev = 0;
    iq.forEachReady([&](DynInst *inst) {
        if (!ready_list.empty()) {
            EXPECT_LT(prev, inst->seq)
                << "ready list out of order at cycle " << cycle;
        }
        prev = inst->seq;
        ready_list.push_back(inst);
        return true;
    });
    ASSERT_EQ(ready_list, brute) << "at cycle " << cycle;
}

TEST_P(SchedulerInvariantProp, ReadyListEqualsBruteForceScan)
{
    const auto &[kernel, mode, seed] = GetParam();
    SimConfig cfg = mode == LtpMode::Off
                        ? SimConfig::baseline()
                        : SimConfig::ltpProposal(mode);
    cfg.seed = seed;
    RunLengths lengths = tiny();
    Simulator sim(cfg, kernel, lengths);
    Core &core = sim.core();

    for (int cycle = 1; cycle <= 3000; ++cycle) {
        core.tick();
        checkSchedulerInvariants(core, core.cycle());
        if (::testing::Test::HasFatalFailure())
            return;
        // Mid-run squashes must tear wakeup subscriptions down
        // consistently (stale dependents links are generation-filtered).
        if (cycle == 1000 || cycle == 2000) {
            DynInst *head = core.rob().head();
            if (head) {
                core.squashAfter(head->seq + 4);
                checkSchedulerInvariants(core, core.cycle());
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerInvariantProp,
    ::testing::Combine(::testing::Values("paper_loop", "graph_walk",
                                         "sparse_gather", "div_heavy"),
                       ::testing::Values(LtpMode::Off, LtpMode::NU,
                                         LtpMode::NRNU),
                       ::testing::Values(1, 7)),
    [](const ::testing::TestParamInfo<SchedCase> &info) {
        std::string mode;
        switch (std::get<1>(info.param)) {
          case LtpMode::Off: mode = "Off"; break;
          case LtpMode::NU: mode = "NU"; break;
          case LtpMode::NR: mode = "NR"; break;
          case LtpMode::NRNU: mode = "NRNU"; break;
        }
        return std::get<0>(info.param) + "_" + mode + "_s" +
               std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// P9: LTP wakeup invariants — ticket wheel + batched unpark vs a
// brute-force per-cycle ticket scan.

class LtpWakeupInvariantProp : public ::testing::TestWithParam<SchedCase>
{
};

/**
 * Assert the LTP queue's ready lists are exactly what the pre-wheel
 * per-cycle scan would compute: a parked instruction is wakeup-ready
 * iff no ticket in its mask is still pending, the urgent/non-urgent
 * ready lists partition exactly that set by the urgent bit in seq
 * order, and every parked pendingTickets counter matches a fresh
 * recount against the pending bitmask (the wheel's subscription
 * bookkeeping may never drift from the mask it summarises).
 */
void
checkLtpWakeupInvariants(Core &core, Cycle cycle)
{
    LtpQueue &q = core.ltpQueue();
    const TicketMask &pending = core.tickets().pending();

    std::vector<const DynInst *> brute_urgent, brute_nonurgent;
    SeqNum prev_parked = 0;
    int parked = 0;
    q.forEach([&](DynInst *inst) {
        parked += 1;
        if (parked > 1) {
            EXPECT_LT(prev_parked, inst->seq)
                << "parked list out of order at cycle " << cycle;
        }
        prev_parked = inst->seq;

        int live = 0;
        inst->tickets.forEachSet([&](int t) {
            if (pending.test(t))
                live += 1;
        });
        ASSERT_EQ(inst->pendingTickets, live)
            << "pendingTickets drifted from mask recount, seq "
            << inst->seq << " at cycle " << cycle;
        if (live == 0)
            (inst->urgent ? brute_urgent : brute_nonurgent)
                .push_back(inst);
    });
    ASSERT_EQ(parked, q.size());

    auto collect = [&](const DynInst *head) {
        std::vector<const DynInst *> list;
        SeqNum prev = 0;
        for (const DynInst *i = head; i; i = LtpQueue::readyNext(i)) {
            if (!list.empty()) {
                EXPECT_LT(prev, i->seq)
                    << "ready list out of order at cycle " << cycle;
            }
            prev = i->seq;
            list.push_back(i);
        }
        return list;
    };
    ASSERT_EQ(collect(q.urgentReadyFront()), brute_urgent)
        << "urgent ready list at cycle " << cycle;
    ASSERT_EQ(collect(q.nonUrgentReadyFront()), brute_nonurgent)
        << "non-urgent ready list at cycle " << cycle;
}

TEST_P(LtpWakeupInvariantProp, ReadySetEqualsBruteForceTicketScan)
{
    const auto &[kernel, mode, seed] = GetParam();
    SimConfig cfg = SimConfig::ltpProposal(mode);
    cfg.seed = seed;
    RunLengths lengths = tiny();
    Simulator sim(cfg, kernel, lengths);
    Core &core = sim.core();

    for (int cycle = 1; cycle <= 3000; ++cycle) {
        core.tick();
        checkLtpWakeupInvariants(core, core.cycle());
        if (::testing::Test::HasFatalFailure())
            return;
        // Mid-run squashes must tear ticket subscriptions down
        // consistently (stale cohort entries are generation-filtered,
        // squashed owners bump the ticket epoch so in-flight wheel
        // events go stale).
        if (cycle == 1000 || cycle == 2000) {
            DynInst *head = core.rob().head();
            if (head) {
                core.squashAfter(head->seq + 4);
                checkLtpWakeupInvariants(core, core.cycle());
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LtpWakeupInvariantProp,
    ::testing::Combine(::testing::Values("graph_walk", "sparse_gather",
                                         "linked_list", "btree_lookup"),
                       ::testing::Values(LtpMode::NU, LtpMode::NRNU),
                       ::testing::Values(1, 7)),
    [](const ::testing::TestParamInfo<SchedCase> &info) {
        std::string mode =
            std::get<1>(info.param) == LtpMode::NU ? "NU" : "NRNU";
        return std::get<0>(info.param) + "_" + mode + "_s" +
               std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// P10: idle-cycle skipping is bit-identical to ticking every cycle.

/** A named configuration of the skip-vs-tick sweep. */
struct SkipConfig
{
    const char *name;
    SimConfig (*make)();
};

const SkipConfig kSkipConfigs[] = {
    {"baseline", [] { return SimConfig::baseline(); }},
    {"shrink",
     [] { return SimConfig::baseline().withIq(32).withRegs(96); }},
    {"NU", [] { return SimConfig::ltpProposal(LtpMode::NU); }},
    {"NR", [] { return SimConfig::ltpProposal(LtpMode::NR); }},
    {"NRNU", [] { return SimConfig::ltpProposal(LtpMode::NRNU); }},
    {"limit_NR", [] { return SimConfig::limitStudy(LtpMode::NR); }},
    {"limit_NRNU", [] { return SimConfig::limitStudy(LtpMode::NRNU); }},
    {"NRNU_monitor_off",
     [] {
         return SimConfig::ltpProposal(LtpMode::NRNU).withMonitor(false);
     }},
    {"NRNU_mshr4",
     [] {
         SimConfig c = SimConfig::ltpProposal(LtpMode::NRNU);
         c.mem.l1dMshrs = 4;
         return c;
     }},
    {"baseline_mshr2",
     [] {
         SimConfig c = SimConfig::baseline();
         c.mem.l1dMshrs = 2;
         return c;
     }},
    {"NU_lazy",
     [] {
         SimConfig c = SimConfig::ltpProposal(LtpMode::NU);
         c.core.ltp.wakeup = WakeupPolicy::Lazy;
         return c;
     }},
    {"NRNU_delay_lq16_sq8",
     [] {
         SimConfig c =
             SimConfig::ltpProposal(LtpMode::NRNU).withLq(16).withSq(8);
         c.core.ltp.delayLqSq = true;
         return c;
     }},
};

/** Everything a skipped cycle could have to account for. */
struct SkipObservation
{
    Cycle cycle = 0;
    std::vector<std::uint64_t> counters;
    std::vector<double> means;
};

SkipObservation
observe(Simulator &sim)
{
    Core &core = sim.core();
    MemSystem &mem = sim.mem();
    Cycle now = core.cycle();
    SkipObservation o;
    o.cycle = now;
    auto add = [&o](const Counter &c) { o.counters.push_back(c.value()); };
    for (int tid = 0; tid < core.numThreads(); ++tid) {
        core.stats(tid).forEachCounter(add);
        LtpQueue &q = core.ltpQueue(tid);
        for (const Counter *c :
             {&q.pushes, &q.pops, &q.camExtractions, &q.fullStalls,
              &core.uit(tid).lookups,
              &core.uit(tid).hits, &core.uit(tid).inserts,
              &core.uit(tid).conflictEvictions,
              &core.llpred(tid).predictions, &core.llpred(tid).correct,
              &core.llpred(tid).mispredicts,
              &core.tickets(tid).allocations,
              &core.tickets(tid).exhaustions,
              &core.tickets(tid).broadcasts, &core.lsq(tid).forwards,
              &core.branchPred(tid).lookups,
              &core.branchPred(tid).mispredicts})
            add(*c);
        o.means.push_back(core.rob(tid).occupancy.mean(now));
        o.means.push_back(core.lsq(tid).lqOccupancy.mean(now));
        o.means.push_back(core.lsq(tid).sqOccupancy.mean(now));
        o.means.push_back(q.occupancy.mean(now));
        o.means.push_back(q.parkedWithDest.mean(now));
        o.means.push_back(q.parkedLoads.mean(now));
        o.means.push_back(q.parkedStores.mean(now));
        o.means.push_back(core.monitor(tid).enabledFraction(now));
    }
    add(core.iq().inserts);
    for (RegClass cls : {RegClass::Int, RegClass::Fp}) {
        add(core.regs(cls).allocations);
        add(core.regs(cls).reserveAllocations);
        o.means.push_back(core.regs(cls).occupancy.mean(now));
    }
    o.means.push_back(core.iq().occupancy.mean(now));
    o.means.push_back(mem.avgOutstanding(now));
    o.means.push_back(mem.avgLoadLatency());
    add(mem.dram().reads);
    return o;
}

void
expectSameObservation(const SkipObservation &skip,
                      const SkipObservation &ticked)
{
    EXPECT_EQ(skip.cycle, ticked.cycle);
    ASSERT_EQ(skip.counters.size(), ticked.counters.size());
    for (std::size_t i = 0; i < skip.counters.size(); ++i)
        EXPECT_EQ(skip.counters[i], ticked.counters[i]) << "counter " << i;
    ASSERT_EQ(skip.means.size(), ticked.means.size());
    for (std::size_t i = 0; i < skip.means.size(); ++i)
        EXPECT_EQ(skip.means[i], ticked.means[i]) << "mean " << i;
}

RunLengths
skipLengths()
{
    RunLengths l;
    l.funcWarm = 20000;
    l.pipeWarm = 1000;
    l.detail = 4000;
    return l;
}

/**
 * Drive @p sim through a warm phase, a stats reset and a measured
 * phase, either with the shipped run loop or with a bare Core::tick()
 * loop to the same commit counts.  With @p gate, a hook after every
 * executed tick stops each context's fetch once it reaches the phase
 * quota (the Simulator's SMT staging), which also routes the shipped
 * run through its on_tick loop.
 */
void
runPhases(Simulator &sim, bool skip, bool gate = false)
{
    Core &core = sim.core();
    std::uint64_t quota = 0;
    Core::TickHook hook;
    if (gate) {
        hook = [&core, &quota] {
            for (int tid = 0; tid < core.numThreads(); ++tid)
                if (core.committedInsts(tid) >= quota)
                    core.setFetchEnabled(tid, false);
        };
    }
    auto least = [&core] {
        std::uint64_t n = core.committedInsts(0);
        for (int tid = 1; tid < core.numThreads(); ++tid)
            n = std::min(n, core.committedInsts(tid));
        return n;
    };
    RunLengths l = skipLengths();
    for (std::uint64_t phase : {l.pipeWarm, l.detail}) {
        quota = phase;
        if (skip) {
            core.runUntilCommitted(quota, kCycleNever, hook);
        } else {
            while (least() < quota) {
                core.tick();
                if (hook)
                    hook();
            }
        }
        if (phase == l.pipeWarm) {
            core.resetStats();
            sim.mem().resetStats(core.cycle());
            for (int tid = 0; tid < core.numThreads(); ++tid)
                core.setFetchEnabled(tid, true);
        }
    }
}

using SkipCase = std::tuple<std::string, int>;

class SkipVsTickProp : public ::testing::TestWithParam<SkipCase>
{
};

TEST_P(SkipVsTickProp, SkippingMatchesTickingEveryCycle)
{
    const auto &[kernel, config] = GetParam();
    SimConfig cfg = kSkipConfigs[config].make();
    Simulator skipped(cfg, kernel, skipLengths());
    Simulator ticked(cfg, kernel, skipLengths());
    runPhases(skipped, true);
    runPhases(ticked, false);
    EXPECT_EQ(ticked.core().skippedTicks(), 0u);
    expectSameObservation(observe(skipped), observe(ticked));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkipVsTickProp,
    ::testing::Combine(
        ::testing::Values("paper_loop", "graph_walk",
                          "indirect_stream_fp", "sparse_gather",
                          "hash_probe", "linked_list", "bucket_shuffle",
                          "btree_lookup", "dense_compute", "branchy_int",
                          "fp_kernel", "cache_stream", "reduction",
                          "int_mix", "div_heavy"),
        ::testing::Range(0, int(std::size(kSkipConfigs)))),
    [](const ::testing::TestParamInfo<SkipCase> &info) {
        return std::get<0>(info.param) + "_" +
               kSkipConfigs[std::get<1>(info.param)].name;
    });

class SkipVsTickSmtProp : public ::testing::TestWithParam<FetchPolicy>
{
};

TEST_P(SkipVsTickSmtProp, OnTickLoopMatchesTickingEveryCycle)
{
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
    cfg.core.fetchPolicy = GetParam();
    const std::string kernel = "smt:graph_walk+dense_compute";
    Simulator skipped(cfg, kernel, skipLengths());
    Simulator ticked(cfg, kernel, skipLengths());
    ASSERT_EQ(skipped.core().numThreads(), 2);

    runPhases(skipped, true, /*gate=*/true);
    runPhases(ticked, false, /*gate=*/true);
    EXPECT_GT(skipped.core().skippedTicks(), 0u);
    expectSameObservation(observe(skipped), observe(ticked));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SkipVsTickSmtProp,
    ::testing::Values(FetchPolicy::RoundRobin, FetchPolicy::ICount),
    [](const ::testing::TestParamInfo<FetchPolicy> &info) {
        return std::string(fetchPolicyName(info.param));
    });

TEST(SkipVsTickCap, MaxCyclesStopsOnTheSameCycle)
{
    // A cap that lands inside DRAM stalls: the jump must stop at it.
    for (Cycle cap : {Cycle(5003), Cycle(12345), Cycle(20011)}) {
        Simulator skipped(SimConfig::baseline(), "linked_list",
                          skipLengths());
        Simulator ticked(SimConfig::baseline(), "linked_list",
                         skipLengths());
        skipped.core().runUntilCommitted(1000000, cap);
        while (ticked.core().cycle() < cap)
            ticked.core().tick();
        EXPECT_EQ(skipped.core().cycle(), cap);
        EXPECT_GT(skipped.core().skippedTicks(), 0u);
        expectSameObservation(observe(skipped), observe(ticked));
    }
}

TEST(SkipEffectiveness, LinkedListBaselineSkipsMostCycles)
{
    Simulator sim(SimConfig::baseline(), "linked_list", skipLengths());
    sim.run();
    double share = double(sim.core().skippedTicks()) /
                   double(sim.core().cycle());
    EXPECT_GE(share, 0.75) << "skipped " << sim.core().skippedTicks()
                           << " of " << sim.core().cycle() << " cycles";
}

// ---------------------------------------------------------------------
// P6: oracle closure on random DAG traces.

/** Random dependence-DAG workload for closure checking. */
class RandomDag : public Workload
{
  public:
    explicit RandomDag(std::uint64_t seed) : rng_(seed) {}

    std::string name() const override { return "random_dag"; }

    void
    reset(std::uint64_t seed) override
    {
        rng_ = Rng(seed);
    }

    MicroOp
    next() override
    {
        // 20% loads (some to a DRAM-sized region => long latency),
        // 80% ALU ops with random sources.
        int dst = int(rng_.below(kArchRegsPerClass));
        if (rng_.chance(0.2)) {
            Addr addr = rng_.chance(0.5)
                            ? 0x10000000 + rng_.below(64 << 20)
                            : 0x20000000 + rng_.below(4 << 10);
            return OpBuilder(OpClass::Load)
                .pc(0x1000 + rng_.below(64) * 4)
                .dst(intReg(dst))
                .src(intReg(int(rng_.below(kArchRegsPerClass))))
                .mem(addr, 8)
                .build();
        }
        return OpBuilder(OpClass::IntAlu)
            .pc(0x2000 + rng_.below(256) * 4)
            .dst(intReg(dst))
            .src(intReg(int(rng_.below(kArchRegsPerClass))))
            .src(intReg(int(rng_.below(kArchRegsPerClass))))
            .build();
    }

  private:
    Rng rng_;
};

class OracleClosureProp : public ::testing::TestWithParam<int>
{
};

TEST_P(OracleClosureProp, UrgencyIsAncestorClosure)
{
    const std::uint64_t seed = GetParam();
    const SeqNum n = 4000;
    RandomDag dag(seed);
    OracleParams params;
    OracleClassification oc =
        oracleClassify(dag, seed, n, MemConfig{}, params);

    // Reference closure computed independently: walk backwards keeping,
    // per register, the nearest urgent consumer.
    RandomDag replay(seed);
    replay.reset(seed);
    std::vector<MicroOp> trace(n);
    for (SeqNum s = 0; s < n; ++s)
        trace[s] = replay.next();

    std::vector<SeqNum> need(kTotalArchRegs, kSeqNone);
    std::vector<bool> urgent_ref(n, false);
    for (SeqNum s = n; s-- > 0;) {
        const MicroOp &op = trace[s];
        bool urgent = oc.longLatency(s);
        if (op.hasDst()) {
            SeqNum consumer = need[op.dst.flat()];
            if (consumer != kSeqNone &&
                consumer - s <= SeqNum(params.urgencyWindow))
                urgent = true;
            need[op.dst.flat()] = kSeqNone;
        }
        if (urgent) {
            urgent_ref[s] = true;
            for (const auto &src : op.srcs)
                if (src.valid())
                    need[src.flat()] = s;
        }
    }
    for (SeqNum s = 0; s < n; ++s)
        ASSERT_EQ(oc.urgent(s), urgent_ref[s]) << "seq " << s;
}

TEST_P(OracleClosureProp, NonReadyOnlyFromLongLatencyAncestors)
{
    const std::uint64_t seed = GetParam() + 100;
    const SeqNum n = 4000;
    RandomDag dag(seed);
    OracleClassification oc = oracleClassify(dag, seed, n, MemConfig{});

    RandomDag replay(seed);
    replay.reset(seed);
    // Forward check: an instruction flagged Non-Ready must read at
    // least one register whose last long-latency-tainted write is
    // within the readiness window.
    std::vector<SeqNum> taint(kTotalArchRegs, 0);
    OracleParams params;
    for (SeqNum s = 0; s < n; ++s) {
        MicroOp op = replay.next();
        SeqNum horizon = 0;
        for (const auto &src : op.srcs)
            if (src.valid())
                horizon = std::max(horizon, taint[src.flat()]);
        ASSERT_EQ(oc.nonReady(s), horizon > s) << "seq " << s;
        if (op.hasDst()) {
            SeqNum h = horizon > s ? horizon : 0;
            if (oc.longLatency(s))
                h = std::max(h, s + params.readinessWindow);
            taint[op.dst.flat()] = h;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleClosureProp,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// P7: trace format round trip on randomized micro-op streams.

/** A random micro-op spanning every op class and field combination. */
MicroOp
randomOp(Rng &rng)
{
    auto reg = [&](double p_valid) {
        if (!rng.chance(p_valid))
            return RegId(); // invalid / unused slot
        RegClass cls = rng.chance(0.5) ? RegClass::Int : RegClass::Fp;
        return RegId(cls, int(rng.below(kArchRegsPerClass)));
    };
    OpClass opc = static_cast<OpClass>(rng.below(kNumOpClasses));
    OpBuilder b(opc);
    b.pc(rng.next());
    if (rng.chance(0.9))
        b.dst(reg(1.0));
    for (int i = 0; i < kMaxSrcs; ++i)
        if (rng.chance(0.6)) {
            RegId r = reg(1.0);
            b.src(r);
        }
    if (isMem(opc))
        b.mem(rng.next(), 1 << rng.below(4));
    if (isBranch(opc))
        b.branch(rng.chance(0.5), rng.next());
    return b.build();
}

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    bool same = a.pc == b.pc && a.opc == b.opc &&
                a.effAddr == b.effAddr && a.memSize == b.memSize &&
                a.taken == b.taken && a.target == b.target &&
                a.dst == b.dst;
    for (int i = 0; i < kMaxSrcs; ++i)
        same = same && a.srcs[i] == b.srcs[i];
    return same;
}

class TraceRoundTripProp : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceRoundTripProp, WriteReadWriteIsByteAndRecordIdentical)
{
    Rng rng(GetParam());
    const std::uint64_t n = 500 + rng.below(1500);

    TraceInfo info;
    info.kernel = "random_stream_" + std::to_string(GetParam());
    info.seed = rng.next();
    info.funcWarm = rng.below(10000);
    info.pipeWarm = rng.below(1000);
    info.detail = rng.below(5000);

    std::vector<MicroOp> ops;
    TraceWriter writer(info);
    for (std::uint64_t i = 0; i < n; ++i) {
        ops.push_back(randomOp(rng));
        writer.append(ops.back());
    }
    std::string bytes = writer.finish();

    // Read back: header and every record identical.
    TraceReader reader(bytes);
    EXPECT_EQ(reader.info().kernel, info.kernel);
    EXPECT_EQ(reader.info().seed, info.seed);
    EXPECT_EQ(reader.info().funcWarm, info.funcWarm);
    EXPECT_EQ(reader.info().pipeWarm, info.pipeWarm);
    EXPECT_EQ(reader.info().detail, info.detail);
    ASSERT_EQ(reader.info().count, n);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(sameOp(ops[i], reader.record(i))) << "record " << i;

    // Re-encode what was read: byte-identical file.
    TraceWriter rewriter(reader.info());
    for (std::uint64_t i = 0; i < n; ++i)
        rewriter.append(reader.record(i));
    EXPECT_EQ(rewriter.finish(), bytes);
}

TEST_P(TraceRoundTripProp, CorruptionIsRejected)
{
    Rng rng(GetParam() + 1000);
    TraceInfo info;
    info.kernel = "corrupt_me";
    TraceWriter writer(info);
    for (int i = 0; i < 64; ++i)
        writer.append(randomOp(rng));
    std::string good = writer.finish();
    ASSERT_NO_THROW((void)TraceReader(good));

    // Bad magic.
    std::string bad_magic = good;
    bad_magic[0] ^= 0x5a;
    EXPECT_THROW((void)TraceReader(bad_magic), std::runtime_error);

    // Unsupported version.
    std::string bad_version = good;
    bad_version[8] = 99; // version u32 follows the 8-byte magic
    EXPECT_THROW((void)TraceReader(bad_version), std::runtime_error);

    // Truncations: mid-header, mid-records, and a clipped footer.
    for (std::size_t keep :
         {std::size_t(10), good.size() / 2, good.size() - 1})
        EXPECT_THROW((void)TraceReader(good.substr(0, keep)),
                     std::runtime_error)
            << "kept " << keep << " bytes";

    // A flipped payload byte must fail the CRC.
    std::string bad_payload = good;
    bad_payload[good.size() / 2] ^= 0x01;
    EXPECT_THROW((void)TraceReader(bad_payload), std::runtime_error);

    // A flipped CRC byte must fail too.
    std::string bad_crc = good;
    bad_crc[good.size() - 1] ^= 0x01;
    EXPECT_THROW((void)TraceReader(bad_crc), std::runtime_error);

    // Trailing garbage is a size mismatch, not silently ignored.
    EXPECT_THROW((void)TraceReader(good + "x"), std::runtime_error);
}

/** Re-seal a tampered image with a fresh CRC so only the semantic
 *  validation can reject it. */
std::string
resealed(std::string bytes)
{
    std::string body = bytes.substr(0, bytes.size() - 4);
    std::string out = body;
    putU32le(out, crc32(body));
    return out;
}

TEST_P(TraceRoundTripProp, CrcValidButCraftedPayloadIsRejected)
{
    Rng rng(GetParam() + 2000);
    TraceInfo info;
    info.kernel = "crafted";
    TraceWriter writer(info);
    for (int i = 0; i < 8; ++i) {
        // All-ALU records with a valid destination, so register
        // tampering below flips a *valid* register to an invalid one.
        writer.append(OpBuilder(OpClass::IntAlu)
                          .pc(0x1000 + i * 4)
                          .dst(intReg(int(rng.below(kArchRegsPerClass))))
                          .build());
    }
    std::string good = writer.finish();
    // Header: magic 8 + version 4 + reserved 4 + 5×u64 + u16 + name.
    const std::size_t records_off = 8 + 4 + 4 + 5 * 8 + 2 +
                                    info.kernel.size();
    const std::size_t count_off = 8 + 4 + 4 + 4 * 8;

    // An absurd record count must fail the (overflow-safe) size check
    // even with a recomputed CRC.
    {
        std::string bad = good;
        for (int b = 0; b < 8; ++b)
            bad[count_off + b] = char(0xff);
        EXPECT_THROW((void)TraceReader(resealed(bad)),
                     std::runtime_error);
    }
    // Out-of-range op class, CRC-valid.
    {
        std::string bad = good;
        bad[records_off + 24] = char(kNumOpClasses);
        EXPECT_THROW((void)TraceReader(resealed(bad)),
                     std::runtime_error);
    }
    // Out-of-range register class on a valid destination, CRC-valid
    // (would index the rename table out of bounds if replayed).
    {
        std::string bad = good;
        bad[records_off + 28] = char(0xff); // dst high byte = regClass
        EXPECT_THROW((void)TraceReader(resealed(bad)),
                     std::runtime_error);
    }
    // Out-of-range register index (valid != 0xff but >= 32), CRC-valid.
    {
        std::string bad = good;
        bad[records_off + 27] = char(0x40); // dst low byte = index
        EXPECT_THROW((void)TraceReader(resealed(bad)),
                     std::runtime_error);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTripProp,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace ltp
