/**
 * @file
 * Tests for the sim layer: config presets (Table 1), staging, metrics
 * extraction and averaging, and the Section 4.1 MLP classifier.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/mlp_class.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"

namespace ltp {
namespace {

TEST(Config, BaselineEncodesTable1)
{
    SimConfig cfg = SimConfig::baseline();
    EXPECT_EQ(cfg.core.fetchWidth, 8);
    EXPECT_EQ(cfg.core.decodeWidth, 8);
    EXPECT_EQ(cfg.core.renameWidth, 8);
    EXPECT_EQ(cfg.core.issueWidth, 6);
    EXPECT_EQ(cfg.core.wbWidth, 8);
    EXPECT_EQ(cfg.core.commitWidth, 8);
    EXPECT_EQ(cfg.core.robSize, 256);
    EXPECT_EQ(cfg.core.iqSize, 64);
    EXPECT_EQ(cfg.core.lqSize, 64);
    EXPECT_EQ(cfg.core.sqSize, 32);
    EXPECT_EQ(cfg.core.intRegs, 128);
    EXPECT_EQ(cfg.core.fpRegs, 128);
    // Caches: size kB / associativity / load-to-use latency.
    struct Level
    {
        const CacheConfig &cache;
        int sizeKB, assoc;
        Cycle latency;
    };
    for (const Level &l : {Level{cfg.mem.l1i, 32, 8, 4},
                           Level{cfg.mem.l1d, 32, 8, 4},
                           Level{cfg.mem.l2, 256, 8, 12},
                           Level{cfg.mem.l3, 1024, 16, 36}}) {
        EXPECT_EQ(l.cache.sizeKB, l.sizeKB);
        EXPECT_EQ(l.cache.assoc, l.assoc);
        EXPECT_EQ(l.cache.hitLatency, l.latency);
    }
    EXPECT_TRUE(cfg.mem.prefetchEnabled);
    EXPECT_EQ(cfg.mem.prefetchDegree, 4);
    EXPECT_EQ(cfg.core.ltp.mode, LtpMode::Off);
}

TEST(Config, ProposalShrinksIqAndRf)
{
    SimConfig cfg = SimConfig::ltpProposal();
    EXPECT_EQ(cfg.core.iqSize, 32);
    EXPECT_EQ(cfg.core.intRegs, 96);
    EXPECT_EQ(cfg.core.fpRegs, 96);
    // Everything else is the Table 1 machine.
    SimConfig base = SimConfig::baseline();
    EXPECT_EQ(cfg.core.robSize, base.core.robSize);
    EXPECT_EQ(cfg.core.lqSize, base.core.lqSize);
    EXPECT_EQ(cfg.core.sqSize, base.core.sqSize);
    EXPECT_EQ(cfg.core.issueWidth, base.core.issueWidth);
    EXPECT_EQ(cfg.mem.l3.sizeKB, base.mem.l3.sizeKB);
    EXPECT_EQ(cfg.core.ltp.mode, LtpMode::NU);
    EXPECT_EQ(cfg.core.ltp.entries, 128);
    EXPECT_EQ(cfg.core.ltp.insertPorts, 4);
    EXPECT_EQ(cfg.core.ltp.extractPorts, 4);
    EXPECT_EQ(cfg.core.ltp.uitEntries, 256);
    EXPECT_TRUE(cfg.core.ltp.useMonitor);
}

TEST(Config, LimitStudyUnbounded)
{
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU);
    EXPECT_TRUE(isInfinite(cfg.core.iqSize));
    EXPECT_TRUE(isInfinite(cfg.core.intRegs));
    EXPECT_TRUE(isInfinite(cfg.core.lqSize));
    EXPECT_TRUE(isInfinite(cfg.core.sqSize));
    EXPECT_TRUE(isInfinite(cfg.core.ltp.entries));
    EXPECT_EQ(cfg.core.ltp.classifier, ClassifierKind::Oracle);
    EXPECT_TRUE(cfg.core.ltp.delayLqSq);
}

TEST(Config, FluentMutatorsChain)
{
    SimConfig cfg = SimConfig::baseline()
                        .withIq(48)
                        .withRegs(112)
                        .withLq(40)
                        .withSq(24)
                        .withSeed(9)
                        .withName("custom");
    EXPECT_EQ(cfg.core.iqSize, 48);
    EXPECT_EQ(cfg.core.intRegs, 112);
    EXPECT_EQ(cfg.core.lqSize, 40);
    EXPECT_EQ(cfg.core.sqSize, 24);
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_EQ(cfg.name, "custom");
}

TEST(Simulator, RunsDetailLengthWithinCommitWidth)
{
    RunLengths lengths = RunLengths::quick();
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   lengths);
    EXPECT_GE(m.insts, lengths.detail);
    EXPECT_LT(m.insts, lengths.detail + 8);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_NEAR(m.ipc * m.cpi, 1.0, 1e-6);
    EXPECT_EQ(m.workload, "paper_loop");
}

TEST(Simulator, DeterministicAcrossRuns)
{
    Metrics a = Simulator::runOnce(SimConfig::baseline(), "hash_probe",
                                   RunLengths::quick());
    Metrics b = Simulator::runOnce(SimConfig::baseline(), "hash_probe",
                                   RunLengths::quick());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.avgOutstanding, b.avgOutstanding);
}

TEST(Simulator, SeedChangesTiming)
{
    Metrics a = Simulator::runOnce(SimConfig::baseline().withSeed(1),
                                   "bucket_shuffle", RunLengths::quick());
    Metrics b = Simulator::runOnce(SimConfig::baseline().withSeed(2),
                                   "bucket_shuffle", RunLengths::quick());
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Metrics, AverageAggregates)
{
    Metrics a;
    a.ipc = 1.0;
    a.cycles = 100;
    a.insts = 100;
    a.avgOutstanding = 2.0;
    Metrics b;
    b.ipc = 3.0;
    b.cycles = 300;
    b.insts = 100;
    b.avgOutstanding = 4.0;
    Metrics avg = averageMetrics({a, b}, "group");
    EXPECT_DOUBLE_EQ(avg.ipc, 2.0);
    EXPECT_DOUBLE_EQ(avg.avgOutstanding, 3.0);
    EXPECT_EQ(avg.insts, 200u);
    EXPECT_EQ(avg.workload, "group");
}

TEST(Metrics, AverageSumsU64AndMeansDoublesOverTheTable)
{
    // Three runs with a different value in every table field.
    std::vector<Metrics> runs(3);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        int i = 0;
        for (const Field &f : metricFields(runs[r])) {
            i += 1;
            if (f.kind == FieldKind::String)
                fieldRef<std::string>(f) = "run" + std::to_string(r);
            else if (f.kind == FieldKind::U64)
                fieldRef<std::uint64_t>(f) = std::uint64_t(100 * r + i);
            else
                fieldRef<double>(f) = 0.1 * double(i) + 0.7 * double(r);
        }
    }
    Metrics avg = averageMetrics(runs, "group");
    EXPECT_EQ(avg.config, "run0");
    EXPECT_EQ(avg.workload, "group");
    MetricFields got = metricFields(avg);
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(got[i].path);
        if (got[i].kind == FieldKind::U64) {
            std::uint64_t sum = 0;
            for (const Metrics &m : runs)
                sum += fieldRef<std::uint64_t>(metricFields(m)[i]);
            EXPECT_EQ(fieldRef<std::uint64_t>(got[i]), sum);
        } else if (got[i].kind == FieldKind::Double) {
            // Bit-exact: v/n added in run order.
            double mean = 0.0;
            for (const Metrics &m : runs)
                mean += fieldRef<double>(metricFields(m)[i]) / 3.0;
            EXPECT_EQ(fieldRef<double>(got[i]), mean);
        }
    }
}

TEST(Metrics, DeltasAgainstBase)
{
    Metrics base;
    base.ipc = 2.0;
    base.ed2p = 100.0;
    Metrics x;
    x.ipc = 1.8;
    x.ed2p = 60.0;
    EXPECT_NEAR(x.perfDeltaPct(base), -10.0, 1e-9);
    EXPECT_NEAR(x.ed2pDeltaPct(base), -40.0, 1e-9);
}

TEST(Experiment, ResultGridStoresAndFetches)
{
    ResultGrid grid;
    Metrics m;
    m.ipc = 1.5;
    grid.put("64", "NoLTP", m);
    EXPECT_TRUE(grid.has("64", "NoLTP"));
    EXPECT_FALSE(grid.has("64", "LTP"));
    EXPECT_DOUBLE_EQ(grid.at("64", "NoLTP").ipc, 1.5);
}

TEST(Experiment, ResultGridMissingKeyNamesTheKey)
{
    ResultGrid grid;
    Metrics m;
    grid.put("64", "NoLTP", m);

    // Unknown row: the message names the row.
    try {
        grid.at("256", "NoLTP");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("row '256'"),
                  std::string::npos);
    }
    // Known row, unknown series: the message names both.
    try {
        grid.at("64", "LTP (NR)");
        FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("series 'LTP (NR)'"), std::string::npos);
        EXPECT_NE(what.find("row '64'"), std::string::npos);
    }
}

TEST(MlpClass, MarqueeKernelsClassifyAsDesigned)
{
    RunLengths lengths = RunLengths::quick();
    // Clearly sensitive: independent DRAM misses window-limited.
    MlpClassification shuffle = classifyMlp("bucket_shuffle", lengths);
    EXPECT_TRUE(shuffle.sensitive)
        << "speedup=" << shuffle.speedup
        << " outstanding=" << shuffle.outstandingRatio
        << " lat=" << shuffle.avgLoadLatency;
    MlpClassification milc = classifyMlp("indirect_stream_fp", lengths);
    EXPECT_TRUE(milc.sensitive);
    // Clearly insensitive: cache-resident compute.
    EXPECT_FALSE(classifyMlp("dense_compute", lengths).sensitive);
    EXPECT_FALSE(classifyMlp("reduction", lengths).sensitive);
    EXPECT_FALSE(classifyMlp("div_heavy", lengths).sensitive);
}

TEST(MlpClass, CriteriaFieldsPopulated)
{
    MlpClassification c =
        classifyMlp("indirect_stream_fp", RunLengths::quick());
    EXPECT_GT(c.speedup, 1.0);
    EXPECT_GT(c.outstandingRatio, 1.0);
    EXPECT_GT(c.avgLoadLatency, 12.0); // beyond the L2 latency
}

} // namespace
} // namespace ltp
