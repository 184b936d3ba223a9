/**
 * @file
 * Tests for the parallel experiment runner: the thread pool, sweep
 * declaration, parallel-vs-serial bit-identity, concurrent ResultGrid
 * access, and the JSON report round-trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/report.hh"
#include "sim/runner.hh"

namespace ltp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&ran]() { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 100);
}

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

TEST(SweepSpec, CrossProductShape)
{
    std::vector<SimConfig> configs = {
        SimConfig::baseline().withName("a"),
        SimConfig::baseline().withName("b")};
    SweepSpec spec = SweepSpec::cross("x", configs, {"k1", "k2", "k3"},
                                      RunLengths::quick());
    EXPECT_EQ(spec.jobs.size(), 6u);
    EXPECT_EQ(spec.simulationCount(), 6u);
}

TEST(SweepSpec, GroupJobsCountPerKernel)
{
    SweepSpec spec;
    spec.addGroup("row", "series", SimConfig::baseline(), {"k1", "k2"},
                  "grp");
    spec.add("row2", "series", SimConfig::baseline(), "k3");
    EXPECT_EQ(spec.jobs.size(), 2u);
    EXPECT_EQ(spec.simulationCount(), 3u);
}

// ---------------------------------------------------------------------------
// Runner determinism: parallel must be bit-identical to serial
// ---------------------------------------------------------------------------

void
expectIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    // Bit-identity, not approximate equality.
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.avgOutstanding, b.avgOutstanding);
    EXPECT_EQ(a.avgLoadLatency, b.avgLoadLatency);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.iqOcc, b.iqOcc);
    EXPECT_EQ(a.rfOcc, b.rfOcc);
    EXPECT_EQ(a.ltpOcc, b.ltpOcc);
    EXPECT_EQ(a.parked, b.parked);
    EXPECT_EQ(a.unparked, b.unparked);
    EXPECT_EQ(a.energy.iq, b.energy.iq);
    EXPECT_EQ(a.energy.rf, b.energy.rf);
    EXPECT_EQ(a.energy.ltp, b.energy.ltp);
    EXPECT_EQ(a.ed2p, b.ed2p);
}

TEST(Runner, ParallelBitIdenticalToSerial)
{
    // 2 configs x 4 kernels, as the issue prescribes.
    std::vector<SimConfig> configs = {
        SimConfig::baseline().withSeed(7).withName("baseline"),
        SimConfig::ltpProposal().withSeed(7).withName("ltp")};
    std::vector<std::string> kernels = {"paper_loop", "hash_probe",
                                        "dense_compute", "graph_walk"};
    SweepSpec spec = SweepSpec::cross("bitident", configs, kernels,
                                      RunLengths::quick());

    SweepResult serial = Runner(1).run(spec);
    SweepResult parallel = Runner(4).run(spec);

    EXPECT_EQ(serial.threads, 1);
    EXPECT_EQ(parallel.threads, 4);
    EXPECT_EQ(serial.simulations, 8u);
    EXPECT_EQ(parallel.simulations, 8u);
    for (const std::string &k : kernels)
        for (const SimConfig &cfg : configs)
            expectIdentical(serial.grid.at(k, cfg.name),
                            parallel.grid.at(k, cfg.name));
}

TEST(Runner, GroupAveragesBitIdenticalToSerial)
{
    SweepSpec spec;
    spec.name = "groups";
    spec.lengths = RunLengths::quick();
    spec.addGroup("g", "ilp", SimConfig::baseline(),
                  {"dense_compute", "reduction", "div_heavy"}, "ilp");
    spec.addGroup("g", "mlp", SimConfig::baseline(),
                  {"graph_walk", "hash_probe"}, "mlp");

    SweepResult serial = Runner(1).run(spec);
    SweepResult parallel = Runner(3).run(spec);
    expectIdentical(serial.grid.at("g", "ilp"),
                    parallel.grid.at("g", "ilp"));
    expectIdentical(serial.grid.at("g", "mlp"),
                    parallel.grid.at("g", "mlp"));

    // The average label is preserved.
    EXPECT_EQ(serial.grid.at("g", "ilp").workload, "ilp");
}

TEST(Runner, SerialPathReportsProgressPerCell)
{
    // --threads=1 sweeps go through the same ProgressFn as sharded
    // ones: one callback per completed cell, done climbing to total.
    SweepSpec spec = SweepSpec::cross(
        "serial_progress", {SimConfig::baseline()},
        {"paper_loop", "dense_compute", "graph_walk"}, RunLengths::quick());

    std::vector<Progress> seen;
    Runner(1).run(spec,
                  [&seen](const Progress &p) { seen.push_back(p); });

    ASSERT_EQ(seen.size(), spec.simulationCount());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].done, i + 1);
        EXPECT_EQ(seen[i].total, spec.simulationCount());
        EXPECT_EQ(seen[i].hits, 0u); // local backend: nothing cached
    }
}

TEST(Runner, ThreadedPathReportsFinalProgress)
{
    SweepSpec spec = SweepSpec::cross(
        "threaded_progress", {SimConfig::baseline()},
        {"paper_loop", "dense_compute"}, RunLengths::quick());

    std::vector<Progress> seen;
    Runner(2).run(spec,
                  [&seen](const Progress &p) { seen.push_back(p); });

    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back().done, spec.simulationCount());
    EXPECT_EQ(seen.back().total, spec.simulationCount());
}

// ---------------------------------------------------------------------------
// ResultGrid
// ---------------------------------------------------------------------------

TEST(ResultGrid, ConcurrentPutFromPool)
{
    ResultGrid grid;
    ThreadPool pool(8);
    const int rows = 16, series = 8;

    std::vector<std::future<void>> futures;
    for (int r = 0; r < rows; ++r) {
        for (int s = 0; s < series; ++s) {
            futures.push_back(pool.submit([&grid, r, s]() {
                Metrics m;
                m.ipc = r + s * 0.01;
                m.cycles = std::uint64_t(r * 1000 + s);
                grid.put("row" + std::to_string(r),
                         "s" + std::to_string(s), m);
            }));
        }
    }
    for (auto &f : futures)
        f.get();

    EXPECT_EQ(grid.size(), std::size_t(rows * series));
    for (int r = 0; r < rows; ++r)
        for (int s = 0; s < series; ++s)
            EXPECT_EQ(grid.at("row" + std::to_string(r),
                              "s" + std::to_string(s))
                          .cycles,
                      std::uint64_t(r * 1000 + s));
}

// ResultGrid::at's descriptive std::out_of_range is covered in
// test_sim.cc (Experiment.ResultGridMissingKeyNamesTheKey).

TEST(ResultGrid, RowsAndSeriesEnumerate)
{
    ResultGrid grid;
    Metrics m;
    grid.put("b", "s1", m);
    grid.put("a", "s2", m);
    grid.put("a", "s1", m);
    EXPECT_EQ(grid.rows(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(grid.series("a"), (std::vector<std::string>{"s1", "s2"}));
    EXPECT_TRUE(grid.series("zz").empty());
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

Metrics
distinctiveMetrics()
{
    Metrics m;
    m.config = "cfg \"quoted\"";
    m.workload = "kernel\\path";
    m.insts = 123456789012345ull;
    m.cycles = 987654321ull;
    m.ipc = 1.2345678901234567;
    m.cpi = 1.0 / m.ipc;
    m.avgOutstanding = 3.75;
    m.avgLoadLatency = 142.625;
    m.dramReads = 42;
    m.iqOcc = 17.5;
    m.robOcc = 201.25;
    m.lqOcc = 33.0;
    m.sqOcc = 12.5;
    m.rfOcc = 99.875;
    m.ltpOcc = 64.125;
    m.ltpRegsOcc = 21.5;
    m.ltpLoadsOcc = 3.25;
    m.ltpStoresOcc = 1.125;
    m.ltpEnabledFrac = 0.9375;
    m.parkedFrac = 0.4375;
    m.parked = 1111;
    m.unparked = 1110;
    m.forcedUnparks = 7;
    m.pressureUnparks = 13;
    m.llpredAccuracy = 0.8125;
    m.bpAccuracy = 0.96875;
    m.energy.iq = 1234.5678;
    m.energy.rf = 8765.4321;
    m.energy.ltp = 111.222;
    m.ed2p = 1e18;
    m.edp = 2.5e9;
    return m;
}

TEST(Report, MetricsJsonRoundTripIsExact)
{
    Metrics m = distinctiveMetrics();
    Metrics back = metricsFromJson(metricsToJson(m));
    expectIdentical(m, back);
    EXPECT_EQ(back.config, "cfg \"quoted\"");
    EXPECT_EQ(back.workload, "kernel\\path");
    EXPECT_EQ(back.robOcc, m.robOcc);
    EXPECT_EQ(back.llpredAccuracy, m.llpredAccuracy);
    EXPECT_EQ(back.forcedUnparks, m.forcedUnparks);
    EXPECT_EQ(back.pressureUnparks, m.pressureUnparks);
    EXPECT_EQ(back.edp, m.edp);
}

/** Every Metrics table field set to a value no other field has
 *  (U64s above 2^53, so only the exact lexeme round-trips them). */
Metrics
everyFieldDistinct()
{
    Metrics m;
    int i = 0;
    for (const Field &f : metricFields(m)) {
        i += 1;
        if (f.kind == FieldKind::String)
            fieldRef<std::string>(f) =
                "s" + std::to_string(i) + " \"quoted\", a\\path";
        else if (f.kind == FieldKind::U64)
            fieldRef<std::uint64_t>(f) = (1ull << 60) + std::uint64_t(i);
        else
            fieldRef<double>(f) = i + 1.0 / 3.0;
    }
    return m;
}

TEST(Report, EveryTableFieldRoundTripsExactly)
{
    Metrics m = everyFieldDistinct();
    std::string json = metricsToJson(m);
    Metrics back = metricsFromJson(json);
    MetricFields want = metricFields(m), got = metricFields(back);
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(want[i].path);
        if (want[i].kind == FieldKind::String)
            EXPECT_EQ(fieldRef<std::string>(got[i]),
                      fieldRef<std::string>(want[i]));
        else if (want[i].kind == FieldKind::U64)
            EXPECT_EQ(fieldRef<std::uint64_t>(got[i]),
                      fieldRef<std::uint64_t>(want[i]));
        else
            EXPECT_EQ(fieldRef<double>(got[i]), fieldRef<double>(want[i]));
    }
    EXPECT_EQ(metricsToJson(back), json);
    // Dotted paths nest: energy.iq is "iq" inside "energy".
    EXPECT_NE(json.find("\"energy\": {"), std::string::npos) << json;

    // CSV: row, series, one column per table field, then the rest.
    SweepResult result;
    result.grid.put("r", "s", m);
    std::string csv = reportToCsv(result);
    std::string header = csv.substr(0, csv.find('\n'));
    std::string expect = "row,series";
    for (const Field &f : want)
        expect += std::string(",") + f.path;
    EXPECT_EQ(header.rfind(expect + ",threads,", 0), 0u) << header;
    EXPECT_NE(header.find(",samples,ipcCi95"), std::string::npos);
    EXPECT_EQ(header.find("weightedSpeedup"), std::string::npos);
    EXPECT_NE(csv.find(",1152921504606846979,"), std::string::npos)
        << csv; // insts, the third row of the table
}

TEST(Report, PresentFieldsMustHaveTheTableKind)
{
    // Absent fields keep their defaults; a present one of the wrong
    // kind is an error naming it.
    Metrics m = metricsFromJson("{\"ipc\": 1.5}");
    EXPECT_EQ(m.ipc, 1.5);
    EXPECT_EQ(m.insts, 0u);
    for (const char *bad :
         {"{\"insts\": 2.5}", "{\"insts\": -1}", "{\"ipc\": \"x\"}",
          "{\"config\": 3}", "{\"energy\": {\"iq\": true}}"}) {
        try {
            metricsFromJson(bad);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            std::string key = std::string(bad).substr(2);
            key = key.substr(0, key.find('"'));
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(Report, MalformedJsonThrows)
{
    EXPECT_THROW(metricsFromJson("{\"ipc\": "), std::runtime_error);
    EXPECT_THROW(metricsFromJson("not json at all"), std::runtime_error);
    EXPECT_THROW(metricsFromJson("{\"a\": 1} trailing"),
                 std::runtime_error);
}

TEST(Report, SweepReportContainsEveryCell)
{
    SweepResult result;
    result.name = "mini";
    result.threads = 3;
    result.simulations = 2;
    result.wallMs = 12.5;
    result.grid.put("r1", "s1", distinctiveMetrics());
    result.grid.put("r2", "s1", distinctiveMetrics());

    std::string json = reportToJson(result);
    EXPECT_NE(json.find("\"sweep\": \"mini\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"r1\""), std::string::npos);
    EXPECT_NE(json.find("\"r2\""), std::string::npos);

    std::string csv = reportToCsv(result);
    // Header + one line per cell.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Report, SweepResultCodecRoundTrips)
{
    SweepResult result;
    result.name = "mini";
    result.threads = 3;
    result.simulations = 2;
    result.wallMs = 12.5;
    result.grid.put("r1", "s1", distinctiveMetrics());
    result.grid.put("r2", "s2", distinctiveMetrics());

    SweepResult back = sweepResultFromJson(sweepResultToJson(result));
    EXPECT_EQ(back.name, "mini");
    EXPECT_EQ(back.threads, 3);
    EXPECT_EQ(back.simulations, 2u);
    EXPECT_EQ(back.wallMs, 12.5);
    EXPECT_EQ(reportToJson(back), reportToJson(result));
}

TEST(Report, SweepResultCodecNamesTheBadField)
{
    auto error = [](const std::string &text) {
        try {
            sweepResultFromJson(parseJson(text));
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_NE(error("[]").find("'sweep'"), std::string::npos);
    EXPECT_NE(error(R"({"threads":1,"simulations":0,"wall_ms":0,
                        "results":[]})")
                  .find("'sweep'"),
              std::string::npos);
    EXPECT_NE(error(R"({"sweep":"x","threads":1,"simulations":0,
                        "wall_ms":0,"results":{}})")
                  .find("'results'"),
              std::string::npos);
    EXPECT_NE(error(R"({"sweep":"x","threads":1,"simulations":1,
                        "wall_ms":0,"results":[{"row":"r","series":"s"}]})")
                  .find("'metrics'"),
              std::string::npos);
}

} // namespace
} // namespace ltp
