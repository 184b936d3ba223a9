/**
 * @file
 * The content-addressed result cache, end to end: canonical-JSON key
 * stability, workload content identity (kernels, traces by CRC, smt
 * tuples), round-trip bit-identity against fresh simulation for every
 * suite kernel, schema-version gating, and the CachedBackend + Runner
 * warm-sweep behaviour the CLI relies on.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "sim/cell_key.hh"
#include "sim/exec_backend.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

namespace {

using namespace ltp;

RunLengths
tiny()
{
    RunLengths l;
    l.funcWarm = 2000;
    l.pipeWarm = 400;
    l.detail = 1000;
    return l;
}

/** Fresh scratch dir per fixture instantiation; removed afterwards. */
class CacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (std::filesystem::temp_directory_path() /
                ("ltp_cache_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string dir_;
};

// ---------------------------------------------------------------------------
// Canonicalization and key stability
// ---------------------------------------------------------------------------

TEST(CanonicalJson, IndependentOfFieldOrderAndWhitespace)
{
    EXPECT_EQ(canonicalJson("{\"b\": 1, \"a\": {\"y\": 2, \"x\": 3}}"),
              canonicalJson("{ \"a\" : { \"x\" :3, \"y\" :2},\"b\":1 }"));
    EXPECT_NE(canonicalJson("{\"a\": 1}"), canonicalJson("{\"a\": 2}"));
}

TEST(CanonicalJson, NumberLexemesSurviveExactly)
{
    // Integers above 2^53 and float lexemes must not be reformatted
    // through a lossy double.
    std::string canon =
        canonicalJson("{\"big\": 18446744073709551615, \"f\": 0.1}");
    EXPECT_NE(canon.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(canon.find("0.1"), std::string::npos);
}

TEST(CellKeyTest, StableAcrossConfigRoundTrip)
{
    SimConfig cfg = SimConfig::baseline().withIq(48).withSeed(7);
    // Serializing and re-parsing the config must not move the key:
    // the canonical form absorbs any field-order or formatting drift.
    SimConfig round = configFromJson(configToJson(cfg));
    EXPECT_EQ(cellKeyFor(cfg, "paper_loop", tiny()).hex,
              cellKeyFor(round, "paper_loop", tiny()).hex);
}

TEST(CellKeyTest, DistinctAcrossEveryInput)
{
    SimConfig base = SimConfig::baseline();
    RunLengths lengths = tiny();

    std::set<std::string> keys;
    keys.insert(cellKeyFor(base, "paper_loop", lengths).hex);
    keys.insert(
        cellKeyFor(base.withSeed(2), "paper_loop", lengths).hex);
    keys.insert(cellKeyFor(SimConfig::baseline().withIq(32),
                           "paper_loop", lengths)
                    .hex);
    keys.insert(
        cellKeyFor(SimConfig::baseline(), "graph_walk", lengths).hex);
    RunLengths staged = lengths;
    staged.detail += 1;
    keys.insert(
        cellKeyFor(SimConfig::baseline(), "paper_loop", staged).hex);

    EXPECT_EQ(keys.size(), 5u) << "some cell keys aliased";
    for (const std::string &k : keys)
        EXPECT_EQ(k.size(), 64u);
}

TEST(CellKeyTest, SmtIdentityDecomposesMembers)
{
    std::string ab =
        workloadIdentity(smtName({"paper_loop", "graph_walk"}));
    std::string ba =
        workloadIdentity(smtName({"graph_walk", "paper_loop"}));
    EXPECT_NE(ab.find("kernel/paper_loop"), std::string::npos);
    EXPECT_NE(ab.find("kernel/graph_walk"), std::string::npos);
    // Thread order is architectural (thread 0 vs thread 1), so the
    // identities must not commute.
    EXPECT_NE(ab, ba);
}

TEST_F(CacheTest, TraceIdentityIsContentAddressed)
{
    std::filesystem::create_directories(dir_);
    TraceInfo info;
    info.kernel = "paper_loop";
    info.seed = 3;
    info.funcWarm = tiny().funcWarm;
    info.pipeWarm = tiny().pipeWarm;
    info.detail = tiny().detail;
    std::string bytes = recordTrace(info);
    std::string path = dir_ + "/a.lttr";
    writeTraceFile(path, bytes);

    // A byte-identical copy under another name keys identically...
    std::string copy = dir_ + "/renamed_copy.lttr";
    writeTraceFile(copy, bytes);
    std::string idA = workloadIdentity("trace:" + path);
    EXPECT_EQ(idA, workloadIdentity("trace:" + copy));
    EXPECT_NE(idA.find("trace/paper_loop@crc32:"), std::string::npos);

    // ...while a re-recording with another seed does not.
    info.seed = 4;
    std::string other = dir_ + "/b.lttr";
    writeTraceFile(other, recordTrace(info));
    EXPECT_NE(idA, workloadIdentity("trace:" + other));
}

// ---------------------------------------------------------------------------
// Store / lookup round-trip
// ---------------------------------------------------------------------------

TEST_F(CacheTest, RoundTripIsBitIdenticalForEverySuiteKernel)
{
    ResultCache cache(dir_);
    SimConfig cfg = SimConfig::baseline().withSeed(1);
    for (const std::string &kernel : allKernelNames()) {
        Metrics fresh = Simulator::runOnce(cfg, kernel, tiny());
        CellKey key = cellKeyFor(cfg, kernel, tiny());
        cache.store(key, cfg, tiny(), fresh);

        Metrics cached;
        ASSERT_TRUE(cache.lookup(key, &cached)) << kernel;
        EXPECT_EQ(metricsToJson(cached), metricsToJson(fresh))
            << "cache round-trip changed bits for " << kernel;
    }
    EXPECT_EQ(cache.stats().entries, allKernelNames().size());
}

TEST_F(CacheTest, FutureSchemaVersionsReadAsMisses)
{
    ResultCache cache(dir_);
    SimConfig cfg = SimConfig::baseline();
    Metrics m = Simulator::runOnce(cfg, "paper_loop", tiny());
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    cache.store(key, cfg, tiny(), m);
    ASSERT_TRUE(cache.lookup(key, nullptr));

    // Bump the embedded Metrics schemaVersion past what this reader
    // supports: the entry must degrade to a miss, not a crash, and gc
    // must collect it.
    std::vector<CacheEntryInfo> entries = cache.list();
    ASSERT_EQ(entries.size(), 1u);
    std::string path = dir_ + "/" + key.hex.substr(0, 2) + "/" +
                       key.hex.substr(2, 2) + "/" + key.hex + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::string needle =
        "\"schemaVersion\": " + std::to_string(kMetricsSchemaVersion);
    auto at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(),
                 "\"schemaVersion\": " +
                     std::to_string(kMetricsSchemaVersion + 1));
    std::ofstream(path, std::ios::trunc) << text;

    EXPECT_FALSE(cache.lookup(key, nullptr));
    EXPECT_EQ(cache.stats().invalid, 1u);
    EXPECT_EQ(cache.gc(), 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(CacheTest, OnlyHexDigestKeysReachTheDisk)
{
    // The cache lives three levels down, so even "../../escaped" would
    // land inside dir_; every bad key below is a miss on lookup and
    // writes nothing on store, anywhere.
    std::string dir = dir_ + "/x/y/cache";
    ResultCache cache(dir);
    SimConfig cfg = SimConfig::baseline();
    Metrics m;
    m.ipc = 1.0;
    std::string good = cellKeyFor(cfg, "paper_loop", tiny()).hex;
    std::string upper = good;
    for (char &c : upper)
        c = char(std::toupper(static_cast<unsigned char>(c)));
    for (const std::string &bad :
         {std::string("../../escaped"), std::string(""), good.substr(1),
          good + "0", upper, "/" + good.substr(1),
          good.substr(0, 63) + "g"}) {
        CellKey key{bad, "paper_loop"};
        cache.store(key, cfg, tiny(), m);
        EXPECT_FALSE(cache.lookup(key, nullptr)) << bad;
    }
    EXPECT_FALSE(std::filesystem::exists(dir_));

    cache.store(CellKey{good, "paper_loop"}, cfg, tiny(), m);
    EXPECT_TRUE(cache.lookup(CellKey{good, "paper_loop"}, nullptr));
}

TEST(MetricsSchema, ReaderRejectsNewerVersions)
{
    Metrics m = Simulator::runOnce(SimConfig::baseline(), "paper_loop",
                                   tiny());
    std::string json = metricsToJson(m);
    // Round-trips at the current version...
    EXPECT_EQ(metricsToJson(metricsFromJson(json)), json);

    // ...and refuses anything newer, naming the supported range.
    std::string needle =
        "\"schemaVersion\": " + std::to_string(kMetricsSchemaVersion);
    auto at = json.find(needle);
    ASSERT_NE(at, std::string::npos);
    json.replace(at, needle.size(),
                 "\"schemaVersion\": " +
                     std::to_string(kMetricsSchemaVersion + 1));
    EXPECT_THROW(metricsFromJson(json), std::runtime_error);
}

// ---------------------------------------------------------------------------
// CachedBackend + Runner
// ---------------------------------------------------------------------------

TEST_F(CacheTest, CachedBackendHitsOnSecondRun)
{
    auto cache = std::make_shared<ResultCache>(dir_);
    CachedBackend backend(LocalBackend::instance(), cache);

    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());

    CellResult first = backend.runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_FALSE(first.cacheHit);
    CellResult second =
        backend.runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(metricsToJson(first.metrics),
              metricsToJson(second.metrics));
    EXPECT_EQ(backend.hits(), 1u);
    EXPECT_EQ(backend.misses(), 1u);
}

TEST_F(CacheTest, WarmSweepAnswersEveryCellFromCache)
{
    SweepSpec spec = SweepSpec::cross(
        "warm_sweep",
        {SimConfig::baseline().withName("base"),
         SimConfig::baseline().withIq(32).withName("iq32")},
        {"paper_loop", "graph_walk"}, tiny());

    auto runOnce = [&]() {
        // A fresh backend per run: only the on-disk cache persists.
        auto backend = std::make_shared<CachedBackend>(
            LocalBackend::instance(),
            std::make_shared<ResultCache>(dir_));
        return Runner(2, backend).run(spec);
    };

    SweepResult cold = runOnce();
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.backend, "cache(local)");

    SweepResult warm = runOnce();
    EXPECT_EQ(warm.cacheHits, warm.simulations);
    for (const std::string &row : cold.grid.rows())
        for (const std::string &series : cold.grid.series(row))
            EXPECT_EQ(metricsToJson(warm.grid.at(row, series)),
                      metricsToJson(cold.grid.at(row, series)))
                << row << "/" << series;
}

TEST_F(CacheTest, NeverCorruptsResultsUnderConcurrentWriters)
{
    // Two Runners racing on the same fresh cache directory: atomic
    // rename publication means every lookup afterwards sees a whole,
    // valid entry (last writer wins; both wrote identical bytes).
    SweepSpec spec = SweepSpec::cross(
        "race", {SimConfig::baseline().withName("base")},
        allKernelNames(), tiny());

    auto mk = [&]() {
        return std::make_shared<CachedBackend>(
            LocalBackend::instance(),
            std::make_shared<ResultCache>(dir_));
    };
    std::thread other([&]() { Runner(2, mk()).run(spec); });
    Runner(2, mk()).run(spec);
    other.join();

    ResultCache cache(dir_);
    EXPECT_EQ(cache.stats().invalid, 0u);
    EXPECT_EQ(cache.stats().entries, allKernelNames().size());
}

} // namespace
