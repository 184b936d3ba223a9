/**
 * @file
 * The `ltp serve` daemon and its client backend, in-process: an
 * ephemeral-port Server plus ServeBackend exercising the whole wire
 * protocol — run cells (metrics identical to local execution), cache
 * hits on re-request, in-flight dedupe, control RPCs, and error
 * propagation for malformed work.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/cell_key.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

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

/** One daemon on an ephemeral port + scratch cache dir per test. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cacheDir_ =
            (std::filesystem::temp_directory_path() /
             ("ltp_serve_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
        std::filesystem::remove_all(cacheDir_);

        ServeOptions opts;
        opts.port = 0; // ephemeral: tests never collide on a port
        opts.threads = 4;
        opts.cacheDir = cacheDir_;
        opts.quiet = true;
        server_ = std::make_unique<Server>(opts);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
        server_.reset();
        std::error_code ec;
        std::filesystem::remove_all(cacheDir_, ec);
    }

    std::unique_ptr<ServeBackend>
    connect()
    {
        return std::make_unique<ServeBackend>("127.0.0.1",
                                              server_->port());
    }

    std::string cacheDir_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingReportsProtocolVersion)
{
    auto client = connect();
    JsonValue reply = client->rpc("ping");
    ASSERT_TRUE(reply.isObject());
    EXPECT_EQ(reply.object.at("type").str, "pong");
    EXPECT_EQ(std::uint64_t(reply.object.at("version").num),
              std::uint64_t(kServeProtocolVersion));
}

TEST_F(ServeTest, ServedMetricsMatchLocalExecution)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline().withSeed(3);
    CellKey key = cellKeyFor(cfg, "graph_walk", tiny());

    CellResult served =
        client->runCell(key, cfg, "graph_walk", tiny(), SamplePlan{});
    EXPECT_FALSE(served.cacheHit);

    Metrics local = Simulator::runOnce(cfg, "graph_walk", tiny());
    EXPECT_EQ(metricsToJson(served.metrics), metricsToJson(local));
}

TEST_F(ServeTest, SecondRequestIsACacheHit)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());

    CellResult first = client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_FALSE(first.cacheHit);
    // Same cell again — answered from the daemon's cache, even from a
    // brand-new connection.
    CellResult again = client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_TRUE(again.cacheHit);
    auto fresh = connect();
    CellResult other = fresh->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_TRUE(other.cacheHit);
    EXPECT_EQ(metricsToJson(first.metrics),
              metricsToJson(other.metrics));
}

TEST_F(ServeTest, ConcurrentIdenticalCellsComputeOnce)
{
    // Hammer one cell from many client threads at once: whichever
    // requests overlap must dedupe onto a single computation, and
    // every response must carry identical metrics.  (hit || deduped
    // is not asserted per-response because the first wave may all
    // arrive before the cell finishes — the stats RPC gives the
    // ground truth: exactly one compute.)
    SimConfig cfg = SimConfig::baseline().withSeed(11);
    CellKey key = cellKeyFor(cfg, "linked_list", tiny());

    constexpr int kClients = 6;
    std::vector<std::string> results(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([this, i, &results, &cfg, &key]() {
            ServeBackend client("127.0.0.1", server_->port());
            results[size_t(i)] = metricsToJson(
                client.runCell(key, cfg, "linked_list", tiny(), SamplePlan{})
                    .metrics);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(results[size_t(i)], results[0]);

    auto client = connect();
    JsonValue stats = client->rpc("stats");
    EXPECT_EQ(std::uint64_t(stats.object.at("computed").num), 1u)
        << "identical concurrent cells were re-simulated";
}

TEST_F(ServeTest, RunnerSweepOverServeMatchesLocal)
{
    SweepSpec spec = SweepSpec::cross(
        "serve_sweep",
        {SimConfig::baseline().withName("base"),
         SimConfig::baseline().withIq(32).withName("iq32")},
        {"paper_loop", "graph_walk"}, tiny());

    SweepResult local = Runner(1).run(spec);
    SweepResult served =
        Runner(2, std::make_shared<ServeBackend>(
                      "127.0.0.1", server_->port()))
            .run(spec);
    EXPECT_EQ(served.backend, "serve");
    EXPECT_EQ(served.cacheHits, 0u);

    for (const std::string &row : local.grid.rows())
        for (const std::string &series : local.grid.series(row))
            EXPECT_EQ(metricsToJson(served.grid.at(row, series)),
                      metricsToJson(local.grid.at(row, series)))
                << row << "/" << series;

    // The whole sweep again: every cell comes back as a hit.
    SweepResult warm =
        Runner(2, std::make_shared<ServeBackend>(
                      "127.0.0.1", server_->port()))
            .run(spec);
    EXPECT_EQ(warm.cacheHits, warm.simulations);
}

TEST_F(ServeTest, ServerStreamsProgressFrames)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    for (int i = 0; i < 3; ++i) {
        SimConfig c = cfg;
        c.seed = std::uint64_t(100 + i);
        client->runCell(cellKeyFor(c, "paper_loop", tiny()), c,
                        "paper_loop", tiny(), SamplePlan{});
    }
    // One {done,total,hits} push per completed cell.
    EXPECT_EQ(client->progressFrames(), 3u);
}

TEST_F(ServeTest, UnknownWorkloadComesBackAsError)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    EXPECT_THROW(
        client->runCell(key, cfg, "no_such_kernel_anywhere", tiny(), SamplePlan{}),
        std::runtime_error);
    // The connection survives a failed cell.
    EXPECT_NO_THROW(client->rpc("ping"));
}

TEST_F(ServeTest, ZeroUnitCountComesBackAsErrorNamingTheField)
{
    // Built in C++, the config bypasses applyOverride's check: only the
    // daemon's configFromJson stands between it and the FU pool.
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    cfg.core.fu.ld = 0;
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    try {
        client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
        ADD_FAILURE() << "a core with no load units was simulated";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("core.fu.ld"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_NO_THROW(client->rpc("ping"));
}

/** Send @p frame (stamped with id 1) on a fresh raw connection and
 *  return the reply, skipping progress pushes. */
JsonValue
rawCall(int port, JsonValue frame)
{
    frame.object["id"] = jsonU64(1);
    LineConn conn(connectTcp("127.0.0.1", port));
    conn.writeFrame(frame);
    std::string line;
    while (conn.readLine(line)) {
        JsonValue reply = parseJson(line);
        if (reply.object.count("id"))
            return reply;
    }
    ADD_FAILURE() << "connection closed without a reply";
    return {};
}

/** A `run` frame for @p workload under @p cfg carrying @p key. */
JsonValue
runFrameWithKey(const std::string &key, const SimConfig &cfg,
                const std::string &workload)
{
    JsonValue frame = objectFrame("run");
    frame.object["key"] = jsonStr(key);
    frame.object["workload"] = jsonStr(workload);
    frame.object["config"] = parseJson(configToJson(cfg));
    frame.object["lengths"] = lengthsJson(tiny());
    return frame;
}

TEST_F(ServeTest, ForgedKeyCannotPoisonAnotherCell)
{
    // A frame pairing paper_loop/baseline's key with another cell's
    // work must not make that work the answer for paper_loop/baseline.
    SimConfig honest = SimConfig::baseline();
    CellKey key = cellKeyFor(honest, "paper_loop", tiny());
    JsonValue forged = rawCall(
        server_->port(),
        runFrameWithKey(key.hex, SimConfig::ltpProposal(), "linked_list"));
    ASSERT_EQ(forged.object.at("type").str, "result");

    auto client = connect();
    CellResult r =
        client->runCell(key, honest, "paper_loop", tiny(), SamplePlan{});
    EXPECT_FALSE(r.cacheHit);
    EXPECT_EQ(metricsToJson(r.metrics),
              metricsToJson(Simulator::runOnce(honest, "paper_loop", tiny())));
}

TEST_F(ServeTest, PathEscapingKeyWritesNothingOutsideTheCache)
{
    // A daemon whose cache sits three levels below this test's scratch
    // directory, and a key that would climb out of it.
    namespace fs = std::filesystem;
    std::string cache = cacheDir_ + "/a/b/cache";
    ServeOptions opts;
    opts.port = 0;
    opts.threads = 2;
    opts.cacheDir = cache;
    opts.quiet = true;
    Server daemon(opts);
    daemon.start();

    const std::string key = "../../escaped";
    fs::path target = fs::weakly_canonical(
        cache + "/" + key.substr(0, 2) + "/" + key.substr(2, 2) + "/" +
        key + ".json");
    ASSERT_EQ(target, fs::weakly_canonical(cacheDir_ + "/escaped.json"));

    JsonValue run = rawCall(
        daemon.port(),
        runFrameWithKey(key, SimConfig::baseline(), "paper_loop"));
    EXPECT_EQ(run.object.at("type").str, "result");
    JsonValue lookup = objectFrame("lookup");
    lookup.object["key"] = jsonStr(key);
    JsonValue found = rawCall(daemon.port(), lookup);
    EXPECT_FALSE(found.object.at("found").boolean);
    daemon.stop();

    EXPECT_FALSE(fs::exists(target));
    // The one result went under its derived key, inside the cache.
    std::size_t outside = 0, inside = 0;
    for (const auto &e : fs::recursive_directory_iterator(cacheDir_))
        if (e.is_regular_file())
            (e.path().string().rfind(cache + "/", 0) == 0 ? inside
                                                         : outside) += 1;
    EXPECT_EQ(inside, 1u);
    EXPECT_EQ(outside, 0u);
}

// ---------------------------------------------------------------------------
// Transport robustness: a daemon that is absent or hung must fail the
// request with an error naming the server, never block forever.
// ---------------------------------------------------------------------------

TEST(ServeClientRobustnessTest, HungDaemonTimesOutNamingTheServer)
{
    // A "daemon" that accepts the connection and then never says
    // another byte — the pathology that used to wedge a whole sweep
    // inside a blocking recv().
    Listener listener(0);
    std::thread acceptor([&listener]() {
        int fd = listener.accept();
        // Hold the connection open, silently, until the test is done.
        if (fd >= 0) {
            char c;
            while (::recv(fd, &c, 1, 0) > 0) {
            }
            ::close(fd);
        }
    });

    {
        ServeClientOptions opts;
        opts.replyTimeoutMs = 300;
        ServeBackend client("127.0.0.1", listener.port(), opts);
        try {
            client.rpc("ping");
            FAIL() << "rpc against a silent daemon must not return";
        } catch (const std::runtime_error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("127.0.0.1:" +
                               std::to_string(listener.port())),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("silence"), std::string::npos) << msg;
        }
        // Destroying the client closes its socket, which is what ends
        // the acceptor's recv() loop — join only after that.
    }
    listener.close();
    acceptor.join();
}

TEST(ServeClientRobustnessTest, UnreachableDaemonFailsAfterBoundedRetry)
{
    // Grab an ephemeral port and close it again: connecting there is
    // refused, so every bounded attempt fails fast.
    int dead_port;
    {
        Listener probe(0);
        dead_port = probe.port();
    }

    ServeClientOptions opts;
    opts.connectTimeoutMs = 200;
    opts.connectAttempts = 2;
    opts.connectRetryDelayMs = 10;
    try {
        ServeBackend client("127.0.0.1", dead_port, opts);
        FAIL() << "connect to a closed port must throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("2 attempt(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("127.0.0.1:" + std::to_string(dead_port)),
                  std::string::npos)
            << msg;
    }
}

TEST(LineConnTest, MultiMegabyteLineThenShortLineArriveIntact)
{
    // A whole-scenario frame can run to megabytes; readLine must hand
    // it back intact (and without rescanning its buffer per recv), and
    // the short line behind it must not be lost or merged.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineConn reader(fds[0]);
    LineConn writer(fds[1]);

    std::string big(4u << 20, 'x');
    for (std::size_t i = 0; i < big.size(); i += 4093)
        big[i] = char('a' + i % 26);
    std::thread sender([&writer, &big]() {
        EXPECT_TRUE(writer.writeLine(big));
        EXPECT_TRUE(writer.writeLine("short"));
    });

    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(line.size(), big.size());
    EXPECT_TRUE(line == big);
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(line, "short");
    sender.join();
}

TEST_F(ServeTest, ProgressTrafficKeepsASlowRequestAlive)
{
    // The timeout measures *silence*, not latency: a cell that takes
    // longer than replyTimeoutMs must still succeed as long as the
    // server streams anything (progress, other results) meanwhile.
    auto client = connect();
    ServeClientOptions opts;
    opts.replyTimeoutMs = 150;
    ServeBackend slow("127.0.0.1", server_->port(), opts);

    // Pinging through `slow` while the server answers keeps traffic
    // flowing; the real run below finishes well within one silence
    // window per frame on this workload, proving normal operation is
    // unaffected by a tight timeout.
    SimConfig cfg = SimConfig::baseline();
    cfg.seed = 11;
    CellResult r = slow.runCell(CellKey{}, cfg, "paper_loop", tiny(),
                                SamplePlan{});
    EXPECT_GT(r.metrics.ipc, 0.0);
}

TEST_F(ServeTest, StatsCountsRequestsAndShutdownStopsTheServer)
{
    auto client = connect();
    client->rpc("ping");
    JsonValue stats = client->rpc("stats");
    EXPECT_GE(std::uint64_t(stats.object.at("requests").num), 2u);
    EXPECT_EQ(stats.object.at("cacheDir").str, cacheDir_);

    JsonValue ok = client->rpc("shutdown");
    EXPECT_EQ(ok.object.at("type").str, "ok");
    server_->waitForShutdown(); // returns promptly after the RPC
}

} // namespace
