/**
 * @file
 * perfbench: the whole-stack benchmark program.  Generates one
 * workload's scenario from --seed, runs it scenario → ResultGrid
 * through the public ltp_core API for --seconds, checks the outputs,
 * and prints every metric by name with its unit.  The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}; end-to-end metrics with --trace 0, per-layer metrics
 * (from the traced run) with --trace 1.  Usually started through
 * run.py, which builds this binary first.  See README.md.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster.hh"
#include "common/json.hh"
#include "sim/cell_key.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "study.hh"
#include "trace.hh"

namespace perfbench {
namespace {

using namespace ltp;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;  ///< smoke-test sizes
    bool tamper = false; ///< corrupt the served grid (smoke test)
    std::string gitCommit = "unknown";
};

/** Stamped results, traces and the daemons' cache directories. */
const std::string kOutDir = ".bench_out";

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--small] "
                 "[--tamper] [--git-commit <sha>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(value());
            } else if (a == "--seconds") {
                o.seconds = std::stod(value());
            } else if (a == "--trace") {
                std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                o.trace = t == "1";
            } else if (a == "--small") {
                o.small = true;
            } else if (a == "--tamper") {
                o.tamper = true;
            } else if (a == "--git-commit") {
                o.gitCommit = value();
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

int
cpuCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "g++ " __VERSION__;
#else
    return "unknown";
#endif
}

double
seconds(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** CPU time used so far by every thread of this process, the in-process
 *  serve daemons included.  Under paravirtual steal accounting it
 *  leaves out time the hypervisor gave to other guests. */
double
processCpuS()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/**
 * The host-speed reference: a fixed loop of random read-modify-writes
 * over a 2 MiB table (misses in L2, hits in the L3 that other tenants
 * share), in thread CPU seconds.  On a shared host the CPU time of the
 * same pass drifts by a fifth to a third over minutes with cache and
 * memory contention from other tenants; this loop drifts with it,
 * while no change to the program can move it.
 */
double
referenceCpuS()
{
    static std::vector<std::uint64_t> table(std::size_t(1) << 18);
    auto thread_cpu_s = [] {
        timespec ts;
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
    };
    double t0 = thread_cpu_s();
    std::uint64_t x = 1;
    for (int i = 0; i < 3000000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        table[(x >> 40) & (table.size() - 1)] += x;
    }
    double t = thread_cpu_s() - t0;
    volatile std::uint64_t sink = x + table[0];
    (void)sink;
    return t;
}

/** referenceCpuS() on the reference host (a quiet 4-vCPU Xeon VM).
 *  Gated times are scaled to that host's speed. */
constexpr double kReferenceCpuS = 0.0068;

/** Wall and process CPU time since construction. */
class PassTimer
{
  public:
    PassTimer() : wall_(Clock::now()), cpu_(processCpuS()) {}
    double wallS() const { return seconds(wall_); }
    double cpuS() const { return processCpuS() - cpu_; }

  private:
    Clock::time_point wall_;
    double cpu_;
};

/**
 * The timed passes (or set-up batches) of one kind in one run.  CPU
 * time is what is gated: on a shared host the wall time of the same
 * pass drifts by a third from minute to minute, mostly as waiting
 * (steal, scheduling delay) that CPU time leaves out.  Wall time is
 * printed beside it.
 */
class PassLog
{
  public:
    void
    add(double wall_s, double cpu_s)
    {
        wall_.push_back(wall_s);
        cpu_.push_back(cpu_s);
    }

    double wallMedian() const { return median(wall_); }
    double cpuMedian() const { return median(cpu_); }
    double wallSum() const { return sum(wall_); }

  private:
    std::vector<double> wall_, cpu_;
};

/** The highest percentile with at least ten samples above it. */
struct Tail
{
    double value = 0, percentile = 100;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    if (v.size() <= 10) { // no percentile has ten samples above it
        t.value = v.back();
        return t;
    }
    t.value = v[v.size() - 11];
    t.percentile = 100.0 * double(v.size() - 10) / double(v.size());
    return t;
}

std::uint64_t
statU64(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    std::uint64_t out = 0;
    if (it != obj.object.end() && it->second.isNumber())
        u64FromLexeme(it->second.str, &out);
    return out;
}

/** Frontend counters moved by one pass (stats after − before). */
struct ServeDelta
{
    std::uint64_t requests = 0, computed = 0, cacheHits = 0, deduped = 0,
                  peerHits = 0, dispatched = 0, retried = 0, failed = 0;
    double imbalance = 0; ///< max / mean cells dispatched per worker
};

ServeDelta
serveDelta(const JsonValue &before, const JsonValue &after)
{
    ServeDelta d;
    auto delta = [&](const JsonValue &a, const JsonValue &b,
                     const char *k) { return statU64(b, k) - statU64(a, k); };
    d.requests = delta(before, after, "requests");
    d.computed = delta(before, after, "computed");
    d.cacheHits = delta(before, after, "cacheHits");
    d.deduped = delta(before, after, "deduped");
    d.peerHits = delta(before, after, "peerHits");
    const auto &wb = before.object.at("workers").array;
    const auto &wa = after.object.at("workers").array;
    std::vector<double> per_worker;
    for (std::size_t i = 0; i < wa.size() && i < wb.size(); ++i) {
        std::uint64_t n = delta(wb[i], wa[i], "dispatched");
        d.dispatched += n;
        d.retried += delta(wb[i], wa[i], "retried");
        d.failed += delta(wb[i], wa[i], "failed");
        per_worker.push_back(double(n));
    }
    double mean = per_worker.empty() ? 0 : sum(per_worker) / per_worker.size();
    if (mean > 0)
        d.imbalance =
            *std::max_element(per_worker.begin(), per_worker.end()) / mean;
    return d;
}

/** Per-cell layer metrics (µs, median over cells) and their spans. */
const std::pair<const char *, const char *> kCellLayerSpans[] = {
    {"sim.cell_key.us", "sim.cell_key"},
    {"sim.result_cache.hit_us", "sim.result_cache.lookup_hit"},
    {"sim.result_cache.miss_us", "sim.result_cache.lookup_miss"},
    {"sim.result_cache.store_us", "sim.result_cache.store"},
    {"sim.report.metrics_json_us", "sim.report.metrics_json"},
};

/** One reported metric. */
struct Metric
{
    std::string name, unit;
    double value;
};

/** Everything one benchmark process measures and checks. */
class Bench
{
  public:
    explicit Bench(const Options &opt)
        : opt_(opt), nproc_(cpuCount()),
          def_(makeStudy(opt.workload, opt.seed, opt.small)),
          tracer_(opt.trace ? std::make_unique<Tracer>() : nullptr),
          clusterDir_(kOutDir + "/served-" + std::to_string(::getpid()))
    {
    }

    ~Bench()
    {
        cluster_.reset();
        std::error_code ec;
        std::filesystem::remove_all(clusterDir_, ec);
    }

    int
    run()
    {
        note("workload " + def_.workload + ", seed " +
             std::to_string(opt_.seed) + ", " + std::to_string(nproc_) +
             " thread(s), " + (opt_.trace ? "traced" : "untraced"));
        note("meta " + writeJsonCompact(parseJson(meta())));
        try {
            cluster_ = setupOnce(clusterDir_);
            if (opt_.trace)
                traced();
            else
                measure();
        } catch (const std::exception &e) {
            problem(std::string("run aborted: ") + e.what());
        }
        return report();
    }

  private:
    // ---- helpers -------------------------------------------------------

    void note(const std::string &line) { std::printf("# %s\n", line.c_str()); }

    void
    problem(const std::string &what)
    {
        problems_.push_back(what);
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }

    void add(const std::string &name, const std::string &unit, double v)
    {
        metrics_.push_back(Metric{name, unit, v});
    }

    std::string
    meta() const
    {
        JsonObjectBuilder m;
        m.str("workload", def_.workload);
        m.u64("seed", opt_.seed);
        m.u64("nproc", std::uint64_t(nproc_));
        m.str("compiler", compilerName());
        m.str("build_type", PERFBENCH_BUILD_TYPE);
        m.str("git_commit", opt_.gitCommit);
        m.boolean("small", opt_.small);
        return m.render(0);
    }

    /** Structural checks plus the model digest: every pass of every
     *  rep, at every thread count, must simulate the same thing. */
    void
    checkGrid(const std::string &what, const ResultGrid &grid)
    {
        std::string p = gridProblem(spec_, grid);
        if (!p.empty()) {
            problem(what + ": " + p);
            return;
        }
        std::string d = modelDigest(grid);
        if (digest_.empty())
            digest_ = d;
        else if (d != digest_)
            problem(what + ": model digest " + d.substr(0, 16) +
                    " differs from " + digest_.substr(0, 16));
    }

    void
    countPass(const std::string &what, double wall_s, double cpu_s,
              const WorkCounts &w, const ServeDelta *served)
    {
        std::string line = what + ": " + jsonNum(wall_s) + " s  cpu=" +
                           jsonNum(cpu_s) +
                           " s  cells=" + std::to_string(w.cells) +
                           " cycles=" + std::to_string(w.cycles) +
                           " detail_insts=" + std::to_string(w.detailInsts) +
                           " ff_insts=" + std::to_string(w.ffInsts);
        if (served)
            line += " computed=" + std::to_string(served->computed) +
                    " cached=" +
                    std::to_string(served->cacheHits - served->peerHits) +
                    " peer=" + std::to_string(served->peerHits) +
                    " requests=" + std::to_string(served->requests);
        note(line);
    }

    // ---- set-up --------------------------------------------------------

    /** One set-up: scenario generation and compile, plus the daemons'
     *  bind/start/connect in @p dir for served_study. */
    std::unique_ptr<Cluster>
    setupOnce(const std::string &dir)
    {
        SpanScope span(tracer_.get(), "setup");
        def_ = makeStudy(opt_.workload, opt_.seed, opt_.small);
        {
            SpanScope c(tracer_.get(), "sim.scenario.compile");
            spec_ = scenarioFromJson(def_.scenario).compile(1);
        }
        if (!def_.served)
            return nullptr;
        return std::make_unique<Cluster>(dir, nproc_, tracer_.get());
    }

    /**
     * One setup_s sample: the mean wall and CPU time of a batch of
     * set-ups.  A local set-up (~40 µs) is too short to time alone,
     * so a batch holds 100; a served batch is one set-up (~2 ms) of
     * spare daemons, stopped outside the timing.  Each iteration times
     * one batch, so the median spans the run the way the passes do.
     */
    void
    timeSetup()
    {
        const int per_batch = def_.served ? 1 : 100;
        std::unique_ptr<Cluster> spare;
        PassTimer timer;
        for (int i = 0; i < per_batch; ++i)
            spare = setupOnce(clusterDir_ + "/setup");
        setup_.add(timer.wallS() / per_batch, timer.cpuS() / per_batch);
    }

    /** Per-cell latencies of one iteration: the median and the tail,
     *  and every latency for the run's pooled figures. */
    void
    addCellLatencies(const TimedBackend &timed)
    {
        std::vector<double> ms;
        for (const TimedBackend::Cell &c : timed.cells())
            ms.push_back(c.ms);
        cellP50_.push_back(median(ms));
        cellTail_ = tailOf(ms);
        cellTails_.push_back(cellTail_.value);
        cellMs_.insert(cellMs_.end(), ms.begin(), ms.end());
    }

    std::string
    cellLatencyNote() const
    {
        return "cell_ms_p50=" + jsonNum(median(cellP50_)) +
               " ms cell_ms_tail=" + jsonNum(median(cellTails_)) +
               " ms (wall; tail = p" + jsonNum(cellTail_.percentile) +
               " of " + std::to_string(cellTail_.samples) +
               " cells per iteration; medians of " +
               std::to_string(cellP50_.size()) + " iterations)";
    }

    // ---- passes --------------------------------------------------------

    /** Structural checks, the model digest and the attempted count of
     *  a finished pass. */
    SweepResult
    checked(const std::string &what, SweepResult r)
    {
        checkGrid(what, r.grid);
        attempted_ += r.simulations;
        return r;
    }

    SweepResult
    runPass(const std::string &what, ExecBackendPtr backend, int threads)
    {
        return checked(what, Runner(threads, std::move(backend)).run(spec_));
    }

    /**
     * One timed pass: @p body's wall and CPU time go to @p log (when
     * given), its grid is checked, and its work counts are printed
     * beside the wall time.  On served_study the frontend's counters
     * moved by the pass (stats before and after, outside the timing)
     * are printed too and returned through @p served.
     */
    SweepResult
    timedPass(const std::string &what, PassLog *log,
              const std::function<SweepResult()> &body,
              ServeDelta *served = nullptr)
    {
        JsonValue before = def_.served ? cluster_->stats() : JsonValue();
        PassTimer timer;
        SweepResult r = body();
        double wall_s = timer.wallS(), cpu_s = timer.cpuS();
        if (log)
            log->add(wall_s, cpu_s);
        r = checked(what, std::move(r));
        ServeDelta d;
        if (def_.served) {
            d = serveDelta(before, cluster_->stats());
            if (served)
                *served = d;
        }
        countPass(what, wall_s, cpu_s, workCounts(spec_, r.grid),
                  def_.served ? &d : nullptr);
        return r;
    }

    /** A study pass through @p backend on every simulation thread. */
    SweepResult
    studyPass(const std::string &what, PassLog *log, ExecBackendPtr backend,
              ServeDelta *served = nullptr)
    {
        return timedPass(
            what, log, [&] { return Runner(nproc_, backend).run(spec_); },
            served);
    }

    /** A served pass that must be answered from caches alone. */
    SweepResult
    servedWarm(const std::string &what, PassLog *log,
               ServeDelta *served = nullptr)
    {
        SweepResult r = studyPass(what, log, cluster_->client(), served);
        if (r.cacheHits != r.simulations)
            problem(what + ": " + std::to_string(r.cacheHits) + "/" +
                    std::to_string(r.simulations) + " cache hits");
        return r;
    }

    /** The whole scenario in one `scenario` frame, warm. */
    void
    servedSubmit(const std::string &what, const ResultGrid &reference,
                 PassLog *log)
    {
        SweepResult r = timedPass(what, log, [&] {
            SpanScope span(tracer_.get(), "serve.submit");
            return cluster_->client()->submitScenario(
                parseJson(def_.scenario));
        });
        if (r.cacheHits != r.simulations)
            problem(what + ": " + std::to_string(r.cacheHits) + "/" +
                    std::to_string(r.simulations) + " cache hits");
        std::string diff = gridDifference(r.grid, reference);
        if (!diff.empty())
            problem(what + ": submitted grid differs from run frames: " +
                    diff);
    }

    // ---- untraced measurement ------------------------------------------

    void
    measure()
    {
        PassLog study, warm, submit;
        std::vector<double> reference; // referenceCpuS(), one per iteration
        double peak_rss_mb = 0;
        ResultGrid first;
        WorkCounts work;
        auto start = Clock::now();
        int iter = 0;
        while (iter == 0 || seconds(start) < opt_.seconds) {
            iter += 1;
            std::string tag = " #" + std::to_string(iter);
            reference.push_back(referenceCpuS());
            timeSetup();
            auto timed = std::make_shared<TimedBackend>(
                def_.served ? ExecBackendPtr(cluster_->client())
                            : LocalBackend::instance(),
                def_.served ? "serve" : "local", nullptr);
            if (def_.served)
                cluster_->clearCaches();
            std::string what = (def_.served ? "cold" : "study") + tag;
            SweepResult r = studyPass(what, &study, timed);
            if (def_.served && r.cacheHits != 0)
                problem(what + " hit a cache");
            work = workCounts(spec_, r.grid);
            if (iter == 1)
                first = std::move(r.grid);

            if (def_.served) {
                for (int k = 0; k < 3; ++k)
                    servedWarm("warm" + tag, &warm);
                for (int k = 0; k < 3; ++k)
                    servedSubmit("submit" + tag, first, &submit);
            } else {
                // The same study again in the warm process (no result
                // cache: every cell is recomputed).
                studyPass("warm" + tag, &warm, timed);
                // The whole scenario handed over in one call: text →
                // compile → grid.
                timedPass("submit" + tag, &submit, [&] {
                    SweepSpec spec =
                        scenarioFromJson(def_.scenario).compile(1);
                    return Runner(nproc_, timed).run(spec);
                });
            }
            addCellLatencies(*timed);
            failed_ += timed->failed();
            // What set-up and one round of passes cost a fresh process.
            // Later the peak keeps growing by a thread-timing-dependent
            // amount of allocator arena memory, and the serial reference
            // pass of verify() adds more.
            if (iter == 1)
                peak_rss_mb = peakRssMb();
        }
        verify(first);

        // Wall times: what a user waits, printed but not gated.
        note("iterations: " + std::to_string(iter));
        note("wall, not gated (medians): setup_s=" +
             jsonNum(setup_.wallMedian()) + " s study_s=" +
             jsonNum(study.wallMedian()) + " s warm_s=" +
             jsonNum(warm.wallMedian()) + " s submit_s=" +
             jsonNum(submit.wallMedian()) + " s kips=" +
             jsonNum(double(work.detailInsts) / study.wallMedian() / 1e3) +
             " kinst/s");
        note(cellLatencyNote());
        note("cpu, unscaled (medians): setup_s=" +
             jsonNum(setup_.cpuMedian()) + " s study_cpu_s=" +
             jsonNum(study.cpuMedian()) + " s warm_cpu_s=" +
             jsonNum(warm.cpuMedian()) + " s submit_cpu_s=" +
             jsonNum(submit.cpuMedian()) + " s");
        // Gated: CPU seconds at the reference host's speed.
        double scale = kReferenceCpuS / median(reference);
        note("host speed: reference loop " + jsonNum(median(reference)) +
             " cpu-s (reference host " + jsonNum(kReferenceCpuS) +
             "), median of " + std::to_string(reference.size()) +
             "; times scaled by " + jsonNum(scale));
        double study_cpu_s = study.cpuMedian() * scale;
        add("setup_s", "s", setup_.cpuMedian() * scale);
        add("study_cpu_s", "s", study_cpu_s);
        add("warm_cpu_s", "s", warm.cpuMedian() * scale);
        add("submit_cpu_s", "s", submit.cpuMedian() * scale);
        add("kips_cpu", "kinst/cpu-s",
            double(work.detailInsts) / study_cpu_s / 1e3);
        add("peak_rss_mb", "MB", peak_rss_mb);
        add("ltp_ipc_ratio", "ratio", ipcRatio(first, def_.ltp, def_.baseline));
        add("ltp_vs_shrink", "ratio", ipcRatio(first, def_.ltp, def_.shrink));
    }

    /**
     * Checks outside the timed window.  A local study is recomputed on
     * the serial path (one thread) and must give the same digest; a
     * served study is computed locally and must be byte-identical to
     * the served grid.
     */
    void
    verify(ResultGrid &served_or_first)
    {
        SweepResult ref =
            runPass("serial reference", LocalBackend::instance(), 1);
        if (!def_.served)
            return;
        if (opt_.tamper) {
            // Smoke test only: the served grid must then be refused.
            std::string row = served_or_first.rows().front();
            std::string series = served_or_first.series(row).front();
            Metrics m = served_or_first.at(row, series);
            m.ipc = std::nextafter(m.ipc, 1e9);
            served_or_first.put(row, series, m);
        }
        std::string diff = gridDifference(served_or_first, ref.grid);
        if (!diff.empty())
            problem("served grid is not byte-identical to the local "
                    "study: " +
                    diff);
    }

    static double
    peakRssMb()
    {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
    }

    // ---- traced run ----------------------------------------------------

    /**
     * The traced run: for --seconds, pairs of an untraced and a traced
     * study pass (their gap is the tracing overhead), then a probe pass
     * computing every cell in process with Simulator/Sampler spans.
     * served_study adds the warm pass, a peer pass (the frontend's
     * cache emptied, the workers' kept), the submit, pings, and spans
     * around the cell-key, result-cache and report layers.  Per-pass
     * numbers are means over the iterations.
     */
    void
    traced()
    {
        Tracer *t = tracer_.get();
        const std::string layer = def_.served ? "serve" : "local";
        ExecBackendPtr inner = def_.served ? ExecBackendPtr(cluster_->client())
                                           : LocalBackend::instance();
        std::string scratch = clusterDir_ + "/local-cache";
        PassLog untraced, traced;
        std::vector<double> gap;
        double busy_ms = 0, ff_pure_ms = 0;
        ServeDelta cold, warm, peer;
        WorkCounts work;
        ResultGrid grid;
        auto start = Clock::now();
        int iter = 0;
        while (iter == 0 || seconds(start) < opt_.seconds) {
            iter += 1;
            std::string tag = " #" + std::to_string(iter);
            timeSetup();
            if (def_.served)
                cluster_->clearCaches();
            auto plain = std::make_shared<TimedBackend>(inner, layer, nullptr);
            studyPass("untraced" + tag, &untraced, plain);
            addCellLatencies(*plain);
            failed_ += plain->failed();

            if (def_.served)
                cluster_->clearCaches();
            auto timed = std::make_shared<TimedBackend>(inner, layer, t);
            SweepResult r = studyPass(
                (def_.served ? "traced cold" : "traced study") + tag, &traced,
                timed, &cold);
            failed_ += timed->failed();
            work = workCounts(spec_, r.grid);
            for (const auto &c : timed->cells())
                busy_ms += c.ms;
            if (def_.served) {
                servedWarm("traced warm" + tag, nullptr, &warm);
                cluster_->clearFrontendCache();
                SweepResult p = servedWarm("traced peer" + tag, nullptr, &peer);
                if (peer.peerHits != p.simulations)
                    problem("traced peer" + tag + ": " +
                            std::to_string(peer.peerHits) + "/" +
                            std::to_string(p.simulations) + " peer hits");
                servedSubmit("traced submit" + tag, r.grid, nullptr);
                for (int i = 0; i < 20; ++i) {
                    SpanScope span(t, "serve.ping");
                    cluster_->client()->rpc("ping");
                }
            }

            // Local compute of every cell, with Simulator/Sampler spans;
            // on served_study it also goes through a (cold)
            // CachedBackend and is the byte-identity reference.
            auto probe = std::make_shared<TimedBackend>(
                std::make_shared<ProbeBackend>(t), "probe", t);
            ExecBackendPtr local = probe;
            if (def_.served) {
                ResultCache(scratch).clear();
                local = std::make_shared<TimedBackend>(
                    std::make_shared<CachedBackend>(
                        probe, std::make_shared<ResultCache>(scratch)),
                    "cache", t);
            }
            SweepResult ref = runPass("probe" + tag, local, nproc_);
            failed_ += probe->failed();
            ff_pure_ms += fastForwardMs(ref.grid);
            if (def_.served) {
                std::string diff = gridDifference(r.grid, ref.grid);
                if (!diff.empty())
                    problem("served grid is not byte-identical to the "
                            "local study: " +
                            diff);
                probeCellLayers(scratch);
                // Served cold latency minus local compute, cell by cell.
                std::map<std::string, double> local_ms;
                for (const auto &c : probe->cells())
                    local_ms[c.config + "\n" + c.workload] = c.ms;
                for (const auto &c : timed->cells())
                    gap.push_back(c.ms -
                                  local_ms[c.config + "\n" + c.workload]);
            }
            grid = std::move(r.grid);
        }

        const double n = iter;
        ModelStats ms = modelStats(grid, def_.ltp);
        double run_ns = 1e6 / n *
                        (spec_.sampling.enabled()
                             ? sum(t->durations("sample.detail"))
                             : sum(t->durations("sim.simulator.run")));
        // The `fast-forward` phase runs from its label to the `warmup`
        // label: the fast-forward itself, then the sample's set-up
        // (settle, Core construction, predictor restore).
        double ff_ms = ff_pure_ms / n;
        double ff_phase_ms = sum(t->durations("sample.ff")) / n;
        double traced_s = traced.cpuMedian(),
               untraced_s = untraced.cpuMedian();
        // An untraced study pass has only 21 cells on the local
        // workloads, too few for a tail, so the run's cells are pooled.
        Tail pooled = tailOf(cellMs_);
        note("iterations: " + std::to_string(iter));
        note("sim.runner.cell_ms_tail: p" + jsonNum(pooled.percentile) +
             " of " + std::to_string(pooled.samples) + " cells");

        add("cpu.host_ns_per_cycle", "ns", run_ns / double(work.cycles));
        add("cpu.host_ns_per_inst", "ns", run_ns / double(totalInsts(grid)));
        add("cpu.cpi", "cycles", ms.cpi);
        add("cpu.iq_occ", "entries", ms.iqOcc);
        add("cpu.rf_occ", "regs", ms.rfOcc);
        add("cpu.rob_occ", "entries", ms.robOcc);
        add("ltp.parked_per_kinst", "1/kinst", ms.parkedPerKinst);
        add("ltp.unparked_per_kinst", "1/kinst", ms.unparkedPerKinst);
        add("ltp.forced_unpark_frac", "frac", ms.forcedUnparkFrac);
        add("ltp.enabled_frac", "frac", ms.enabledFrac);
        add("ltp.llpred_accuracy", "frac", ms.llpredAccuracy);
        add("ltp.occ", "entries", ms.ltpOcc);
        add("mem.dram_reads_per_kinst", "1/kinst", ms.dramReadsPerKinst);
        add("mem.avg_load_latency_cycles", "cycles", ms.avgLoadLatency);
        add("mem.mlp", "reads", ms.mlp);
        add("sample.ff_ms", "ms", ff_ms);
        add("sample.ff_ns_per_op", "ns",
            work.ffInsts ? ff_ms * 1e6 / double(work.ffInsts) : 0.0);
        add("sample.setup_ms", "ms", ff_phase_ms - ff_ms);
        add("sample.warmup_ms", "ms", sum(t->durations("sample.warmup")) / n);
        add("sample.detail_ms", "ms", sum(t->durations("sample.detail")) / n);
        add("sample.ci95_rel", "frac", ms.ci95Rel);
        add("sim.scenario.compile_ms", "ms",
            median(t->durations("sim.scenario.compile")));
        add("sim.simulator.construct_ms", "ms",
            median(t->durations(spec_.sampling.enabled()
                                    ? "sample.construct"
                                    : "sim.simulator.construct")));
        add("sim.simulator.run_ms", "ms",
            median(t->durations(spec_.sampling.enabled()
                                    ? "sample.run"
                                    : "sim.simulator.run")));
        add("sim.runner.busy_frac", "frac",
            busy_ms / 1e3 / (double(nproc_) * traced.wallSum()));
        add("sim.runner.wall_s", "s", untraced.wallMedian());
        add("sim.runner.cell_ms_p50", "ms", median(cellMs_));
        add("sim.runner.cell_ms_tail", "ms", pooled.value);
        for (const auto &[metric, span] : kCellLayerSpans)
            add(metric, "us", 1e3 * median(t->durations(span)));
        add("serve.rtt_us", "us", 1e3 * median(t->durations("serve.ping")));
        add("serve.cell_overhead_ms", "ms", median(gap));
        add("serve.server.requests", "count", double(cold.requests));
        add("serve.server.computed", "count", double(cold.computed));
        add("serve.server.cache_hits", "count", double(warm.cacheHits));
        add("serve.server.deduped", "count", double(cold.deduped));
        add("serve.server.peer_hits", "count", double(peer.peerHits));
        add("serve.worker_pool.dispatched", "count", double(cold.dispatched));
        add("serve.worker_pool.retried", "count", double(cold.retried));
        add("serve.worker_pool.failed", "count", double(cold.failed));
        add("serve.worker_pool.imbalance", "ratio", cold.imbalance);
        add("work.cycles", "count", double(work.cycles));
        add("work.detail_insts", "count", double(work.detailInsts));
        add("work.ff_insts", "count", double(work.ffInsts));
        add("work.cells_computed", "count",
            double(def_.served ? cold.computed : work.cells));
        add("work.cells_cached", "count",
            double(warm.cacheHits - warm.peerHits));
        add("work.cells_peer", "count", double(peer.peerHits));
        add("trace.overhead_frac", "frac", traced_s / untraced_s - 1.0);
        note("tracing overhead: traced " + jsonNum(traced_s) +
             " cpu-s vs untraced " + jsonNum(untraced_s) + " cpu-s");
        writeTrace();
    }

    /** Host time spent fast-forwarding, by the Sampler's own clock:
     *  each cell's planned fast-forward instructions over its measured
     *  fast-forward rate (0 on a full-detail study). */
    static double
    fastForwardMs(const ResultGrid &grid)
    {
        double ms = 0;
        for (const std::string &row : grid.rows())
            for (const std::string &series : grid.series(row)) {
                const SamplingStats &s = grid.at(row, series).sampling;
                if (s.enabled() && s.ffKips > 0)
                    ms += double(s.samples) * double(s.fastForward) /
                          s.ffKips;
            }
        return ms;
    }

    static std::uint64_t
    totalInsts(const ResultGrid &grid)
    {
        std::uint64_t n = 0;
        for (const std::string &row : grid.rows())
            for (const std::string &series : grid.series(row))
                n += grid.at(row, series).insts;
        return n;
    }

    /** Time the cell-key, result-cache and report layers on every cell
     *  of the study, with the entries the probe pass stored in
     *  @p warm_dir as the hits. */
    void
    probeCellLayers(const std::string &warm_dir)
    {
        Tracer *t = tracer_.get();
        ResultCache warm(warm_dir);
        ResultCache empty(clusterDir_ + "/empty-cache");
        ResultCache fresh(clusterDir_ + "/store-cache");
        for (const SweepJob &job : spec_.jobs) {
            const std::string &wl = job.kernels.front();
            CellKey key;
            {
                SpanScope s(t, "sim.cell_key");
                key = cellKeyFor(job.cfg, wl, spec_.lengths, &spec_.sampling);
            }
            Metrics m;
            bool hit;
            {
                SpanScope s(t, "sim.result_cache.lookup_hit");
                hit = warm.lookup(key, &m);
            }
            if (!hit)
                problem("probe: cell (" + job.row + ", " + job.series +
                        ") missing from the warm cache");
            {
                SpanScope s(t, "sim.result_cache.lookup_miss");
                Metrics none;
                if (empty.lookup(key, &none))
                    problem("probe: empty cache answered a lookup");
            }
            {
                SpanScope s(t, "sim.result_cache.store");
                fresh.store(key, job.cfg, spec_.lengths, m);
            }
            {
                SpanScope s(t, "sim.report.metrics_json");
                Metrics back = metricsFromJson(metricsToJson(m));
                if (metricsToJson(back) != metricsToJson(m))
                    problem("probe: Metrics JSON does not round-trip");
            }
        }
    }

    void
    writeTrace()
    {
        std::filesystem::create_directories(kOutDir);
        std::string path = kOutDir + "/trace-" + def_.workload + "-seed" +
                           std::to_string(opt_.seed) + ".json";
        std::ofstream(path) << tracer_->toJson(meta());
        note("trace: " + path + " (" +
             std::to_string(tracer_->spans().size()) + " spans)");
    }

    // ---- result --------------------------------------------------------

    int
    report()
    {
        bool correct = problems_.empty() && failed_ == 0;
        JsonObjectBuilder m;
        for (const Metric &x : metrics_) {
            JsonObjectBuilder v;
            v.num("value", x.value);
            v.str("unit", x.unit);
            m.field(x.name, v.render(0));
            note(x.name + " = " + jsonNum(x.value) + " " + x.unit);
        }
        JsonObjectBuilder out;
        out.boolean("correct", correct);
        out.u64("attempted", std::max<std::uint64_t>(attempted_, 1));
        out.u64("failed", failed_);
        out.field("metrics", m.render(0));
        std::string line = writeJsonCompact(parseJson(out.render(0)));

        // The stamped record of this run, beside the trace.
        std::filesystem::create_directories(kOutDir);
        std::string path = kOutDir + "/result-" + def_.workload +
                           "-seed" + std::to_string(opt_.seed) + "-trace" +
                           (opt_.trace ? "1" : "0") + ".json";
        std::string problems = "[";
        for (std::size_t i = 0; i < problems_.size(); ++i)
            problems += (i ? ", " : "") + jsonQuote(problems_[i]);
        std::ofstream(path) << "{\"meta\": " << meta()
                            << ", \"digest\": " << jsonQuote(digest_)
                            << ", \"problems\": " << problems
                            << "], \"result\": " << line << "}\n";
        note("model digest " + digest_);
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

    Options opt_;
    int nproc_;
    StudyDef def_;
    SweepSpec spec_;
    std::unique_ptr<Tracer> tracer_;
    std::string clusterDir_;
    std::unique_ptr<Cluster> cluster_;
    PassLog setup_;
    std::vector<double> cellP50_, cellTails_; ///< one per iteration
    std::vector<double> cellMs_;              ///< every cell of the run
    Tail cellTail_;                           ///< the last iteration's
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
    std::string digest_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt = perfbench::parseArgs(argc, argv);
    try {
        perfbench::makeStudy(opt.workload, opt.seed, opt.small);
    } catch (const std::exception &e) {
        perfbench::usage(e.what());
    }
    perfbench::Bench bench(opt);
    return bench.run();
}
