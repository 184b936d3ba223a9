/**
 * @file
 * `ltp` — the unified experiment driver.  Experiments are data: any
 * cell of the paper's design space is reachable from the command line
 * (presets + dotted --set overrides), and whole studies ship as JSON
 * scenario files compiled onto the sharded Runner.
 *
 * Every subcommand is one entry of kCommands at the bottom of this
 * file — name, positional, own flags, help and handler — and every
 * command also accepts the kShared flags.  `ltp --help` and
 * `ltp <command> --help` are generated from those two tables, and
 * main() is the one place a failure becomes a `fatal:` line.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sample/checkpoint.hh"
#include "sample/sampler.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/worker_pool.hh"
#include "sim/config.hh"
#include "sim/exec_backend.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simspeed.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

using namespace ltp;

namespace {

/** A flag every command accepts; commands with no use for one simply
 *  never read it, so a flag learned on one command works on all. */
struct SharedFlag
{
    const char *name;
    bool isSwitch;
    const char *help;
};

const std::vector<SharedFlag> kShared = {
    {"warm", false, "functional warm-up instructions (staging)"},
    {"pipewarm", false, "pipeline warm-up instructions (staging)"},
    {"detail", false, "measured detailed instructions (staging)"},
    {"seed", false, "workload seed"},
    {"threads", false, "worker threads (0 = all cores)"},
    {"set", false, "<dotted.path>=<value> config override, repeatable"},
    {"json", false, "write the results as JSON (1 = BENCH_<name>.json)"},
    {"csv", false, "write the results as CSV (1 = BENCH_<name>.csv)"},
    {"no-cache", true, "bypass the content-addressed result cache"},
    {"cache-dir", false, "cache root (default $LTP_CACHE_DIR or "
                         "~/.cache/ltp)"},
    {"server", false, "run cells on the `ltp serve` daemon at "
                      "host[:port=7461]"},
    {"server-timeout", false, "max daemon silence per request, ms "
                              "(default 300000)"},
};

/** Apply the --warm/--pipewarm/--detail staging flags onto @p dflt. */
RunLengths
stagingLengths(const Cli &cli, const RunLengths &dflt)
{
    RunLengths lengths = dflt;
    lengths.funcWarm = cli.integer("warm", lengths.funcWarm);
    lengths.pipeWarm = cli.integer("pipewarm", lengths.pipeWarm);
    lengths.detail = cli.integer("detail", lengths.detail);
    return lengths;
}

/** Apply every --set key=value onto @p cfg. */
void
applySets(SimConfig &cfg, const Cli &cli)
{
    for (const std::string &kv : cli.list("set")) {
        auto eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("--set needs <dotted.path>=<value>, got '%s'",
                  kv.c_str());
        applyOverride(cfg, kv.substr(0, eq), kv.substr(eq + 1));
    }
}

/** The config @p preset with --mode, then --seed, then every --set
 *  (so `--set seed=N` wins over --seed). */
SimConfig
configFromCli(const Cli &cli, const std::string &preset)
{
    bool has_mode = cli.has("mode");
    LtpMode mode = has_mode ? parseLtpMode(cli.str("mode", ""), "--mode")
                            : LtpMode::NU;
    SimConfig cfg;
    if (preset == "baseline")
        cfg = SimConfig::baseline();
    else if (preset == "ltpProposal")
        cfg = SimConfig::ltpProposal(mode);
    else if (preset == "limitStudy" && has_mode)
        cfg = SimConfig::limitStudy(mode);
    else if (preset == "limitStudy")
        fatal("preset limitStudy requires --mode=off|NU|NR|NR+NU");
    else
        fatal("unknown preset '%s' (expected "
              "baseline|ltpProposal|limitStudy)",
              preset.c_str());
    cfg.seed = std::uint64_t(cli.integer("seed", 1));
    applySets(cfg, cli);
    return cfg;
}

/** The `ltp serve` client --server/--server-timeout select; @p port
 *  is the default when --server names none. */
std::shared_ptr<ServeBackend>
serveClient(const Cli &cli, int port = kDefaultServePort)
{
    std::string host = "127.0.0.1";
    parseHostPort(cli.str("server", ""), &host, &port);
    ServeClientOptions topts;
    topts.replyTimeoutMs =
        int(cli.integer("server-timeout", topts.replyTimeoutMs));
    return std::make_shared<ServeBackend>(host, port, topts);
}

/**
 * The execution backend the shared flags select: an `ltp serve` client
 * (--server=...), the cache-wrapped local backend (the default —
 * sweeps are answered from ~/.cache/ltp when the exact cell was run
 * before), or the bare local backend (--no-cache).  Returning nullptr
 * lets the Runner use its zero-overhead default.
 */
ExecBackendPtr
makeBackend(const Cli &cli)
{
    if (cli.has("server"))
        return serveClient(cli);
    if (cli.flag("no-cache"))
        return nullptr;
    return std::make_shared<CachedBackend>(
        LocalBackend::instance(),
        std::make_shared<ResultCache>(cli.str("cache-dir", "")));
}

/** The end of every sweep-running command: one stderr line of cache
 *  effectiveness for non-local backends, then the --json/--csv files. */
void
finishSweep(const Cli &cli, const SweepResult &result)
{
    if (result.backend != "local")
        std::fprintf(stderr,
                     "backend %s: %zu/%zu cells answered from cache\n",
                     result.backend.c_str(), result.cacheHits,
                     result.simulations);
    std::string json = cli.str("json", "");
    if (!json.empty())
        writeJsonReport(result, json);
    std::string csv = cli.str("csv", "");
    if (!csv.empty())
        writeCsvReport(result, csv);
}

/** The shared "--flag=1 means the conventional BENCH_ name" rule for
 *  artifacts that are not a SweepResult report. */
std::string
archiveTarget(const std::string &path, const std::string &dflt)
{
    return path == "1" ? dflt : path;
}

/** Generic grid rendering: rows × series, IPC per cell. */
void
printGrid(const SweepResult &result)
{
    // Column set: union of series across rows (usually identical).
    std::vector<std::string> series;
    for (const std::string &row : result.grid.rows())
        for (const std::string &s : result.grid.series(row))
            if (std::find(series.begin(), series.end(), s) ==
                series.end())
                series.push_back(s);

    std::vector<std::string> header = {"row"};
    header.insert(header.end(), series.begin(), series.end());
    Table t(header);
    for (const std::string &row : result.grid.rows()) {
        std::vector<std::string> cells = {row};
        for (const std::string &s : series)
            cells.push_back(result.grid.has(row, s)
                                ? Table::num(result.grid.at(row, s).ipc,
                                             4)
                                : "-");
        t.addRow(std::move(cells));
    }
    t.print(strprintf("%s: IPC by (row, series) — %zu sims, %d "
                      "threads, %.0f ms",
                      result.name.c_str(), result.simulations,
                      result.threads, result.wallMs));
}

/**
 * Each claim's value and PASS/FAIL, printed after the grid.  A miss
 * does not change the exit status: a run at other staging or seed may
 * legitimately miss a claim measured at the file's own settings.
 */
void
printClaims(const std::vector<ScenarioClaim> &claims,
            const ResultGrid &grid)
{
    if (claims.empty())
        return;
    Table t({"claim", "value", "bound", "result"});
    for (const ScenarioClaim &c : claims) {
        double v = c.value(grid);
        t.addRow({c.what, Table::num(v, 3), c.bounds(),
                  c.holds(v) ? "PASS" : "FAIL"});
    }
    t.print("claims");
}

/** The --progress stderr heartbeat of sample and sweep: cells done /
 *  total, cache hits when a cache or daemon backend is in play, and
 *  the live sampling phase label under a sampled plan. */
ProgressFn
progressFn(const Cli &cli, const std::string &name, bool caching)
{
    if (!cli.flag("progress"))
        return {};
    auto start = std::chrono::steady_clock::now();
    return [start, name, caching](const Progress &p) {
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        std::string hits = caching ? strprintf(", %zu hits", p.hits) : "";
        std::string phase =
            p.phase.empty() ? "" : " [" + p.phase + "]";
        // The trailing spaces wipe a longer previous phase label.
        std::fprintf(stderr,
                     "\r%s: %zu/%zu cells%s, %.1fs elapsed%s      %s",
                     name.c_str(), p.done, p.total, hits.c_str(), secs,
                     phase.c_str(), p.done == p.total ? "\n" : "");
        std::fflush(stderr);
    };
}

/** The sampling plan the shared --samples/--sample-* flags select,
 *  layered over @p base (a scenario's plan or the defaults). */
SamplePlan
samplePlanFromCli(const Cli &cli, SamplePlan base)
{
    auto u64 = [&cli](const char *key, std::uint64_t dflt) {
        return std::uint64_t(cli.integer(key, std::int64_t(dflt)));
    };
    base.samples = int(cli.integer("samples", base.samples));
    base.fastForward = u64("sample-ff", base.fastForward);
    base.warmup = u64("sample-warmup", base.warmup);
    base.detail = u64("sample-detail", base.detail);
    return base;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string part; std::getline(in, part, ',');)
        if (!part.empty())
            out.push_back(part);
    return out;
}

/** One sweep, named "@p what:<config>", of @p cfg over @p kernels at
 *  the staging flags' lengths, through the backend the flags select. */
SweepResult
runKernels(const Cli &cli, const std::string &what, const SimConfig &cfg,
           const std::vector<std::string> &kernels,
           const SamplePlan &plan = {})
{
    SweepSpec spec;
    spec.name = what + ":" + cfg.name;
    spec.lengths = stagingLengths(cli, RunLengths::bench());
    spec.sampling = plan;
    for (const std::string &k : kernels)
        spec.add(k, cfg.name, cfg, k);
    ExecBackendPtr backend = makeBackend(cli);
    return Runner(int(cli.integer("threads", 0)), backend)
        .run(spec, progressFn(cli, spec.name, backend != nullptr));
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int
cmdRun(const Cli &cli)
{
    SimConfig cfg = configFromCli(cli, cli.str("preset", "baseline"));

    std::vector<std::string> kernels =
        splitCommas(cli.str("kernel", "paper_loop"));
    if (kernels.empty())
        fatal("--kernel needs at least one kernel name");

    SweepResult result = runKernels(cli, "run", cfg, kernels);

    Table t({"kernel", "IPC", "CPI", "cycles", "parked", "LTP occ"});
    for (const std::string &k : kernels) {
        const Metrics &m = result.grid.at(k, cfg.name);
        t.addRow({k, Table::num(m.ipc, 4), Table::num(m.cpi, 4),
                  std::to_string(m.cycles),
                  Table::num(100.0 * m.parkedFrac, 1) + "%",
                  Table::num(m.ltpOcc, 1)});
    }
    t.print(strprintf("config %s (seed %llu)", cfg.name.c_str(),
                      static_cast<unsigned long long>(cfg.seed)));
    finishSweep(cli, result);
    return 0;
}

/**
 * `ltp sweep --submit`: ship the scenario file to a serve daemon in
 * ONE `scenario` frame instead of compiling it locally — the daemon
 * compiles and runs it server-side (trace paths resolve against its
 * --trace-dir) and replies with the complete grid.  The shared
 * staging/seed/sampling flags edit the scenario JSON before it ships,
 * so the daemon compiles exactly what a local sweep with the same
 * flags would.
 */
int
cmdSubmitSweep(const std::string &path, const Cli &cli)
{
    if (cli.has("set"))
        fatal("--set is not supported with --submit; put the overrides "
              "in the scenario file");

    JsonValue root;
    try {
        root = parseJson(readFileText(path));
        if (!root.isObject())
            throw std::runtime_error("scenario root is not an object");
        // The staging/sampling flags layer onto the file's own values,
        // read by the same parsers scenarioFromJson uses.
        if (cli.has("seed"))
            root.object["seed"] = jsonU64(cli.integer("seed", 1));
        if (cli.has("warm") || cli.has("pipewarm") ||
            cli.has("detail")) {
            auto it = root.object.find("lengths");
            RunLengths base = it == root.object.end()
                                  ? RunLengths{}
                                  : parseLengths(it->second, "lengths");
            root.object["lengths"] =
                lengthsJson(stagingLengths(cli, base));
        }
        if (cli.has("samples") || cli.has("sample-ff") ||
            cli.has("sample-warmup") || cli.has("sample-detail")) {
            auto it = root.object.find("sampling");
            SamplePlan base =
                it == root.object.end()
                    ? SamplePlan{}
                    : parseSampling(it->second, "sampling");
            root.object["sampling"] =
                samplingJson(samplePlanFromCli(cli, base));
        }
    } catch (const std::runtime_error &e) {
        fatal("%s: %s", path.c_str(), e.what());
    }

    std::shared_ptr<ServeBackend> client = serveClient(cli);
    // The daemon streams progress during the run; render it as the
    // same heartbeat a local --progress sweep prints.
    client->setProgressHandler(progressFn(cli, path, true));
    SweepResult result = client->submitScenario(root);
    std::printf("scenario %s: ran on %s (%zu simulations, %d "
                "daemon threads)\n",
                result.name.c_str(), client->address().c_str(),
                result.simulations, result.threads);
    printGrid(result);
    // The daemon compiled the scenario; its claims are checked here
    // against the returned grid (a file whose traces live only on the
    // daemon cannot be loaded locally, so it skips them).
    if (root.object.count("claims")) {
        try {
            printClaims(loadScenarioFile(path).claims, result.grid);
        } catch (const std::runtime_error &e) {
            std::fprintf(stderr, "claims not checked: %s\n", e.what());
        }
    }
    finishSweep(cli, result);
    return 0;
}

int
cmdSweep(const Cli &cli)
{
    const std::string &path = cli.positional();
    if (cli.flag("submit"))
        return cmdSubmitSweep(path, cli);

    Scenario scenario = loadScenarioFile(path);
    scenario.lengths = stagingLengths(cli, scenario.lengths);
    // Overrides the file's seed before compile, so it also reseeds the
    // panel classification (unlike --set seed=N, which applies after).
    if (cli.has("seed")) {
        scenario.seed = cli.integer("seed", scenario.seed);
        scenario.hasSeed = true;
    }

    int threads = int(cli.integer("threads", 0));
    ExecBackendPtr backend = makeBackend(cli);
    // The backend also serves the classification matrix a panels
    // scenario runs at compile time, so a warm cache answers the whole
    // invocation without simulating.
    SweepSpec spec = scenario.compile(threads, backend);

    // --set overrides apply to every job of the compiled spec; the
    // --samples/--sample-* flags override the scenario's sampling plan.
    for (SweepJob &job : spec.jobs)
        applySets(job.cfg, cli);
    spec.sampling = samplePlanFromCli(cli, spec.sampling);

    std::printf("scenario %s: %zu jobs, %zu simulations%s\n",
                spec.name.c_str(), spec.jobs.size(),
                spec.simulationCount(),
                spec.sampling.enabled()
                    ? strprintf(" (sampled, plan %s)",
                                spec.sampling.toString().c_str())
                          .c_str()
                    : "");
    SweepResult result = Runner(threads, backend).run(
        spec, progressFn(cli, spec.name, backend != nullptr));
    printGrid(result);
    printClaims(scenario.claims, result.grid);
    finishSweep(cli, result);
    return 0;
}

/**
 * `--perf-record=<out.data>`: attach `perf record -g` to this process
 * for the duration of the bench, so the call-graph profile and the
 * per-stage attribution come from the same run.  Returns the perf pid
 * (-1 when not requested); stopPerf() reaps it.
 */
pid_t
startPerf(const std::string &out)
{
    pid_t pid = ::fork();
    if (pid < 0)
        fatal("--perf-record: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        std::string target = std::to_string(::getppid());
        ::execlp("perf", "perf", "record", "-g", "-o", out.c_str(),
                 "-p", target.c_str(), (char *)nullptr);
        _exit(127); // perf not installed
    }
    // Give perf a beat to attach so the bench's first cells are in
    // the profile too.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return pid;
}

void
stopPerf(pid_t pid, const std::string &out)
{
    ::kill(pid, SIGINT);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 127)
        std::fprintf(stderr,
                     "--perf-record: `perf` is not installed; no "
                     "profile written\n");
    else
        std::printf("perf profile written to %s (inspect with "
                    "`perf report -i %s`)\n",
                    out.c_str(), out.c_str());
}

int
cmdBench(const Cli &cli)
{
    SimSpeedOptions opts;
    opts.quick = cli.flag("quick");
    opts.profile = cli.flag("profile");
    opts.reps = int(cli.integer("reps", 1));
    opts.seed = cli.integer("seed", 1);
    opts.lengths = stagingLengths(
        cli, opts.quick ? RunLengths::quick() : RunLengths::bench());

    // Scenario sweeps to time (their own staging plans).  The default
    // is the perf-trajectory anchor fig6_iq_quick plus the gated SMT
    // pairs sweep; both are required when the default cell list is in
    // play — a missing file must not silently punch a hole in the
    // trajectory.
    std::vector<std::string> scenarios = cli.list("scenario");
    if (scenarios.empty())
        scenarios = {"scenarios/fig6_iq_quick.json",
                     "scenarios/smt_pairs.json"};
    for (const std::string &path : scenarios) {
        if (!std::filesystem::exists(path))
            fatal("bench scenario not found: '%s' (run from the repo "
                  "root or pass --scenario=<path>)",
                  path.c_str());
        opts.scenarios.push_back(path);
    }

    std::string perf_out = cli.str("perf-record", "");
    pid_t perf_pid = perf_out.empty() ? -1 : startPerf(perf_out);

    std::string baseline = cli.str("baseline", "");
    SimSpeedReport report;
    try {
        report = runSimSpeedBench(opts);
        if (!baseline.empty())
            report.referenceKips = loadReferenceKips(baseline);
    } catch (const std::exception &) {
        if (perf_pid > 0)
            ::kill(perf_pid, SIGKILL);
        throw;
    }
    if (perf_pid > 0)
        stopPerf(perf_pid, perf_out);

    Table t({"cell", "config", "sims", "insts", "wall ms", "kIPS",
             "ticks", "ticks skipped"});
    auto addRows = [&](const std::vector<SimSpeedCell> &cells) {
        for (const SimSpeedCell &c : cells) {
            bool work = c.ticks > 0;
            t.addRow({c.label, c.config, std::to_string(c.simulations),
                      std::to_string(c.detailedInsts),
                      Table::num(c.wallMs, 1), Table::num(c.kips, 1),
                      work ? std::to_string(c.ticks) : "-",
                      work ? std::to_string(c.ticksSkipped) : "-"});
        }
    };
    addRows(report.kernelCells);
    addRows(report.scenarioCells);
    t.print(strprintf("simulator throughput (%s, seed %llu): %.1f kIPS "
                      "over %llu detailed insts",
                      report.quick ? "quick" : "full",
                      static_cast<unsigned long long>(report.seed),
                      report.totalKips,
                      static_cast<unsigned long long>(report.totalInsts)));
    for (const SimSpeedCell &c : report.scenarioCells) {
        auto ref = report.referenceKips.find(c.label);
        if (ref != report.referenceKips.end() && ref->second > 0.0)
            std::printf("%s: %.1f kIPS vs %.1f reference = %.2fx\n",
                        c.label.c_str(), c.kips, ref->second,
                        c.kips / ref->second);
    }

    // --profile: per-stage wall-time attribution, aggregated over the
    // kernel cells of each config, so "which stage regressed, and
    // only under LTP?" is answerable from the bench output alone.
    if (opts.profile) {
        std::vector<std::string> cfgs;
        std::map<std::string, TickProfile> byCfg;
        for (const SimSpeedCell &c : report.kernelCells) {
            if (!c.profiled())
                continue;
            if (!byCfg.count(c.config))
                cfgs.push_back(c.config);
            TickProfile &agg = byCfg[c.config];
            for (int s = 0; s < TickProfile::kNumStages; ++s)
                agg.ns[std::size_t(s)] += c.profile.ns[std::size_t(s)];
            agg.ticks += c.profile.ticks;
            agg.skippedTicks += c.profile.skippedTicks;
        }
        std::vector<std::string> head = {"stage"};
        for (const std::string &cfg : cfgs) {
            head.push_back(cfg + " ms");
            head.push_back("%");
        }
        Table pt(head);
        for (int s = 0; s < TickProfile::kNumStages; ++s) {
            std::vector<std::string> row = {TickProfile::stageName(s)};
            for (const std::string &cfg : cfgs) {
                const TickProfile &p = byCfg[cfg];
                double ms = double(p.ns[std::size_t(s)]) / 1e6;
                double pct = p.totalNs()
                                 ? 100.0 * double(p.ns[std::size_t(s)]) /
                                       double(p.totalNs())
                                 : 0.0;
                row.push_back(Table::num(ms, 1));
                row.push_back(Table::num(pct, 1));
            }
            pt.addRow(row);
        }
        pt.print("per-stage tick attribution (kernel cells, "
                 "aggregated per config)");
        for (const std::string &cfg : cfgs)
            std::printf("%s: %llu ticks executed, %llu skipped\n",
                        cfg.c_str(),
                        static_cast<unsigned long long>(byCfg[cfg].ticks),
                        static_cast<unsigned long long>(
                            byCfg[cfg].skippedTicks));
    }

    std::string json = cli.str("json", "");
    if (!json.empty()) {
        std::string target = archiveTarget(json, "BENCH_simspeed.json");
        writeFile(target, report.toJson());
        std::printf("json written to %s\n", target.c_str());
    }

    if (cli.flag("check")) {
        if (baseline.empty())
            fatal("bench --check needs --baseline=<file>");
        if (!checkSimSpeedBaseline(report, baseline))
            return 1;
    }
    return 0;
}

/** The DSL kernels a `record` target names: a kernel list, 'all', or
 *  every (non-trace) kernel a scenario file's compiled spec touches. */
std::vector<std::string>
recordTargets(const std::string &what, const Cli &cli,
              RunLengths &lengths, std::uint64_t &seed)
{
    if (what == "all") {
        std::vector<std::string> kernels;
        for (const SuiteEntry &e : kernelSuite())
            kernels.push_back(e.name);
        return kernels;
    }
    if (what.size() > 5 && what.compare(what.size() - 5, 5, ".json") == 0) {
        Scenario scenario;
        try {
            scenario = loadScenarioFile(what);
        } catch (const std::runtime_error &e) {
            // A scenario that replays traces validates them eagerly —
            // which cannot succeed before they exist.  Point at the
            // bootstrap path instead of just echoing the parse error.
            if (std::string(e.what()).find(".lttr") == std::string::npos)
                throw;
            fatal("%s\n(`ltp record <scenario>` records the DSL "
                  "kernels a scenario touches; it cannot bootstrap "
                  "a scenario that replays traces — record their "
                  "source kernels directly: ltp record "
                  "<kernel,...> --out=<dir>)",
                  e.what());
        }
        // The scenario's own staging/seed become the recording defaults
        // (still overridable by the standard flags).
        lengths = stagingLengths(cli, scenario.lengths);
        if (!cli.has("seed"))
            seed = scenario.seed;
        SweepSpec spec = scenario.compile(int(cli.integer("threads", 0)),
                                          makeBackend(cli));
        std::set<std::string> uniq;
        for (const SweepJob &job : spec.jobs)
            for (const std::string &k : job.kernels) {
                // SMT tuples decompose into their member kernels:
                // traces are per-thread streams, so a pairs scenario
                // records each co-runner separately.
                std::vector<std::string> members =
                    isSmtName(k) ? smtMembers(k)
                                 : std::vector<std::string>{k};
                for (const std::string &member : members)
                    if (!isTraceName(member))
                        uniq.insert(member);
            }
        if (uniq.empty())
            fatal("scenario '%s' references no DSL kernels to record",
                  what.c_str());
        return std::vector<std::string>(uniq.begin(), uniq.end());
    }
    return splitCommas(what);
}

int
cmdRecord(const Cli &cli)
{
    std::string out_dir = cli.str("out", "");
    if (out_dir.empty())
        fatal("record needs --out=<dir> for the .lttr files");

    RunLengths lengths = stagingLengths(cli, RunLengths::bench());
    std::uint64_t seed = cli.integer("seed", 1);
    std::vector<std::string> kernels =
        recordTargets(cli.positional(), cli, lengths, seed);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec)
        fatal("cannot create '%s': %s", out_dir.c_str(),
              ec.message().c_str());

    Table t({"kernel", "file", "records", "bytes"});
    for (const std::string &kernel : kernels) {
        TraceInfo info;
        info.kernel = kernel;
        info.seed = seed;
        info.funcWarm = lengths.funcWarm;
        info.pipeWarm = lengths.pipeWarm;
        info.detail = lengths.detail;
        std::string path = out_dir + "/" + kernel + ".lttr";
        std::string bytes = recordTrace(info);
        writeTraceFile(path, bytes);
        t.addRow({kernel, path, std::to_string(info.recordLength()),
                  std::to_string(bytes.size())});
    }
    t.print(strprintf("recorded %zu trace(s), seed %llu, staging "
                      "%llu/%llu/%llu (+%llu slack)",
                      kernels.size(),
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(lengths.funcWarm),
                      static_cast<unsigned long long>(lengths.pipeWarm),
                      static_cast<unsigned long long>(lengths.detail),
                      static_cast<unsigned long long>(kTraceFetchSlack)));
    return 0;
}

int
cmdReplay(const Cli &cli)
{
    namespace fs = std::filesystem;
    const std::string &what = cli.positional();
    std::vector<std::string> paths;
    if (fs::is_directory(what)) {
        for (const auto &entry : fs::directory_iterator(what))
            if (entry.path().extension() == ".lttr")
                paths.push_back(entry.path().string());
        std::sort(paths.begin(), paths.end());
        if (paths.empty())
            fatal("no .lttr files under '%s'", what.c_str());
    } else {
        paths.push_back(what);
    }

    bool verify = cli.flag("verify");
    SimConfig base_cfg = configFromCli(cli, cli.str("preset", "baseline"));
    // Like --seed below, `--set seed=N` cannot re-seed a recorded
    // stream; reject it instead of silently mislabelling results.
    for (const std::string &kv : cli.list("set"))
        if (kv.rfind("seed=", 0) == 0)
            fatal("replay cannot re-seed a recorded stream; drop "
                  "'--set %s' (re-record with the desired seed)",
                  kv.c_str());

    std::vector<std::string> header = {"trace", "kernel", "IPC",
                                       "cycles", "parked"};
    if (verify)
        header.push_back("verify");
    Table t(header);

    int failures = 0;
    for (const std::string &path : paths) {
        std::shared_ptr<const TraceReader> trace = loadTraceCached(path);
        const TraceInfo &info = trace->info();

        // Defaults reproduce the recording run exactly: the recorded
        // staging plan and seed, unless explicitly overridden.
        RunLengths recorded;
        recorded.funcWarm = info.funcWarm;
        recorded.pipeWarm = info.pipeWarm;
        recorded.detail = info.detail;
        RunLengths lengths = stagingLengths(cli, recorded);
        SimConfig cfg = base_cfg;
        cfg.seed = info.seed;
        // The recorded stream cannot be re-seeded, so a conflicting
        // --seed could only mislabel results (and with --verify would
        // compare against a differently-seeded execute run — a
        // guaranteed false mismatch).  Reject it outright.
        if (cli.has("seed") &&
            std::uint64_t(cli.integer("seed", 1)) != info.seed)
            fatal("--seed=%llu conflicts with the seed %llu recorded "
                  "in '%s'; re-record with the desired seed",
                  static_cast<unsigned long long>(
                      cli.integer("seed", 1)),
                  static_cast<unsigned long long>(info.seed),
                  path.c_str());

        Metrics replayed =
            Simulator::runOnce(cfg, traceName(path), lengths);
        std::vector<std::string> row = {
            traceLabel(path), info.kernel, Table::num(replayed.ipc, 4),
            std::to_string(replayed.cycles),
            Table::num(100.0 * replayed.parkedFrac, 1) + "%"};
        if (verify) {
            Metrics executed =
                Simulator::runOnce(cfg, info.kernel, lengths);
            bool ok =
                metricsToJson(replayed) == metricsToJson(executed);
            row.push_back(ok ? "OK" : "MISMATCH");
            if (!ok) {
                failures += 1;
                std::fprintf(stderr,
                             "replay mismatch for %s:\n"
                             "--- replayed ---\n%s\n"
                             "--- executed ---\n%s\n",
                             path.c_str(),
                             metricsToJson(replayed).c_str(),
                             metricsToJson(executed).c_str());
            }
        }
        t.addRow(std::move(row));
    }
    t.print(strprintf("replay of %zu trace(s), config %s%s",
                      paths.size(), base_cfg.name.c_str(),
                      verify ? " (verified against execute mode)" : ""));
    if (failures) {
        std::fprintf(stderr,
                     "replay: %d trace(s) diverged from execute mode\n",
                     failures);
        return 1;
    }
    return 0;
}

int
cmdListKernels(const Cli &)
{
    Table t({"kernel", "intent"});
    for (const SuiteEntry &e : kernelSuite()) {
        const char *intent =
            e.intent == MlpIntent::Sensitive
                ? "mlp-sensitive"
                : e.intent == MlpIntent::Insensitive ? "mlp-insensitive"
                                                     : "example";
        t.addRow({e.name, intent});
    }
    t.print("registered kernel suite");
    return 0;
}

int
cmdClassify(const Cli &cli)
{
    RunLengths lengths = stagingLengths(cli, RunLengths::bench());
    std::uint64_t seed = cli.integer("seed", 1);
    int threads = int(cli.integer("threads", 0));

    Panels p = classifyPanels(lengths, seed, threads, makeBackend(cli));
    Table t({"kernel", "class", "speedup", "outstanding x",
             "avg load lat"});
    for (const auto &d : p.groups.details)
        t.addRow({d.kernel, d.sensitive ? "SENSITIVE" : "insensitive",
                  Table::num(d.speedup, 2),
                  Table::num(d.outstandingRatio, 2),
                  Table::num(d.avgLoadLatency, 1)});
    t.print("Section 4.1 classification (IQ32 vs IQ256)");

    std::string csv = cli.str("csv", "");
    if (!csv.empty()) {
        std::string target = archiveTarget(csv, "BENCH_classify.csv");
        writeFile(target, t.toCsv());
        std::printf("csv written to %s\n", target.c_str());
    }
    std::string json = cli.str("json", "");
    if (!json.empty()) {
        std::string out = "[\n";
        for (std::size_t i = 0; i < p.groups.details.size(); ++i) {
            const MlpClassification &d = p.groups.details[i];
            JsonObjectBuilder o;
            o.str("kernel", d.kernel);
            o.boolean("sensitive", d.sensitive);
            o.num("speedup", d.speedup);
            o.num("outstandingRatio", d.outstandingRatio);
            o.num("avgLoadLatency", d.avgLoadLatency);
            out += "  " + o.render(2);
            if (i + 1 < p.groups.details.size())
                out += ",";
            out += "\n";
        }
        out += "]\n";
        std::string target = archiveTarget(json, "BENCH_classify.json");
        writeFile(target, out);
        std::printf("json written to %s\n", target.c_str());
    }
    return 0;
}

/** Gate a sampled report against a full-detail one. */
int
cmdSampleCompare(const Cli &cli)
{
    std::string full_path = cli.str("full", "");
    std::string sampled_path = cli.str("sampled", "");
    if (full_path.empty() || sampled_path.empty())
        fatal("sample compare needs --full=<report.json> and "
              "--sampled=<report.json> (both from --json=<file>)");
    double min_speedup = cli.real("min-speedup", 0.0);
    double rtol = cli.real("rtol", 0.05);

    auto load = [](const std::string &path) {
        try {
            return sweepResultFromJson(parseJson(readFileText(path)));
        } catch (const std::runtime_error &e) {
            fatal("%s: %s", path.c_str(), e.what());
        }
    };
    SweepResult full = load(full_path);
    SweepResult sampled = load(sampled_path);

    Table t({"cell", "full IPC", "sampled IPC", "ci95", "tolerance",
             "state"});
    int failures = 0;
    std::size_t cells = 0;
    for (const std::string &row : sampled.grid.rows())
        for (const std::string &series : sampled.grid.series(row)) {
            std::string key = row + "|" + series;
            cells += 1;
            if (!full.grid.has(row, series))
                fatal("cell '%s' in %s has no counterpart in %s",
                      key.c_str(), sampled_path.c_str(),
                      full_path.c_str());
            const Metrics &fm = full.grid.at(row, series);
            const Metrics &sm = sampled.grid.at(row, series);
            // Gating a sampled cell is a statistical statement; a cell
            // with no interval (--samples=1) cannot make one, so refuse
            // outright rather than trivially passing on the rtol floor.
            if (sm.sampling.enabled() && !sm.sampling.hasCi())
                fatal("cell '%s' in %s has no confidence interval "
                      "(%d sample%s) — rerun with --samples>=2 to gate "
                      "a sampled result",
                      key.c_str(), sampled_path.c_str(),
                      sm.sampling.samples,
                      sm.sampling.samples == 1 ? "" : "s");
            double sampled_ipc =
                sm.sampling.enabled() ? sm.sampling.meanIpc : sm.ipc;
            // The statistical tolerance is the sample CI; the rtol
            // floor covers low-variance runs whose CI collapses below
            // the bias the phase model introduces (cold-start, period
            // alignment).
            double tol = std::max(sm.sampling.ci95Half, rtol * fm.ipc);
            bool ok = std::fabs(sampled_ipc - fm.ipc) <= tol;
            failures += ok ? 0 : 1;
            t.addRow({key, Table::num(fm.ipc, 4),
                      Table::num(sampled_ipc, 4),
                      Table::num(sm.sampling.ci95Half, 4),
                      Table::num(tol, 4),
                      ok ? "ok" : "OUT OF TOLERANCE"});
        }
    double speedup =
        sampled.wallMs > 0.0 ? full.wallMs / sampled.wallMs : 0.0;
    t.print(strprintf("sampled vs full: %zu cells, wall %.0f ms vs "
                      "%.0f ms = %.2fx",
                      cells, sampled.wallMs, full.wallMs, speedup));
    if (failures) {
        std::fprintf(stderr,
                     "sample compare: %d cell(s) out of tolerance\n",
                     failures);
        return 1;
    }
    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::fprintf(stderr,
                     "sample compare: speedup %.2fx below required "
                     "%.2fx\n",
                     speedup, min_speedup);
        return 1;
    }
    return 0;
}

int
cmdSample(const Cli &cli)
{
    if (cli.positional() == "compare")
        return cmdSampleCompare(cli);

    std::string what = cli.positional().empty() ? cli.str("kernel", "")
                                                : cli.positional();
    if (what.empty())
        fatal("sample needs a workload: ltp sample <kernel[,kernel...]>"
              " (or `ltp sample compare --full=... --sampled=...`)");
    std::vector<std::string> kernels = splitCommas(what);

    SimConfig cfg = configFromCli(cli, cli.str("preset", "baseline"));

    SamplePlan plan = samplePlanFromCli(cli, SamplePlan::defaults());
    if (plan.samples <= 0 || plan.detail == 0)
        fatal("sampling needs --samples > 0 and --sample-detail > 0 "
              "(got %s)", plan.toString().c_str());

    std::string from = cli.str("from", "");
    SweepResult result;
    if (!from.empty()) {
        // Checkpoint restore binds the run to one concrete stream
        // state, so it bypasses the backends (a cached or remote cell
        // could not see the local file) and runs in-process.
        if (kernels.size() != 1)
            fatal("sample --from restores one workload, got %zu",
                  kernels.size());
        auto start = std::chrono::steady_clock::now();
        Sampler sampler(cfg, kernels[0], plan);
        sampler.restoreFrom(loadCheckpointFile(from));
        PhaseFn phase;
        if (cli.flag("progress"))
            phase = [](const std::string &p) {
                std::fprintf(stderr, "\r[%s]        ", p.c_str());
                std::fflush(stderr);
            };
        Metrics m = sampler.run(phase);
        if (phase)
            std::fprintf(stderr, "\n");
        result.grid.put(kernels[0], cfg.name, m);
        result.name = "sample:" + cfg.name;
        result.simulations = 1;
        result.wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    } else {
        result = runKernels(cli, "sample", cfg, kernels, plan);
    }

    Table t({"kernel", "samples", "mean IPC", "±95% CI", "stddev",
             "ff kIPS"});
    for (const std::string &k : kernels) {
        const Metrics &m = result.grid.at(k, cfg.name);
        bool ci = m.sampling.hasCi();
        t.addRow({k, std::to_string(m.sampling.samples),
                  Table::num(m.sampling.meanIpc, 4),
                  ci ? Table::num(m.sampling.ci95Half, 4) : "n/a",
                  ci ? Table::num(m.sampling.ipcStdDev, 4) : "n/a",
                  Table::num(m.sampling.ffKips, 0)});
    }
    t.print(strprintf("sampled %s (plan %s, seed %llu, %.0f ms)",
                      cfg.name.c_str(), plan.toString().c_str(),
                      static_cast<unsigned long long>(cfg.seed),
                      result.wallMs));
    finishSweep(cli, result);
    return 0;
}

int
cmdCheckpoint(const Cli &cli)
{
    const std::string &action = cli.positional();
    if (action == "create") {
        std::string kernel = cli.str("kernel", "");
        if (kernel.empty())
            fatal("checkpoint create needs --kernel=<workload>");
        std::string out = cli.str("out", "");
        if (out.empty())
            fatal("checkpoint create needs --out=<file.ltcp>");
        std::uint64_t at = std::uint64_t(cli.integer("at", 0));
        if (at == 0)
            fatal("checkpoint create needs --at=<instructions> > 0");

        SimConfig cfg = configFromCli(cli, cli.str("preset", "baseline"));
        std::vector<std::string> members =
            resolveWorkloadMembers(cfg, kernel);
        MemSystem mem(cfg.mem);
        FastForward ff(cfg, members, mem);
        ff.advanceTo(at);
        std::string name = ff.stream(0).name();
        for (int tid = 1; tid < ff.numThreads(); ++tid)
            name += "+" + ff.stream(tid).name();
        Checkpoint ckpt = captureCheckpoint(ff, mem, name, cfg.seed);
        std::string bytes = checkpointToBytes(ckpt);
        writeCheckpointFile(out, bytes);
        std::printf("%s: %s (%zu bytes, fast-forward %.0f kIPS)\n",
                    out.c_str(), checkpointSummary(ckpt).c_str(),
                    bytes.size(), ff.kips());
        return 0;
    }
    if (action == "ls" || action == "verify") {
        std::string file = cli.str("file", "");
        if (file.empty())
            fatal("checkpoint %s needs --file=<file.ltcp>",
                  action.c_str());
        std::string bytes = readFileText(file);
        Checkpoint ckpt = checkpointFromBytes(bytes);
        if (action == "ls") {
            std::printf("%s: %s\n", file.c_str(),
                        checkpointSummary(ckpt).c_str());
            return 0;
        }
        // verify: the decode above already validated magic, version,
        // CRC, and semantics; a byte-exact re-encode proves the file
        // is canonical (no mutation survives).
        if (checkpointToBytes(ckpt) != bytes) {
            std::fprintf(stderr,
                         "%s: decodes but re-encodes differently "
                         "(non-canonical)\n",
                         file.c_str());
            return 1;
        }
        std::printf("%s: OK (%zu bytes, CRC + round-trip verified)\n",
                    file.c_str(), bytes.size());
        return 0;
    }
    fatal("unknown checkpoint action '%s' (expected create|ls|verify)",
          action.c_str());
}

int
cmdCache(const Cli &cli)
{
    const std::string &action = cli.positional();
    ResultCache cache(cli.str("cache-dir", ""));

    if (action.empty() || action == "stat") {
        CacheStats s = cache.stats();
        std::printf("cache %s: %llu entries (%llu invalid), %llu "
                    "bytes\n",
                    cache.dir().c_str(),
                    static_cast<unsigned long long>(s.entries),
                    static_cast<unsigned long long>(s.invalid),
                    static_cast<unsigned long long>(s.bytes));
        return 0;
    }
    if (action == "ls") {
        Table t({"key", "config", "workload", "staging", "bytes",
                 "state"});
        for (const CacheEntryInfo &e : cache.list())
            t.addRow({e.key.substr(0, 12), e.config, e.workload,
                      strprintf("%llu/%llu/%llu",
                                static_cast<unsigned long long>(
                                    e.funcWarm),
                                static_cast<unsigned long long>(
                                    e.pipeWarm),
                                static_cast<unsigned long long>(
                                    e.detail)),
                      std::to_string(e.bytes),
                      e.valid ? "ok" : "INVALID"});
        t.print(strprintf("result cache at %s", cache.dir().c_str()));
        return 0;
    }
    if (action == "gc") {
        double days = cli.real("max-age-days", 0.0);
        std::uint64_t max_bytes =
            std::uint64_t(cli.integer("max-bytes", 0));
        std::size_t removed = cache.gc(days, max_bytes);
        std::string why = " (invalid";
        if (days > 0.0)
            why += strprintf(", older than %g days", days);
        if (max_bytes > 0)
            why += strprintf(", evicted down to %llu bytes",
                             static_cast<unsigned long long>(max_bytes));
        why += ")";
        std::printf("cache gc: removed %zu entr%s%s\n", removed,
                    removed == 1 ? "y" : "ies", why.c_str());
        return 0;
    }
    if (action == "clear") {
        std::size_t removed = cache.clear();
        std::printf("cache clear: removed %zu entr%s from %s\n",
                    removed, removed == 1 ? "y" : "ies",
                    cache.dir().c_str());
        return 0;
    }
    fatal("unknown cache action '%s' (expected ls|stat|gc|clear)",
          action.c_str());
}

/** `ltp serve ping|stats|stop`: one-shot RPCs against a daemon. */
int
serveControl(const std::string &action, const Cli &cli)
{
    if (action != "ping" && action != "stats" && action != "stop")
        fatal("unknown serve action '%s' (expected ping|stats|stop "
              "or no action to run the daemon)",
              action.c_str());
    JsonValue reply =
        serveClient(cli, int(cli.integer("port", kDefaultServePort)))
            ->rpc(action == "stop" ? "shutdown" : action);
    reply.object.erase("id");
    // The per-worker counters read better as a table; keep the
    // machine-readable JSON to the scalar fields.
    JsonValue workers;
    auto wIt = reply.object.find("workers");
    if (wIt != reply.object.end() && wIt->second.isArray()) {
        workers = std::move(wIt->second);
        reply.object.erase("workers");
    }
    std::printf("%s\n", writeJson(reply).c_str());
    if (workers.isArray()) {
        Table t({"worker", "capacity", "up", "dispatched", "completed",
                 "retried", "failed", "peer hits"});
        for (const JsonValue &w : workers.array) {
            auto f = [&w](const char *key) -> std::string {
                auto it = w.object.find(key);
                if (it == w.object.end())
                    return "-";
                if (it->second.isBool())
                    return it->second.boolean ? "yes" : "NO";
                return it->second.str;
            };
            t.addRow({f("worker"), f("capacity"), f("up"),
                      f("dispatched"), f("completed"), f("retried"),
                      f("failed"), f("peerHits")});
        }
        t.print("remote workers");
    }
    if (action == "stop") {
        auto dIt = reply.object.find("drained");
        if (dIt != reply.object.end() && dIt->second.isNumber() &&
            dIt->second.num > 0)
            std::printf("drained %s in-flight cell(s) before shutdown\n",
                        dIt->second.str.c_str());
    }
    return 0;
}

int
cmdServe(const Cli &cli)
{
    if (!cli.positional().empty())
        return serveControl(cli.positional(), cli);

    ServeOptions opts;
    opts.port = int(cli.integer("port", kDefaultServePort));
    opts.threads = int(cli.integer("threads", 0));
    opts.cacheDir = cli.str("cache-dir", "");
    opts.useCache = !cli.flag("no-cache");
    opts.quiet = cli.flag("quiet");
    opts.workers = cli.list("worker");
    std::string workers_file = cli.str("workers", "");
    if (!workers_file.empty())
        for (const std::string &w : loadWorkerSpecs(workers_file))
            opts.workers.push_back(w);
    opts.traceDir = cli.str("trace-dir", "");
    opts.drainTimeoutMs =
        int(cli.integer("drain-timeout", opts.drainTimeoutMs));
    Server server(opts);
    server.start();
    server.waitForShutdown();
    server.stop();
    return 0;
}

int
cmdPrintConfig(const Cli &cli)
{
    if (cli.flag("paths")) {
        for (const std::string &p : configPaths())
            std::printf("%s\n", p.c_str());
        return 0;
    }
    if (cli.positional().empty())
        fatal("print-config needs a preset "
              "(baseline|ltpProposal|limitStudy) or --paths");
    std::printf("%s\n",
                configToJson(configFromCli(cli, cli.positional())).c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// The command table
// ---------------------------------------------------------------------------

struct Command
{
    const char *name;
    CliSpec spec; ///< its own flags beyond kShared; summary = help text
    int (*run)(const Cli &);
};

const std::vector<Command> kCommands = {
    {"run",
     {{"preset", "mode", "kernel"}, {}, Positional::None, "",
      "simulate one config (--preset=baseline|ltpProposal|limitStudy,\n"
      "--mode=off|NU|NR|NR+NU) over --kernel=a,b (default paper_loop)"},
     cmdRun},
    {"sweep",
     {{"samples", "sample-ff", "sample-warmup", "sample-detail"},
      {"progress", "submit"},
      Positional::Required,
      "<scenario.json>",
      "run a scenario file and print its claims' PASS/FAIL;\n"
      "--samples/--sample-* override its sampling plan, --progress\n"
      "prints a heartbeat, --submit ships it to --server in one request"},
     cmdSweep},
    {"bench",
     {{"scenario", "baseline", "perf-record", "reps"},
      {"quick", "check", "profile"},
      Positional::None,
      "",
      "simulator throughput (kIPS, in-process, uncached) over kernels\n"
      "and --scenario files -> BENCH_simspeed.json; --baseline --check\n"
      "fails on a >25% regression or changed work counters; --reps=N\n"
      "keeps the best of N; --profile times pipeline stages;\n"
      "--perf-record=<out.data> runs `perf record -g` alongside"},
     cmdBench},
    {"record",
     {{"out"}, {}, Positional::Required,
      "<kernel[,kernel...]|scenario.json|all>",
      "record .lttr traces into --out=<dir> (a scenario file records\n"
      "every DSL kernel it touches, at its own staging)"},
     cmdRecord},
    {"replay",
     {{"preset", "mode"}, {"verify"}, Positional::Required,
      "<trace.lttr|dir>",
      "replay .lttr traces; --verify diffs each against execute mode"},
     cmdReplay},
    {"sample",
     {{"preset", "mode", "kernel", "samples", "sample-ff", "sample-warmup",
       "sample-detail", "from", "full", "sampled", "min-speedup", "rtol"},
      {"progress"},
      Positional::Optional,
      "[<kernel[,kernel...]|compare>]",
      "interval-sampled simulation, mean IPC with a 95% CI (plan:\n"
      "--samples --sample-ff --sample-warmup --sample-detail;\n"
      "--from=<file.ltcp> restores a checkpoint); `compare --full=a.json\n"
      "--sampled=b.json [--min-speedup=N --rtol=X]` gates a sampled\n"
      "report against a full-detail one"},
     cmdSample},
    {"checkpoint",
     {{"preset", "mode", "kernel", "at", "out", "file"}, {},
      Positional::Required, "<create|ls|verify>",
      "architectural .ltcp checkpoints: create --kernel=<w> --at=<n>\n"
      "--out=<file>; ls and verify take --file=<file>"},
     cmdCheckpoint},
    {"list-kernels",
     {{}, {}, Positional::None, "", "print the registered kernel suite"},
     cmdListKernels},
    {"classify",
     {{}, {}, Positional::None, "",
      "Section 4.1 MLP-sensitivity classification"},
     cmdClassify},
    {"print-config",
     {{"mode"}, {"paths"}, Positional::Optional, "[<preset>]",
      "print a preset's config as JSON; --paths lists every --set path"},
     cmdPrintConfig},
    {"cache",
     {{"max-age-days", "max-bytes"}, {}, Positional::Optional,
      "[<ls|stat|gc|clear>]",
      "inspect or prune the result cache (default stat); gc takes\n"
      "--max-age-days=N and --max-bytes=N (oldest-first eviction)"},
     cmdCache},
    {"serve",
     {{"port", "worker", "workers", "trace-dir", "drain-timeout"},
      {"quiet"},
      Positional::Optional,
      "[<ping|stats|stop>]",
      "run the cell daemon on --port, or control a running one;\n"
      "repeatable --worker=host:port (or --workers=<file>) makes it a\n"
      "distributed frontend, --trace-dir resolves submitted trace\n"
      "paths, --drain-timeout=<ms> bounds the shutdown drain"},
     cmdServe},
};

/** Print @p text with every line after the first indented @p indent. */
void
printIndented(const char *text, int indent)
{
    for (const char *p = text; *p; ++p) {
        std::putchar(*p);
        if (*p == '\n')
            std::printf("%*s", indent, "");
    }
    std::putchar('\n');
}

int
usage(int status)
{
    std::printf("ltp — declarative LTP experiment driver\n\n"
                "usage: ltp <command> [args] [--flags]   (`ltp <command> "
                "--help` lists its flags)\n\ncommands:\n");
    for (const Command &c : kCommands) {
        std::printf("  %s%s%s\n      ", c.name,
                    c.spec.positionalName.empty() ? "" : " ",
                    c.spec.positionalName.c_str());
        printIndented(c.spec.summary.c_str(), 6);
    }
    std::printf("\nflags every command accepts:\n");
    for (const SharedFlag &f : kShared) {
        std::printf("  --%-15s ", f.name);
        printIndented(f.help, 20);
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(1);
    std::string name = argv[1];
    if (name == "--help" || name == "-h" || name == "help")
        return usage(0);
    auto cmd = std::find_if(kCommands.begin(), kCommands.end(),
                            [&](const Command &c) { return name == c.name; });
    if (cmd == kCommands.end()) {
        std::fprintf(stderr, "ltp: unknown command '%s'\n\n", name.c_str());
        return usage(1);
    }

    CliSpec spec = cmd->spec;
    spec.summary = strprintf("ltp %s — %s", cmd->name, spec.summary.c_str());
    for (const SharedFlag &f : kShared)
        (f.isSwitch ? spec.switches : spec.flags).insert(f.name);
    // Cli sees "ltp <command>" as argv[0], so its messages name the
    // subcommand a typo happened in.
    std::string prog = std::string(argv[0]) + " " + name;
    argv[1] = prog.data();
    try {
        return cmd->run(Cli(argc - 1, argv + 1, spec));
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
}
