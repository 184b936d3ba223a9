#include "sim/simspeed.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"

namespace ltp {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
kips(std::uint64_t insts, double wall_ms)
{
    return wall_ms > 0.0 ? double(insts) / wall_ms : 0.0;
}

/** The per-kernel measurement set: representative, MLP-diverse. */
std::vector<std::string>
benchKernels(bool quick)
{
    if (quick)
        return {"paper_loop", "graph_walk", "sparse_gather",
                "dense_compute"};
    std::vector<std::string> all;
    for (const SuiteEntry &e : kernelSuite())
        all.push_back(e.name);
    return all;
}

std::string
cellJson(const SimSpeedCell &c,
         const std::map<std::string, double> &refs)
{
    JsonObjectBuilder o;
    o.str("label", c.label);
    o.str("config", c.config);
    o.num("simulations", double(c.simulations));
    o.num("detailed_insts", double(c.detailedInsts));
    o.num("wall_ms", c.wallMs);
    o.num("kips", c.kips);
    if (c.ticks > 0) {
        o.u64("ticks", c.ticks);
        o.u64("ticks_skipped", c.ticksSkipped);
    }
    auto ref = refs.find(c.label);
    if (ref != refs.end()) {
        o.num("reference_kips", ref->second);
        if (ref->second > 0.0)
            o.num("speedup_vs_reference", c.kips / ref->second);
    }
    if (c.profiled()) {
        JsonObjectBuilder p;
        p.u64("ticks", c.profile.ticks);
        p.u64("skipped_ticks", c.profile.skippedTicks);
        p.u64("total_ns", c.profile.totalNs());
        JsonObjectBuilder stages;
        for (int s = 0; s < TickProfile::kNumStages; ++s)
            stages.u64(TickProfile::stageName(s),
                       c.profile.ns[std::size_t(s)]);
        p.field("stage_ns", stages.render(8));
        o.field("profile", p.render(6));
    }
    return o.render(4);
}

} // namespace

std::string
SimSpeedReport::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"name\": \"simspeed\",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"threads\": 1,\n";
    auto emitCells = [&](const char *key,
                         const std::vector<SimSpeedCell> &cells) {
        out << "  \"" << key << "\": [\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << "    " << cellJson(cells[i], referenceKips);
            out << (i + 1 < cells.size() ? ",\n" : "\n");
        }
        out << "  ],\n";
    };
    emitCells("kernels", kernelCells);
    emitCells("scenarios", scenarioCells);
    out << "  \"total\": {\"detailed_insts\": " << totalInsts
        << ", \"wall_ms\": " << jsonNum(totalWallMs)
        << ", \"kips\": " << jsonNum(totalKips) << "}\n";
    out << "}\n";
    return out.str();
}

SimSpeedReport
runSimSpeedBench(const SimSpeedOptions &opts)
{
    SimSpeedReport report;
    report.quick = opts.quick;
    report.seed = opts.seed;
    report.lengths = opts.lengths;
    // Profiled runs keep reps=1: stage times accumulate across runs
    // and would not match a best-of-N wall time.
    int reps = opts.profile ? 1 : std::max(1, opts.reps);
    report.reps = reps;

    std::uint64_t per_sim =
        opts.lengths.pipeWarm + opts.lengths.detail;
    std::vector<SimConfig> configs = {
        SimConfig::baseline(), SimConfig::ltpProposal(LtpMode::NRNU)};

    for (const std::string &kernel : benchKernels(opts.quick)) {
        for (const SimConfig &base : configs) {
            SimConfig cfg = base;
            cfg.seed = opts.seed;
            SimSpeedCell cell;
            cell.label = kernel;
            cell.config = cfg.name;
            cell.detailedInsts = per_sim;
            for (int r = 0; r < reps; ++r) {
                auto start = std::chrono::steady_clock::now();
                {
                    Simulator sim(cfg, kernel, opts.lengths);
                    if (opts.profile)
                        sim.core().setProfiler(&cell.profile);
                    sim.run();
                    cell.ticks = sim.core().cycle();
                    cell.ticksSkipped = sim.core().skippedTicks();
                }
                double ms = msSince(start);
                if (r == 0 || ms < cell.wallMs)
                    cell.wallMs = ms;
            }
            cell.kips = kips(cell.detailedInsts, cell.wallMs);
            report.kernelCells.push_back(cell);
        }
    }

    // A multiprogrammed (smt:) cell commits its quota *per thread*;
    // crediting one quota keeps the number a conservative per-cell
    // throughput, consistent with the single-threaded cells.
    auto timeScenario = [reps](const std::string &path) {
        Scenario scenario = loadScenarioFile(path);
        SweepSpec spec = scenario.compile(/*threads=*/1);
        std::uint64_t per_cell =
            scenario.lengths.pipeWarm + scenario.lengths.detail;
        SimSpeedCell cell;
        for (int r = 0; r < reps; ++r) {
            auto start = std::chrono::steady_clock::now();
            Runner(/*threads=*/1).run(spec);
            double ms = msSince(start);
            if (r == 0 || ms < cell.wallMs)
                cell.wallMs = ms;
        }
        cell.label = spec.name;
        cell.config = "scenario";
        cell.simulations = spec.simulationCount();
        cell.detailedInsts = per_cell * cell.simulations;
        cell.kips = kips(cell.detailedInsts, cell.wallMs);
        return cell;
    };
    for (const std::string &path : opts.scenarios)
        report.scenarioCells.push_back(timeScenario(path));

    for (const auto &cells :
         {report.kernelCells, report.scenarioCells}) {
        for (const SimSpeedCell &c : cells) {
            report.totalInsts += c.detailedInsts;
            report.totalWallMs += c.wallMs;
        }
    }
    report.totalKips = kips(report.totalInsts, report.totalWallMs);
    return report;
}

namespace {

JsonValue
loadBaseline(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("simspeed baseline not readable: " +
                                 path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseJson(text.str());
}

/** The key a kernel cell's work counters are recorded under. */
std::string
workKey(const SimSpeedCell &c)
{
    return c.label + "/" + c.config;
}

/** Exact work-counter half of checkSimSpeedBaseline. */
bool
checkWorkCounters(const SimSpeedReport &report, const JsonValue &root)
{
    auto it = root.object.find("work_counters");
    if (!report.quick || it == root.object.end() || !it->second.isObject())
        return true;
    const JsonValue &work = it->second;
    auto recorded = [&work](const char *key) {
        auto f = work.object.find(key);
        return f != work.object.end() && f->second.isNumber()
                   ? f->second.num
                   : -1.0;
    };
    if (recorded("seed") != double(report.seed) ||
        recorded("func_warm") != double(report.lengths.funcWarm) ||
        recorded("pipe_warm") != double(report.lengths.pipeWarm) ||
        recorded("detail") != double(report.lengths.detail)) {
        std::printf("work check: not applicable (recorded at another "
                    "seed or staging)\n");
        return true;
    }
    // A cell missing from the record reads as 0 ticks and fails.
    auto cells = work.object.find("cells");
    bool ok = true;
    for (const SimSpeedCell &c : report.kernelCells) {
        std::uint64_t ticks = 0, skipped = 0;
        if (cells != work.object.end()) {
            auto rec = cells->second.object.find(workKey(c));
            if (rec != cells->second.object.end()) {
                for (const auto &[key, v] : rec->second.object) {
                    if (key == "ticks" && v.isNumber())
                        ticks = std::uint64_t(v.num);
                    if (key == "ticks_skipped" && v.isNumber())
                        skipped = std::uint64_t(v.num);
                }
            }
        }
        bool cell_ok = c.ticks == ticks && c.ticksSkipped >= skipped;
        std::printf("work check: %s ticks %llu (recorded %llu), "
                    "skipped %llu (floor %llu): %s\n",
                    workKey(c).c_str(),
                    static_cast<unsigned long long>(c.ticks),
                    static_cast<unsigned long long>(ticks),
                    static_cast<unsigned long long>(c.ticksSkipped),
                    static_cast<unsigned long long>(skipped),
                    cell_ok ? "OK" : "REGRESSION");
        ok = ok && cell_ok;
    }
    return ok;
}

} // namespace

std::map<std::string, double>
loadReferenceKips(const std::string &baselinePath)
{
    std::map<std::string, double> refs;
    JsonValue root = loadBaseline(baselinePath);
    auto it = root.object.find("reference_kips");
    if (it != root.object.end() && it->second.isObject())
        for (const auto &[label, v] : it->second.object)
            if (v.isNumber())
                refs[label] = v.num;
    return refs;
}

bool
checkSimSpeedBaseline(const SimSpeedReport &report,
                      const std::string &baselinePath,
                      double failBelowFrac)
{
    JsonValue root = loadBaseline(baselinePath);
    auto it = root.object.find("total_kips");
    if (it == root.object.end() || !it->second.isNumber())
        throw std::runtime_error(
            "simspeed baseline missing numeric total_kips: " +
            baselinePath);
    double baseline = it->second.num;
    double floor = baseline * failBelowFrac;
    bool ok = report.totalKips >= floor;
    std::printf("simspeed check: measured %.1f kIPS vs baseline %.1f "
                "(floor %.1f at %.0f%%): %s\n",
                report.totalKips, baseline, floor,
                failBelowFrac * 100.0, ok ? "OK" : "REGRESSION");
    return checkWorkCounters(report, root) && ok;
}

} // namespace ltp
