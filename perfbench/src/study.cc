#include "study.hh"

#include <cmath>
#include <stdexcept>

#include "common/json.hh"
#include "common/sha256.hh"
#include "sim/report.hh"

namespace perfbench {

using namespace ltp;

namespace {

const char *const kMlpKernels =
    R"(["graph_walk", "indirect_stream_fp", "sparse_gather", "hash_probe",)"
    R"( "linked_list", "bucket_shuffle", "btree_lookup"])";
const char *const kIlpKernels =
    R"(["dense_compute", "branchy_int", "fp_kernel", "cache_stream",)"
    R"( "reduction", "int_mix", "div_heavy"])";

const char *const kAllKernels =
    R"(["paper_loop", "graph_walk", "indirect_stream_fp", "sparse_gather",)"
    R"( "hash_probe", "linked_list", "bucket_shuffle", "btree_lookup",)"
    R"( "dense_compute", "branchy_int", "fp_kernel", "cache_stream",)"
    R"( "reduction", "int_mix", "div_heavy"])";

/** The paper's comparison: Table 1 baseline, the same machine shrunk
 *  to IQ32/RF96 without LTP, and the proposal (NU LTP, IQ32/RF96). */
const char *const kHeadlineConfigs = R"([
    {"series": "baseline", "preset": "baseline"},
    {"series": "shrink", "preset": "baseline",
     "set": {"core.iq": 32, "core.intRegs": 96, "core.fpRegs": 96}},
    {"series": "ltp", "preset": "ltpProposal", "mode": "NU"}])";

std::string
lengthsJson(std::uint64_t warm, std::uint64_t pipe, std::uint64_t detail)
{
    return "{\"funcWarm\": " + std::to_string(warm) +
           ", \"pipeWarm\": " + std::to_string(pipe) +
           ", \"detail\": " + std::to_string(detail) + "}";
}

/** served_study's configs: the baseline plus a core.iq sweep × LTP
 *  modes on the proposal machine (RF96).  iq32-off is the shrunk
 *  machine and iq32-NU the proposal itself. */
std::string
servedConfigs()
{
    std::string out =
        "[\n    {\"series\": \"baseline\", \"preset\": \"baseline\"}";
    for (int iq : {16, 32, 64})
        for (const char *mode : {"off", "NU"})
            out += ",\n    {\"series\": \"iq" + std::to_string(iq) + "-" +
                   mode + "\", \"preset\": \"ltpProposal\", \"mode\": \"" +
                   mode + "\", \"set\": {\"core.iq\": " +
                   std::to_string(iq) + "}}";
    return out + "]";
}

} // namespace

StudyDef
makeStudy(const std::string &workload, std::uint64_t seed, bool small)
{
    StudyDef d;
    d.workload = workload;
    d.baseline = "baseline";
    d.shrink = "shrink";
    d.ltp = "ltp";
    std::string body;
    if (workload == "mlp_sweep") {
        body = "\"lengths\": " +
               (small ? lengthsJson(4000, 1000, 2000)
                      : lengthsJson(50000, 5000, 60000)) +
               ",\n  \"workloads\": {\"kernels\": " + kMlpKernels +
               "},\n  \"configs\": " + kHeadlineConfigs;
    } else if (workload == "ilp_sampled") {
        // Sized so fast-forward and detailed simulation each take a
        // large share of host time (the measured split is reported
        // as sample.ff_ms vs sample.warmup_ms + sample.detail_ms).
        body = "\"lengths\": " + lengthsJson(0, 2000, 20000) +
               ",\n  \"sampling\": " +
               (small ? std::string("{\"fastForward\": 4000, \"warmup\": "
                                    "500, \"detail\": 1000, \"samples\": 2}")
                      : std::string("{\"fastForward\": 125000, \"warmup\": "
                                    "1000, \"detail\": 10000, "
                                    "\"samples\": 6}")) +
               ",\n  \"workloads\": {\"kernels\": " + kIlpKernels +
               "},\n  \"configs\": " + kHeadlineConfigs;
    } else if (workload == "served_study") {
        d.served = true;
        d.shrink = "iq32-off";
        d.ltp = "iq32-NU";
        body = "\"lengths\": " +
               (small ? lengthsJson(1000, 200, 500)
                      : lengthsJson(4000, 500, 2000)) +
               ",\n  \"workloads\": {\"kernels\": " + kAllKernels +
               "},\n  \"configs\": " + servedConfigs();
    } else {
        throw std::runtime_error("unknown workload '" + workload +
                                 "' (expected mlp_sweep, ilp_sampled or "
                                 "served_study)");
    }
    d.scenario = "{\n  \"name\": \"" + workload +
                 "\",\n  \"seed\": " + std::to_string(seed) + ",\n  " +
                 body + "\n}\n";
    return d;
}

WorkCounts
workCounts(const SweepSpec &spec, const ResultGrid &grid)
{
    WorkCounts w;
    const SamplePlan &p = spec.sampling;
    for (const std::string &row : grid.rows())
        for (const std::string &series : grid.series(row)) {
            const Metrics &m = grid.at(row, series);
            w.cells += 1;
            // Counts in Metrics are summed over samples.
            w.cycles += m.cycles;
            if (p.enabled()) {
                w.detailInsts += std::uint64_t(p.samples) *
                                 (p.warmup + p.detail);
                w.ffInsts += std::uint64_t(p.samples) * p.fastForward;
            } else {
                w.detailInsts += spec.lengths.pipeWarm + spec.lengths.detail;
            }
        }
    return w;
}

std::string
modelDigest(const ResultGrid &grid)
{
    std::string all;
    for (const std::string &row : grid.rows())
        for (const std::string &series : grid.series(row)) {
            JsonValue v = parseJson(metricsToJson(grid.at(row, series)));
            auto s = v.object.find("sampling");
            if (s != v.object.end())
                s->second.object.erase("ffKips");
            all += row + '\t' + series + '\t' + writeJsonCompact(v) + '\n';
        }
    return sha256Hex(all);
}

std::string
gridDifference(const ResultGrid &a, const ResultGrid &b)
{
    if (a.rows() != b.rows())
        return "row sets differ";
    for (const std::string &row : a.rows()) {
        if (a.series(row) != b.series(row))
            return "series of row '" + row + "' differ";
        for (const std::string &series : a.series(row))
            if (metricsToJson(a.at(row, series)) !=
                metricsToJson(b.at(row, series)))
                return "cell (" + row + ", " + series +
                       ") Metrics JSON differs";
    }
    return "";
}

std::string
gridProblem(const SweepSpec &spec, const ResultGrid &grid)
{
    if (grid.size() != spec.jobs.size())
        return "grid holds " + std::to_string(grid.size()) +
               " cells, study has " + std::to_string(spec.jobs.size());
    for (const SweepJob &job : spec.jobs) {
        if (!grid.has(job.row, job.series))
            return "cell (" + job.row + ", " + job.series + ") missing";
        const Metrics &m = grid.at(job.row, job.series);
        if (m.insts == 0 || m.cycles == 0 || !(m.ipc > 0.0))
            return "cell (" + job.row + ", " + job.series +
                   ") simulated nothing";
        if (spec.sampling.enabled() &&
            !(m.sampling.samples >= 2 && m.sampling.hasCi()))
            return "sampled cell (" + job.row + ", " + job.series +
                   ") carries no confidence interval";
    }
    return "";
}

double
ipcRatio(const ResultGrid &grid, const std::string &num,
         const std::string &den)
{
    double log_sum = 0.0;
    int n = 0;
    for (const std::string &row : grid.rows()) {
        log_sum += std::log(grid.at(row, num).ipc / grid.at(row, den).ipc);
        n += 1;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

ModelStats
modelStats(const ResultGrid &grid, const std::string &ltpSeries)
{
    ModelStats s;
    double cells = 0, ltp_cells = 0, insts = 0, ltp_insts = 0;
    double dram = 0, parked = 0, unparked = 0, forced = 0;
    double ci_rel = 0, sampled = 0;
    for (const std::string &row : grid.rows())
        for (const std::string &series : grid.series(row)) {
            const Metrics &m = grid.at(row, series);
            cells += 1;
            insts += double(m.insts);
            s.cpi += m.cpi;
            s.iqOcc += m.iqOcc;
            s.rfOcc += m.rfOcc;
            s.robOcc += m.robOcc;
            dram += double(m.dramReads);
            s.avgLoadLatency += m.avgLoadLatency;
            s.mlp += m.avgOutstanding;
            if (m.sampling.hasCi() && m.sampling.meanIpc > 0) {
                ci_rel += m.sampling.ci95Half / m.sampling.meanIpc;
                sampled += 1;
            }
            if (series != ltpSeries)
                continue;
            ltp_cells += 1;
            ltp_insts += double(m.insts);
            parked += double(m.parked);
            unparked += double(m.unparked);
            forced += double(m.forcedUnparks);
            s.enabledFrac += m.ltpEnabledFrac;
            s.llpredAccuracy += m.llpredAccuracy;
            s.ltpOcc += m.ltpOcc;
        }
    if (cells > 0) {
        s.cpi /= cells;
        s.iqOcc /= cells;
        s.rfOcc /= cells;
        s.robOcc /= cells;
        s.avgLoadLatency /= cells;
        s.mlp /= cells;
    }
    if (insts > 0)
        s.dramReadsPerKinst = dram / insts * 1000.0;
    if (ltp_cells > 0) {
        s.enabledFrac /= ltp_cells;
        s.llpredAccuracy /= ltp_cells;
        s.ltpOcc /= ltp_cells;
    }
    if (ltp_insts > 0) {
        s.parkedPerKinst = parked / ltp_insts * 1000.0;
        s.unparkedPerKinst = unparked / ltp_insts * 1000.0;
    }
    if (unparked > 0)
        s.forcedUnparkFrac = forced / unparked;
    if (sampled > 0)
        s.ci95Rel = ci_rel / sampled;
    return s;
}

} // namespace perfbench
