#include "sim/metrics.hh"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace ltp {

std::string
Metrics::toString() const
{
    std::ostringstream os;
    os << config << "/" << workload
       << strprintf(": ipc=%.3f cpi=%.3f", ipc, cpi)
       << strprintf(" mlp=%.2f", avgOutstanding)
       << strprintf(" iq=%.1f rf=%.1f lq=%.1f sq=%.1f", iqOcc, rfOcc,
                    lqOcc, sqOcc);
    if (ltpOcc > 0.0 || parked > 0)
        os << strprintf(" ltp=%.1f parked=%.0f%%", ltpOcc,
                        100.0 * parkedFrac);
    return os.str();
}

MetricFields
metricFields(Metrics &m)
{
    auto S = [](const char *n, std::string &v) {
        return Field{n, FieldKind::String, &v};
    };
    auto U = [](const char *n, std::uint64_t &v) {
        return Field{n, FieldKind::U64, &v};
    };
    auto D = [](const char *n, double &v) {
        return Field{n, FieldKind::Double, &v};
    };
    std::array table{
        S("config", m.config),
        S("workload", m.workload),
        U("insts", m.insts),
        U("cycles", m.cycles),
        D("ipc", m.ipc),
        D("cpi", m.cpi),
        D("avgOutstanding", m.avgOutstanding),
        D("avgLoadLatency", m.avgLoadLatency),
        U("dramReads", m.dramReads),
        D("iqOcc", m.iqOcc),
        D("robOcc", m.robOcc),
        D("lqOcc", m.lqOcc),
        D("sqOcc", m.sqOcc),
        D("rfOcc", m.rfOcc),
        D("ltpOcc", m.ltpOcc),
        D("ltpRegsOcc", m.ltpRegsOcc),
        D("ltpLoadsOcc", m.ltpLoadsOcc),
        D("ltpStoresOcc", m.ltpStoresOcc),
        D("ltpEnabledFrac", m.ltpEnabledFrac),
        D("parkedFrac", m.parkedFrac),
        U("parked", m.parked),
        U("unparked", m.unparked),
        U("forcedUnparks", m.forcedUnparks),
        U("pressureUnparks", m.pressureUnparks),
        D("llpredAccuracy", m.llpredAccuracy),
        D("bpAccuracy", m.bpAccuracy),
        D("energy.iq", m.energy.iq),
        D("energy.rf", m.energy.rf),
        D("energy.ltp", m.energy.ltp),
        D("ed2p", m.ed2p),
        D("edp", m.edp),
    };
    // Sized by its rows: a row count that disagrees with MetricFields
    // does not compile.
    return table;
}

Metrics
averageMetrics(const std::vector<Metrics> &runs, const std::string &label)
{
    sim_assert(!runs.empty());
    Metrics avg;
    MetricFields sum = metricFields(avg);
    double n = double(runs.size());
    for (const Metrics &m : runs) {
        MetricFields f = metricFields(m);
        for (std::size_t i = 0; i < f.size(); ++i) {
            if (f[i].kind == FieldKind::U64)
                fieldRef<std::uint64_t>(sum[i]) +=
                    fieldRef<std::uint64_t>(f[i]);
            else if (f[i].kind == FieldKind::Double)
                fieldRef<double>(sum[i]) += fieldRef<double>(f[i]) / n;
        }
    }
    avg.config = runs.front().config;
    avg.workload = label;

    // Per-thread breakdowns average slot-wise when every run has the
    // same SMT shape (the usual case: one group over one config);
    // mixed shapes have no meaningful per-thread average.
    bool same_shape = true;
    for (const Metrics &m : runs)
        same_shape = same_shape &&
                     m.threads.size() == runs.front().threads.size();
    if (same_shape && !runs.front().threads.empty()) {
        avg.threads.resize(runs.front().threads.size());
        for (std::size_t i = 0; i < avg.threads.size(); ++i) {
            ThreadMetrics &slot = avg.threads[i];
            slot.workload = runs.front().threads[i].workload;
            for (const Metrics &m : runs) {
                slot.insts += m.threads[i].insts;
                slot.cycles += m.threads[i].cycles;
                slot.ipc += m.threads[i].ipc / n;
            }
        }
    }
    // A group of sampled runs combines into a sampled aggregate: the
    // plan carries over (groups are uniform per scenario), the mean of
    // means is the group IPC estimate, and the independent per-cell
    // intervals combine in quadrature onto the mean of n cells:
    // halfwidth = sqrt(sum ci_i^2) / n.  Mixed groups (some cells
    // sampled, some not) have no coherent interval and stay disabled.
    bool all_sampled = true;
    for (const Metrics &m : runs)
        all_sampled = all_sampled && m.sampling.enabled();
    if (all_sampled) {
        // The quadrature combination only exists when every member
        // brings a real interval: a CI-less member (a --samples=1
        // cell, whose half-width is NaN) contributes zero dispersion
        // information, and folding it in as zero would silently
        // *shrink* the group interval.  Such a group reports its CI
        // (and dispersion) as unavailable instead.
        bool all_ci = true;
        double ci_sq = 0.0;
        double stddev = 0.0;
        for (const Metrics &m : runs) {
            avg.sampling.samples += m.sampling.samples;
            avg.sampling.meanIpc += m.sampling.meanIpc / n;
            avg.sampling.ffKips += m.sampling.ffKips / n;
            all_ci = all_ci && m.sampling.hasCi();
            stddev += m.sampling.ipcStdDev / n;
            ci_sq += m.sampling.ci95Half * m.sampling.ci95Half;
        }
        avg.sampling.fastForward = runs.front().sampling.fastForward;
        avg.sampling.warmup = runs.front().sampling.warmup;
        avg.sampling.detail = runs.front().sampling.detail;
        double nan = std::numeric_limits<double>::quiet_NaN();
        avg.sampling.ipcStdDev = all_ci ? stddev : nan;
        avg.sampling.ci95Half = all_ci ? std::sqrt(ci_sq) / n : nan;
    }
    return avg;
}

double
studentT95(int df)
{
    // Two-sided 95% critical values, df = 1..30; the asymptotic
    // normal value beyond (the standard printed table).
    static const double kTable[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    // No degrees of freedom means no dispersion estimate at all: the
    // honest answer is "no critical value", not 0.0 (which once turned
    // a single-observation run into a zero-width, perfectly-confident
    // interval downstream).
    if (df < 1)
        return std::numeric_limits<double>::quiet_NaN();
    if (df <= 30)
        return kTable[df - 1];
    return 1.960;
}

double
weightedSpeedup(const Metrics &smt, const std::vector<Metrics> &alone)
{
    if (smt.threads.size() != alone.size() || alone.empty())
        throw std::runtime_error(
            "weightedSpeedup: need one standalone run per SMT thread");
    double ws = 0.0;
    for (std::size_t i = 0; i < alone.size(); ++i) {
        if (alone[i].ipc == 0.0)
            throw std::runtime_error(
                "weightedSpeedup: standalone IPC is zero for thread " +
                std::to_string(i));
        ws += smt.threads[i].ipc / alone[i].ipc;
    }
    return ws;
}

} // namespace ltp
