#include "sample/sampler.hh"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/logging.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"

namespace ltp {

std::string
SamplePlan::toString() const
{
    return strprintf("%llu/%llu/%llu x%d",
                     (unsigned long long)fastForward,
                     (unsigned long long)warmup,
                     (unsigned long long)detail, samples);
}

SamplePlanFields
samplePlanFields(SamplePlan &p)
{
    return {Field{"samples", FieldKind::Int, &p.samples, 1},
            Field{"fastForward", FieldKind::U64, &p.fastForward},
            Field{"warmup", FieldKind::U64, &p.warmup},
            Field{"detail", FieldKind::U64, &p.detail, 1}};
}

Sampler::Sampler(const SimConfig &cfg, const std::string &kernel,
                 const SamplePlan &plan)
    : cfg_(cfg), plan_(plan), kernel_(kernel)
{
    if (!plan_.enabled() || plan_.detail == 0)
        throw std::runtime_error(
            "sampling plan needs samples > 0 and a nonzero detail "
            "length (got " + plan_.toString() + ")");

    members_ = resolveWorkloadMembers(cfg_, kernel_);
    mem_ = std::make_unique<MemSystem>(cfg_.mem);
    ff_ = std::make_unique<FastForward>(cfg_, members_, *mem_);

    workload_name_ = ff_->stream(0).name();
    for (int tid = 1; tid < ff_->numThreads(); ++tid)
        workload_name_ += "+" + ff_->stream(tid).name();
}

void
Sampler::restoreFrom(const Checkpoint &ckpt)
{
    sim_assert(!ran_);
    restoreCheckpoint(ckpt, *ff_, *mem_, workload_name_, cfg_.seed);
}

Metrics
Sampler::run(const PhaseFn &phase)
{
    sim_assert(!ran_);
    ran_ = true;

    int n = cfg_.core.numThreads;
    std::uint64_t start = 0;
    for (int tid = 0; tid < n; ++tid)
        start = std::max(start, ff_->consumed(tid));

    // Trace-window bound, exactly as the full Simulator computes it;
    // it doubles as the per-sample fetch-ahead overshoot allowance.
    std::size_t max_window = 0;
    if (!isInfinite(cfg_.core.robSize) &&
        !isInfinite(cfg_.core.fetchQueueCap)) {
        max_window = std::size_t(cfg_.core.robSize) +
                     std::size_t(cfg_.core.fetchQueueCap) +
                     std::size_t(cfg_.core.fetchWidth);
    }
    std::uint64_t overshoot = max_window ? max_window : 16384;

    // Oracle pre-pass (limit study): one classification per thread
    // covering every position any sample can reach; each sample then
    // rebases lookups to its own start position.  Out-of-range
    // lookups fail safe (classified as none), so the slack terms only
    // need to cover the realistic fetch-ahead.
    oracles_.resize(members_.size());
    if (cfg_.core.ltp.mode != LtpMode::Off &&
        cfg_.core.ltp.classifier == ClassifierKind::Oracle) {
        std::uint64_t span =
            start +
            std::uint64_t(plan_.samples) * (plan_.period() + overshoot) +
            kTraceFetchSlack;
        for (std::size_t tid = 0; tid < members_.size(); ++tid) {
            WorkloadPtr oracle_wl = makeKernel(members_[tid]);
            oracles_[tid] =
                oracleClassify(*oracle_wl, cfg_.seed, span, cfg_.mem);
        }
    }

    std::vector<Metrics> runs;
    runs.reserve(std::size_t(plan_.samples));
    for (int i = 0; i < plan_.samples; ++i) {
        std::string tag = std::to_string(i + 1) + "/" +
                          std::to_string(plan_.samples);
        if (phase)
            phase("fast-forward " + tag);

        // Advance every thread to this period's sample start.  A
        // thread already past it (the previous sample's fetch-ahead)
        // keeps its position — the measured region simply shifts by
        // the overshoot, which systematic sampling tolerates.
        std::uint64_t target =
            start + std::uint64_t(i + 1) * plan_.fastForward +
            std::uint64_t(i) * (plan_.warmup + plan_.detail);
        ff_->advanceTo(target);

        // Sample boundary: collapse in-flight timing so the fresh
        // core (cycle 0) observes a settled hierarchy.
        mem_->settle();

        std::vector<std::unique_ptr<TraceWindow>> windows;
        std::vector<InstSource *> sources;
        std::vector<const OracleClassification *> oracle_ptrs;
        std::vector<Workload *> wl_ptrs;
        for (int tid = 0; tid < n; ++tid) {
            if (oracles_[std::size_t(tid)].valid())
                oracles_[std::size_t(tid)].setBase(ff_->consumed(tid));
            windows.push_back(std::make_unique<TraceWindow>(
                ff_->stream(tid), max_window));
            sources.push_back(windows.back().get());
            oracle_ptrs.push_back(oracles_[std::size_t(tid)].valid()
                                      ? &oracles_[std::size_t(tid)]
                                      : nullptr);
            wl_ptrs.push_back(&ff_->stream(tid));
        }

        Core core(cfg_.core, *mem_, sources, oracle_ptrs);
        for (int tid = 0; tid < n; ++tid)
            core.branchPred(tid).restore(
                ff_->branchPred(tid).image());

        std::function<void(const char *)> inner;
        if (phase)
            inner = [&phase, tag](const char *p) {
                phase((std::strcmp(p, "warmup") == 0 ? "warmup "
                                                     : "sample ") +
                      tag);
            };
        runs.push_back(runDetailPhases(cfg_, core, *mem_, wl_ptrs,
                                       plan_.warmup, plan_.detail,
                                       inner));

        // Detailed fetch trained the predictors in stream order right
        // up to the consumed position — copy them back so training is
        // continuous into the next fast-forward stretch.
        for (int tid = 0; tid < n; ++tid)
            ff_->branchPred(tid).restore(
                core.branchPred(tid).image());
    }

    Metrics agg = averageMetrics(runs, runs.front().workload);
    SamplingStats &s = agg.sampling;
    static_cast<SamplePlan &>(s) = plan_;
    s.ffKips = ff_->kips();
    s.sampleIpcs.reserve(runs.size());
    for (const Metrics &m : runs)
        s.sampleIpcs.push_back(m.ipc);
    double mean = 0.0;
    for (double ipc : s.sampleIpcs)
        mean += ipc / double(s.sampleIpcs.size());
    s.meanIpc = mean;
    if (s.sampleIpcs.size() > 1) {
        double ss = 0.0;
        for (double ipc : s.sampleIpcs)
            ss += (ipc - mean) * (ipc - mean);
        s.ipcStdDev =
            std::sqrt(ss / double(s.sampleIpcs.size() - 1));
        s.ci95Half = studentT95(int(s.sampleIpcs.size()) - 1) *
                     s.ipcStdDev /
                     std::sqrt(double(s.sampleIpcs.size()));
    } else {
        // One observation: no dispersion estimate exists.  NaN (not
        // 0.0) so a --samples=1 run reports "CI unavailable" instead
        // of a zero-width interval, and so any aggregate or gate that
        // touches it is forced to notice (SamplingStats::hasCi).
        s.ipcStdDev = std::numeric_limits<double>::quiet_NaN();
        s.ci95Half = std::numeric_limits<double>::quiet_NaN();
    }
    return agg;
}

Metrics
Sampler::runOnce(const SimConfig &cfg, const std::string &kernel,
                 const SamplePlan &plan, const PhaseFn &phase)
{
    Sampler sampler(cfg, kernel, plan);
    return sampler.run(phase);
}

} // namespace ltp
