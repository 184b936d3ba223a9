/**
 * @file
 * Tests for the scenario layer: parse errors naming the offending JSON
 * path, declarative compilation onto SweepSpec (pinned rows and
 * multi-path sweeps included), claims, the explicit-jobs export round
 * trip, and the shipped files under scenarios/ — the quick Figure 6 IQ
 * file must compile to the full-length one's SweepSpec at equal
 * staging.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

#ifndef LTP_SCENARIO_DIR
#define LTP_SCENARIO_DIR "scenarios"
#endif

namespace ltp {
namespace {

template <typename Fn>
std::string
messageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

void
expectParseErrorContains(const std::string &json,
                         const std::string &needle)
{
    std::string msg = messageOf([&]() { (void)scenarioFromJson(json); });
    EXPECT_FALSE(msg.empty()) << "no error for: " << json;
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "error '" << msg << "' does not mention '" << needle << "'";
}

/** Structural equality of two specs: equality of every job's keys,
 *  kernels, and full config dump, plus name and staging. */
void
expectSpecsIdentical(const SweepSpec &a, const SweepSpec &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.lengths.funcWarm, b.lengths.funcWarm);
    EXPECT_EQ(a.lengths.pipeWarm, b.lengths.pipeWarm);
    EXPECT_EQ(a.lengths.detail, b.lengths.detail);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        const SweepJob &ja = a.jobs[i];
        const SweepJob &jb = b.jobs[i];
        EXPECT_EQ(ja.row, jb.row) << "job " << i;
        EXPECT_EQ(ja.series, jb.series) << "job " << i;
        EXPECT_EQ(ja.label, jb.label) << "job " << i;
        EXPECT_EQ(ja.kernels, jb.kernels) << "job " << i;
        EXPECT_EQ(configToJson(ja.cfg), configToJson(jb.cfg))
            << "job " << i << " (" << ja.row << ", " << ja.series << ")";
    }
}

// ---------------------------------------------------------------------------
// Parse errors name the offending path
// ---------------------------------------------------------------------------

TEST(Scenario, UnknownKeysNameTheirPath)
{
    expectParseErrorContains("{\"name\": \"x\", \"frobnicate\": 1}",
                             "frobnicate");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernel\": []}}",
        "workloads.kernel");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"spreset\": \"b\"}]}",
        "configs[0].spreset");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"set\": {\"core\": {\"iqq\": 1}}}]}",
        "configs[0].set.core.iqq");
}

TEST(Scenario, WrongTypesNameTheirPath)
{
    expectParseErrorContains("[1]", "<top level>");
    expectParseErrorContains("{\"name\": 3}", "name");
    expectParseErrorContains(
        "{\"name\": \"x\", \"lengths\": {\"detail\": \"long\"}}",
        "lengths.detail");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": [7]}}",
        "workloads.kernels[0]");
    expectParseErrorContains(
        "{\"name\": \"x\", \"lengths\": {\"detail\": -1}}",
        "lengths.detail");
    expectParseErrorContains("{\"name\": \"x\", \"seed\": 1.5}",
                             "seed");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"set\": {\"core.iq\": true}}]}",
        "configs[0].set.core.iq");
}

TEST(Scenario, TruncatedAndMalformedJsonFailsLoudly)
{
    // Truncated mid-object / mid-string / mid-array: the JSON reader
    // itself must reject these rather than silently defaulting.
    for (const std::string &text :
         {std::string("{\"name\": \"x\", \"workloads\": {"),
          std::string("{\"name\": \"tru"),
          std::string("{\"name\": \"x\", \"configs\": [{\"series\": "
                      "\"a\"}"),
          std::string("{\"name\": \"x\","), std::string("{"),
          std::string("")}) {
        std::string msg =
            messageOf([&]() { (void)scenarioFromJson(text); });
        EXPECT_FALSE(msg.empty()) << "no error for: '" << text << "'";
    }
}

TEST(Scenario, UnknownSweepKeysNameTheirPath)
{
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [1], "
        "\"valuess\": [2]}}",
        "sweep.valuess");
    // The single-series baseline row is gone; pinned configs replace it.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [1], "
        "\"baseline\": {\"series\": \"a\", \"value\": 1}}}",
        "sweep.baseline");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": [\"core.intRegs\", \"core.fpRegz\"], "
        "\"values\": [1]}}",
        "sweep.path[1]");
}

TEST(Scenario, TraceWorkloadErrorsNameTheirPath)
{
    // Exactly one workload form.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"], \"traces\": [\"a.lttr\"]}}",
        "exactly one of");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"traces\": []}}",
        "workloads.traces must not be empty");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"traces\": [42]}}",
        "workloads.traces[0]");
    // A missing file is caught eagerly, naming the entry.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"traces\": "
        "[\"/nonexistent/missing.lttr\"]}}",
        "workloads.traces[0]");
    // `trace:` names inside kernel lists are validated the same way.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"trace:/nonexistent/missing.lttr\"]}}",
        "workloads.kernels[0]");
}

TEST(Scenario, SemanticErrorsAreDescriptive)
{
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\", \"no_such_kernel\"]}}",
        "workloads.kernels[1]");
    expectParseErrorContains(
        "{\"name\": \"x\", \"lengths\": \"fastish\"}", "fastish");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"preset\": \"turbo\"}]}",
        "configs[0].preset");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"preset\": \"limitStudy\"}]}",
        "requires a mode");
    // A mode on the baseline preset would be silently ignored.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"mode\": \"NR\"}]}",
        "configs[0].mode");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iqq\", \"values\": [1]}}",
        "sweep.path");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}, "
        "{\"series\": \"a\"}]}",
        "duplicate series");
    // The explicit-jobs form is gone: `jobs` is an unknown key.
    expectParseErrorContains(
        "{\"name\": \"x\", \"jobs\": [], \"configs\": []}",
        "unknown key 'jobs'");
    // Pinned rows: unique per (row, series), never a sweep point.
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"row\": \"base\"}, {\"series\": \"a\", \"row\": \"base\"}]}",
        "duplicate series 'a' in row 'base' at configs[1]");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"row\": \"32\"}, {\"series\": \"a\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [32]}}",
        "configs[0].row");
    expectParseErrorContains(
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\", "
        "\"row\": \"base\"}], "
        "\"sweep\": {\"path\": \"core.iq\", \"values\": [32]}}",
        "without a row");
}

TEST(Scenario, ClaimErrorsNameTheirPath)
{
    const std::string head =
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}, "
        "{\"series\": \"b\", \"row\": \"base\"}], \"claims\": ";
    const std::string ok =
        "{\"what\": \"w\", \"cell\": {\"row\": \"graph_walk\", "
        "\"series\": \"a\"}, \"metric\": \"ipc\", \"min\": 0}";
    EXPECT_EQ(scenarioFromJson(head + "[" + ok + "]}").claims.size(), 1u);

    expectParseErrorContains(head + "[]}", "claims must be");
    expectParseErrorContains(
        head + "[" + ok + ", {\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk|32\", \"series\": \"a\"}, \"metric\": \"ipc\", "
        "\"min\": 1}]}",
        "claims[1].cell names no grid cell (row 'graph_walk|32'");
    expectParseErrorContains(
        head + "[{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\", \"series\": \"a\"}, \"vs\": {\"row\": "
        "\"graph_walk|base\", \"series\": \"a\"}, \"metric\": "
        "\"ipc\", \"min\": 1}]}",
        "claims[0].vs names no grid cell");
    expectParseErrorContains(
        head + "[{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\", \"series\": \"a\"}, \"metric\": \"ipcc\", "
        "\"min\": 1}]}",
        "claims[0].metric");
    expectParseErrorContains(
        head + "[{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\", \"series\": \"a\"}, \"metric\": \"ipc\"}]}",
        "claims[0] needs a min, a max, or both");
    expectParseErrorContains(
        head + "[{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\", \"series\": \"a\"}, \"metric\": \"ipc\", "
        "\"min\": 2, \"max\": 1}]}",
        "claims[0].min exceeds");
    expectParseErrorContains(
        head + "[{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\", \"series\": \"a\"}, \"metric\": \"ipc\", "
        "\"max\": \"1\"}]}",
        "claims[0].max");
    expectParseErrorContains(
        head + "[{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\"}, \"metric\": \"ipc\", \"min\": 1}]}",
        "claims[0].cell.series");
}

// ---------------------------------------------------------------------------
// Declarative compilation
// ---------------------------------------------------------------------------

TEST(Scenario, DeclarativeCompileMatchesHandBuiltSpec)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"mini\","
        " \"lengths\": \"quick\","
        " \"seed\": 7,"
        " \"workloads\": {\"kernels\": [\"graph_walk\", "
        "\"dense_compute\"]},"
        " \"configs\": ["
        "   {\"series\": \"no-LTP\", \"preset\": \"baseline\"},"
        "   {\"series\": \"LTP\", \"preset\": \"ltpProposal\","
        "    \"mode\": \"NU\", \"set\": {\"core.ltp.entries\": 64}}],"
        " \"sweep\": {\"path\": \"core.iq\", \"values\": [16, 32]}}");
    SweepSpec got = sc.compile(1);

    SweepSpec want;
    want.name = "mini";
    want.lengths = RunLengths::quick();
    for (const std::string k : {"graph_walk", "dense_compute"})
        for (int iq : {16, 32}) {
            want.addGroup(k + "|" + std::to_string(iq), "no-LTP",
                          SimConfig::baseline().withSeed(7).withIq(iq),
                          {k}, k);
            want.addGroup(k + "|" + std::to_string(iq), "LTP",
                          SimConfig::ltpProposal(LtpMode::NU)
                              .withSeed(7)
                              .withLtp(LtpMode::NU, 64, 4)
                              .withIq(iq),
                          {k}, k);
        }
    // Hand-built order is per-kernel, per-size, per-series; the
    // compiler emits per-kernel, per-size, per-series too.
    expectSpecsIdentical(got, want);
}

TEST(Scenario, PinnedRowsAndMultiPathSweepCompile)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"rf\","
        " \"lengths\": \"quick\","
        " \"workloads\": {\"kernels\": [\"graph_walk\"]},"
        " \"configs\": ["
        "   {\"series\": \"off\", \"row\": \"base\","
        "    \"preset\": \"limitStudy\", \"mode\": \"off\","
        "    \"set\": {\"core.intRegs\": 128, \"core.fpRegs\": 128}},"
        "   {\"series\": \"shrink\", \"row\": \"base\","
        "    \"preset\": \"baseline\", \"name\": \"shrink\"},"
        "   {\"series\": \"off\", \"preset\": \"limitStudy\","
        "    \"mode\": \"off\"}],"
        " \"sweep\": {\"path\": [\"core.intRegs\", \"core.fpRegs\"],"
        "   \"values\": [\"inf\", 64]}}");
    SweepSpec got = sc.compile(1);

    SweepSpec want;
    want.name = "rf";
    want.lengths = RunLengths::quick();
    SimConfig off = SimConfig::limitStudy(LtpMode::Off);
    want.addGroup("graph_walk|base", "off", SimConfig(off).withRegs(128),
                  {"graph_walk"}, "graph_walk");
    want.addGroup("graph_walk|base", "shrink",
                  SimConfig::baseline().withName("shrink"), {"graph_walk"},
                  "graph_walk");
    want.addGroup("graph_walk|inf", "off",
                  SimConfig(off).withRegs(kInfiniteSize), {"graph_walk"},
                  "graph_walk");
    want.addGroup("graph_walk|64", "off", SimConfig(off).withRegs(64),
                  {"graph_walk"}, "graph_walk");
    expectSpecsIdentical(got, want);

    // cells() lists the same (row, series) pairs, known before compile.
    std::vector<GridCell> cells = sc.cells();
    ASSERT_EQ(cells.size(), got.jobs.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].row, got.jobs[i].row);
        EXPECT_EQ(cells[i].series, got.jobs[i].series);
    }
}

TEST(Scenario, ClaimsEvaluateMetricsAndRatios)
{
    ResultGrid grid;
    Metrics base, small;
    base.ipc = 2.0;
    small.ipc = 1.5;
    small.avgOutstanding = 4.0;
    grid.put("k|base", "a", base);
    grid.put("k|32", "a", small);

    ScenarioClaim ratio;
    ratio.cell = {"k|32", "a"};
    ratio.vs = {"k|base", "a"};
    ratio.hasVs = true;
    ratio.metric = "ipc";
    ratio.hasMax = true;
    ratio.max = 0.8;
    EXPECT_DOUBLE_EQ(ratio.value(grid), 0.75);
    EXPECT_TRUE(ratio.holds(ratio.value(grid)));
    EXPECT_EQ(ratio.bounds(), "<= 0.8");

    ScenarioClaim plain;
    plain.cell = {"k|32", "a"};
    plain.metric = "avgOutstanding";
    plain.hasMin = true;
    plain.min = 4.5;
    EXPECT_DOUBLE_EQ(plain.value(grid), 4.0);
    EXPECT_FALSE(plain.holds(plain.value(grid)));
    plain.hasMax = true;
    plain.max = 5.0;
    EXPECT_EQ(plain.bounds(), "in [4.5, 5]");
    // 0/0 fails every bound rather than passing vacuously.
    EXPECT_FALSE(plain.holds(0.0 / 0.0));
}

TEST(Scenario, ClaimsReadEveryNumericTableField)
{
    Metrics m;
    int i = 0;
    for (const Field &f : metricFields(m)) {
        i += 1;
        if (f.kind == FieldKind::U64)
            fieldRef<std::uint64_t>(f) = std::uint64_t(i);
        else if (f.kind == FieldKind::Double)
            fieldRef<double>(f) = i + 0.5;
    }
    ResultGrid grid;
    grid.put("k", "a", m);
    for (const Field &f : metricFields(m)) {
        if (f.kind == FieldKind::String)
            continue;
        ScenarioClaim c;
        c.cell = {"k", "a"};
        c.metric = f.path;
        double want = f.kind == FieldKind::U64
                          ? double(fieldRef<std::uint64_t>(f))
                          : fieldRef<double>(f);
        EXPECT_EQ(c.value(grid), want) << f.path;
    }

    // Nested paths are claimable; string fields are not.
    const std::string head =
        "{\"name\": \"x\", \"workloads\": {\"kernels\": "
        "[\"graph_walk\"]}, \"configs\": [{\"series\": \"a\"}], "
        "\"claims\": [{\"what\": \"w\", \"cell\": {\"row\": "
        "\"graph_walk\", \"series\": \"a\"}, \"min\": 0, \"metric\": ";
    EXPECT_EQ(scenarioFromJson(head + "\"energy.iq\"}]}").claims.size(), 1u);
    expectParseErrorContains(head + "\"config\"}]}", "claims[0].metric");
    expectParseErrorContains(head + "\"schemaVersion\"}]}",
                             "claims[0].metric");
}

TEST(Scenario, GroupWorkloadsAverageLikeAddGroup)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"groups\","
        " \"lengths\": \"quick\","
        " \"workloads\": {\"groups\": {\"ilp\": [\"dense_compute\", "
        "\"reduction\"]}},"
        " \"configs\": [{\"series\": \"base\", \"preset\": "
        "\"baseline\"}]}");
    SweepSpec spec = sc.compile(1);
    ASSERT_EQ(spec.jobs.size(), 1u);
    EXPECT_EQ(spec.jobs[0].row, "ilp");
    EXPECT_EQ(spec.jobs[0].label, "ilp");
    EXPECT_EQ(spec.jobs[0].kernels,
              (std::vector<std::string>{"dense_compute", "reduction"}));
    EXPECT_EQ(spec.simulationCount(), 2u);
}

TEST(Scenario, NameOverrideAndSeedPropagate)
{
    Scenario sc = scenarioFromJson(
        "{\"name\": \"n\", \"seed\": 99,"
        " \"workloads\": {\"kernels\": [\"graph_walk\"]},"
        " \"configs\": [{\"series\": \"s\", \"preset\": \"baseline\","
        "   \"name\": \"relabelled\"}]}");
    SweepSpec spec = sc.compile(1);
    ASSERT_EQ(spec.jobs.size(), 1u);
    EXPECT_EQ(spec.jobs[0].cfg.name, "relabelled");
    EXPECT_EQ(spec.jobs[0].cfg.seed, 99u);
}

// ---------------------------------------------------------------------------
// Golden scenarios shipped in scenarios/
// ---------------------------------------------------------------------------

TEST(Scenario, GoldenFig6IqQuickMatchesFullLengthFile)
{
    Scenario quick =
        loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                         "/fig6_iq_quick.json");
    EXPECT_EQ(quick.name, "fig6_IQ");
    EXPECT_EQ(quick.lengths.funcWarm, 6000u);
    EXPECT_EQ(quick.lengths.pipeWarm, 1000u);
    EXPECT_EQ(quick.lengths.detail, 3000u);
    EXPECT_EQ(quick.seed, 1u);
    EXPECT_TRUE(quick.claims.empty());

    // The figure file differs only in staging (and its claims): at the
    // quick file's staging both compile to the same SweepSpec, so the
    // quick goldens stand for the full figure.
    Scenario full = loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                                     "/fig6_iq.json");
    EXPECT_EQ(full.lengths.detail, RunLengths::bench().detail);
    EXPECT_FALSE(full.claims.empty());
    full.lengths = quick.lengths;
    SweepSpec from_quick = quick.compile(2);
    expectSpecsIdentical(from_quick, full.compile(2));
    // 4 panels x (1 base + 5 sizes x 4 modes).
    EXPECT_EQ(from_quick.jobs.size(), 84u);
}

TEST(Scenario, GoldenTable1CompareUsesTheExactPresets)
{
    Scenario sc =
        loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                         "/table1_compare.json");
    EXPECT_EQ(sc.workloadKind, Scenario::WorkloadKind::Panels);
    EXPECT_EQ(sc.lengths.funcWarm, RunLengths::bench().funcWarm);
    ASSERT_EQ(sc.configs.size(), 2u);
    EXPECT_EQ(configToJson(sc.buildConfig(sc.configs[0])),
              configToJson(SimConfig::baseline().withSeed(sc.seed)));
    EXPECT_EQ(configToJson(sc.buildConfig(sc.configs[1])),
              configToJson(
                  SimConfig::ltpProposal(LtpMode::NU).withSeed(sc.seed)));
}

TEST(Scenario, GoldenIqSweepExampleParses)
{
    Scenario sc =
        loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                         "/iq_sweep_example.json");
    EXPECT_EQ(sc.workloadKind, Scenario::WorkloadKind::Kernels);
    SweepSpec spec = sc.compile(1);
    // 2 kernels x 4 sizes x 2 configs.
    EXPECT_EQ(spec.jobs.size(), 16u);
    EXPECT_EQ(spec.simulationCount(), 16u);
}

} // namespace
} // namespace ltp
