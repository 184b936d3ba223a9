/**
 * @file
 * Declarative experiment scenarios: a JSON schema describing presets +
 * overrides, kernel lists / panel groups, run lengths, seeds, the
 * row×series sweep shape, and the claims its results must satisfy,
 * compiled into the Runner's SweepSpec.  Every paper figure, table
 * and ablation ships as a file under scenarios/.
 *
 * Two forms:
 *
 *  - **Declarative** — `workloads` (kernels | panels | groups | traces
 *    | pairs) crossed with `configs` (preset + mode + dotted `set`
 *    overrides), optionally swept along one or more config paths set
 *    to the same value per row (`sweep`).  A config with a `row` is
 *    pinned to the unswept `<workload>|<row>` row instead (the
 *    reference points a figure normalises against).  `traces` rows
 *    replay recorded `.lttr` files (paths relative to the scenario
 *    file); `trace:<path>` names are also accepted anywhere a kernel
 *    name is.
 *  - **Explicit** — a `jobs` array of (row, series, kernels, full
 *    config); what `sweepSpecToJson` exports, so any in-C++ SweepSpec
 *    round-trips through a file.
 *
 * Either form may carry `claims`: bounds on one grid cell's metric, or
 * on its ratio to another cell's, that `ltp sweep` reports and the
 * claims test asserts at the file's own staging.
 *
 * Malformed scenarios throw std::runtime_error naming the offending
 * JSON path ("configs[2].set.core.iqq", "claims[0].vs.row", ...).
 * README.md documents the full schema.
 */

#ifndef LTP_SIM_SCENARIO_HH
#define LTP_SIM_SCENARIO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/config.hh"
#include "sim/mlp_class.hh"
#include "sim/runner.hh"

namespace ltp {

// ---------------------------------------------------------------------------
// Panels: the paper's four reporting units (two marquee kernels + the
// two runtime-classified groups), used by panel scenarios and the
// `ltp classify` command.
// ---------------------------------------------------------------------------

/** The four panels of Figure 6/7: two marquee kernels + two groups. */
struct Panels
{
    std::string astarLike = "graph_walk";
    std::string milcLike = "indirect_stream_fp";
    SuiteGroups groups;
};

/**
 * Classify the registered suite with the Section 4.1 runtime criteria
 * (detail capped at 20k instructions, as all panel consumers do).
 * @p backend routes the classification cells (null = in-process).
 */
Panels classifyPanels(const RunLengths &lengths, std::uint64_t seed,
                      int threads = 0, ExecBackendPtr backend = nullptr);

/** The kernels behind a panel name (single kernel or a whole group). */
std::vector<std::string> panelKernels(const Panels &panels,
                                      const std::string &panel);

/** The four standard panel identifiers, in paper order. */
std::vector<std::string> panelNames(const Panels &p);

/** Grid key for a (panel, axis point) cell: "<panel>|<point>". */
std::string panelRow(const std::string &panel, const std::string &point);

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/** One series of a declarative scenario: a config template. */
struct ScenarioConfig
{
    std::string series;            ///< grid series key
    std::string row;               ///< pinned unswept row ("" = swept)
    std::string preset = "baseline"; ///< baseline | ltpProposal | limitStudy
    bool hasMode = false;
    LtpMode mode = LtpMode::NU;    ///< preset factory argument
    std::string nameOverride;      ///< optional SimConfig::name override
    JsonValue set;                 ///< partial config JSON (dotted or nested)
    std::string where;             ///< error-path prefix ("configs[2]")
};

/** Optional row axis: config paths all set to each value in turn. */
struct ScenarioSweep
{
    std::vector<std::string> paths;  ///< e.g. {"core.iq"}
    std::vector<std::string> values; ///< "inf" or number lexemes, in order
};

/** One grid cell reference: (row, series). */
struct GridCell
{
    std::string row;
    std::string series;
};

/**
 * A checked expectation: metric(cell), or metric(cell)/metric(vs) when
 * `vs` is given, must lie within [min, max].  Metric names are the
 * numeric paths of the Metrics table (metricFields), e.g. `ipc` or
 * `energy.iq`.
 */
struct ScenarioClaim
{
    std::string what;
    GridCell cell;
    std::string metric;
    bool hasVs = false;
    GridCell vs;
    bool hasMin = false;
    double min = 0.0;
    bool hasMax = false;
    double max = 0.0;

    /** The claimed value on @p grid (throws if a cell is missing). */
    double value(const ResultGrid &grid) const;
    /** Whether @p v lies within the claim's bounds. */
    bool holds(double v) const;
    /** The bounds as text, e.g. ">= 1.5", "in [0.9, 1.1]". */
    std::string bounds() const;
};

/** A parsed, validated scenario file. */
struct Scenario
{
    std::string name = "scenario";
    RunLengths lengths;
    /** Optional `sampling` block: interval sampling for every cell
     *  (disabled by default = full detail). */
    SamplePlan sampling;
    std::uint64_t seed = 1;
    /** True when the file (or a driver flag) set the seed explicitly —
     *  only then does it override the per-job seeds of an
     *  explicit-jobs scenario. */
    bool hasSeed = false;

    enum class WorkloadKind { None, Kernels, Panels, Groups, Traces,
                              Pairs };
    WorkloadKind workloadKind = WorkloadKind::None;
    std::vector<std::string> kernels;  ///< WorkloadKind::Kernels
    std::vector<std::string> panels;   ///< Panels; empty = all four
    std::vector<std::pair<std::string, std::vector<std::string>>> groups;
    std::vector<std::string> traces;   ///< Traces: resolved .lttr paths
    /** Pairs: multiprogrammed SMT tuples — one kernel (or trace) per
     *  hardware thread; each tuple compiles to an `smt:<a>+<b>`
     *  workload with core.numThreads forced to the tuple size. */
    std::vector<std::vector<std::string>> pairs;

    std::vector<ScenarioConfig> configs;
    bool hasSweep = false;
    ScenarioSweep sweep;

    bool explicitJobs = false;
    std::vector<SweepJob> jobs;

    std::vector<ScenarioClaim> claims; ///< checked by `ltp sweep`

    /**
     * Compile to a runnable SweepSpec.  Panels scenarios classify the
     * suite first, sharded over @p threads workers (grouping is
     * thread-count independent) and routed through @p backend (null =
     * in-process), so a cached/served sweep also answers its
     * classification matrix from the cache.
     */
    SweepSpec compile(int threads = 1,
                      ExecBackendPtr backend = nullptr) const;

    /** Materialize one series config: preset(mode) + seed + overrides. */
    SimConfig buildConfig(const ScenarioConfig &sc) const;

    /** Every (row, series) cell the compiled grid will hold, in job
     *  order; needs no classification, so it is known at parse time. */
    std::vector<GridCell> cells() const;

  private:
    /** Row labels of the declared workloads, in paper order. */
    std::vector<std::string> workloadLabels() const;
};

/**
 * The `lengths` value of a scenario file or `run` frame: a preset name
 * (default | quick | bench) or an object whose absent fields keep the
 * defaults.  @p where prefixes error paths ("lengths.detail").
 * @throws std::runtime_error naming the offending path.
 */
RunLengths parseLengths(const JsonValue &v, const std::string &where);

/**
 * The `sampling` value: "default" or an object whose absent fields
 * keep SamplePlan::defaults(); samples and detail must be positive.
 * @throws std::runtime_error naming the offending path.
 */
SamplePlan parseSampling(const JsonValue &v, const std::string &where);

/**
 * Parse and validate scenario JSON.  Relative `.lttr` trace paths are
 * resolved against @p baseDir (empty = the working directory) and the
 * files validated (header/CRC) eagerly.
 * @throws std::runtime_error naming the offending path on unknown
 *         keys, bad types, unknown kernels/presets/config paths, and
 *         missing or corrupt trace files.
 */
Scenario scenarioFromJson(const std::string &text,
                          const std::string &baseDir = "");

/** Read and parse @p path; errors are prefixed with the file name. */
Scenario loadScenarioFile(const std::string &path);

/** Export a SweepSpec as an explicit-jobs scenario file (round-trips
 *  through scenarioFromJson + compile). */
std::string sweepSpecToJson(const SweepSpec &spec);

} // namespace ltp

#endif // LTP_SIM_SCENARIO_HH
