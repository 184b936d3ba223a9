#include "sim/scenario.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "trace/suite.hh"
#include "trace/trace_workload.hh"

namespace ltp {

// ---------------------------------------------------------------------------
// Panels
// ---------------------------------------------------------------------------

Panels
classifyPanels(const RunLengths &lengths, std::uint64_t seed, int threads,
               ExecBackendPtr backend)
{
    Panels p;
    RunLengths quick = lengths;
    quick.detail = std::min<std::uint64_t>(lengths.detail, 20000);
    p.groups = classifySuite(quick, seed, threads, std::move(backend));
    return p;
}

std::vector<std::string>
panelKernels(const Panels &panels, const std::string &panel)
{
    if (panel == "mlp_sensitive")
        return panels.groups.sensitive;
    if (panel == "mlp_insensitive")
        return panels.groups.insensitive;
    return {panel};
}

std::vector<std::string>
panelNames(const Panels &p)
{
    return {p.astarLike, p.milcLike, "mlp_sensitive", "mlp_insensitive"};
}

std::string
panelRow(const std::string &panel, const std::string &point)
{
    return panel + "|" + point;
}

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("scenario: " + what);
}

[[noreturn]] void
wrongKind(const JsonValue &v, const char *want, const std::string &path)
{
    bad(std::string("expected ") + want + " at " + path + ", got " +
        JsonValue::kindName(v.kind));
}

/** Reject keys outside @p known, naming the offending path. */
void
checkKeys(const JsonValue &obj, const std::vector<std::string> &known,
          const std::string &where)
{
    for (const auto &[key, val] : obj.object) {
        (void)val;
        if (std::find(known.begin(), known.end(), key) == known.end())
            bad("unknown key '" +
                (where.empty() ? key : where + "." + key) + "'");
    }
}

const JsonValue *
find(const JsonValue &obj, const char *key)
{
    auto it = obj.object.find(key);
    return it == obj.object.end() ? nullptr : &it->second;
}

std::string
strAt(const JsonValue &obj, const char *key, const std::string &where)
{
    const JsonValue *v = find(obj, key);
    if (!v)
        bad("missing required key '" + where + "." + key + "'");
    if (!v->isString())
        wrongKind(*v, "a string", where + "." + key);
    return v->str;
}

/** Checked non-negative integer from a JSON number (via its lexeme,
 *  so fractions and signs are rejected rather than truncated). */
std::uint64_t
u64FromJson(const JsonValue &v, const std::string &path)
{
    if (!v.isNumber())
        wrongKind(v, "a number", path);
    std::uint64_t out = 0;
    if (!u64FromLexeme(v.str, &out))
        bad("expected a non-negative integer at " + path + ", got '" +
            v.str + "'");
    return out;
}

/** A sweep value / axis label: a number lexeme or a plain string. */
std::string
scalarLexeme(const JsonValue &v, const std::string &path)
{
    if (v.isNumber())
        return v.str;
    if (v.isString())
        return v.str;
    wrongKind(v, "a number or string", path);
}

std::vector<std::string>
stringList(const JsonValue &v, const std::string &path)
{
    if (!v.isArray())
        wrongKind(v, "an array", path);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < v.array.size(); ++i) {
        const JsonValue &e = v.array[i];
        if (!e.isString())
            wrongKind(e, "a string",
                      path + "[" + std::to_string(i) + "]");
        out.push_back(e.str);
    }
    return out;
}

bool
knownKernel(const std::string &name)
{
    for (const SuiteEntry &e : kernelSuite())
        if (e.name == name)
            return true;
    return false;
}

/** Resolve a (possibly relative) path against the scenario file dir. */
std::string
resolvePath(const std::string &baseDir, const std::string &path)
{
    if (baseDir.empty() || path.empty() || path[0] == '/')
        return path;
    return baseDir + "/" + path;
}

/** Validate (and cache) one `.lttr` file, naming @p where on errors. */
void
checkTraceFile(const std::string &path, const std::string &where)
{
    try {
        loadTraceCached(path);
    } catch (const std::runtime_error &e) {
        bad(std::string(e.what()) + " (at " + where + ")");
    }
}

/**
 * Validate a workload-name list: registered kernels, or `trace:<path>`
 * replays, whose relative paths are resolved in place against
 * @p baseDir and whose files must load.
 */
void
checkKernels(std::vector<std::string> &names, const std::string &where,
             const std::string &baseDir)
{
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::string at = where + "[" + std::to_string(i) + "]";
        if (isTraceName(names[i])) {
            names[i] =
                traceName(resolvePath(baseDir, tracePath(names[i])));
            checkTraceFile(tracePath(names[i]), at);
        } else if (!knownKernel(names[i])) {
            bad("unknown kernel '" + names[i] + "' at " + at);
        }
    }
}

} // namespace

RunLengths
parseLengths(const JsonValue &v, const std::string &where)
{
    if (v.isString()) {
        if (v.str == "default")
            return RunLengths{};
        if (v.str == "quick")
            return RunLengths::quick();
        if (v.str == "bench")
            return RunLengths::bench();
        bad("unknown lengths preset '" + v.str + "' at " + where +
            " (expected default|quick|bench or an object)");
    }
    if (!v.isObject())
        wrongKind(v, "an object or preset name", where);
    checkKeys(v, {"funcWarm", "pipeWarm", "detail"}, where);
    RunLengths out;
    auto u64At = [&](const char *key, std::uint64_t dflt) {
        const JsonValue *f = find(v, key);
        return f ? u64FromJson(*f, where + "." + key) : dflt;
    };
    out.funcWarm = u64At("funcWarm", out.funcWarm);
    out.pipeWarm = u64At("pipeWarm", out.pipeWarm);
    out.detail = u64At("detail", out.detail);
    return out;
}

SamplePlan
parseSampling(const JsonValue &v, const std::string &where)
{
    if (v.isString()) {
        if (v.str == "default")
            return SamplePlan::defaults();
        bad("unknown sampling preset '" + v.str + "' at " + where +
            " (expected \"default\" or an object)");
    }
    if (!v.isObject())
        wrongKind(v, "an object or preset name", where);
    checkKeys(v, {"fastForward", "warmup", "detail", "samples"}, where);
    SamplePlan out = SamplePlan::defaults();
    auto u64At = [&](const char *key, std::uint64_t dflt) {
        const JsonValue *f = find(v, key);
        return f ? u64FromJson(*f, where + "." + key) : dflt;
    };
    out.fastForward = u64At("fastForward", out.fastForward);
    out.warmup = u64At("warmup", out.warmup);
    out.detail = u64At("detail", out.detail);
    out.samples = int(u64At("samples", std::uint64_t(out.samples)));
    if (out.samples <= 0)
        bad(where + ".samples must be positive");
    if (out.detail == 0)
        bad(where + ".detail must be positive");
    return out;
}

namespace {

void
parseWorkloads(Scenario &sc, const JsonValue &v,
               const std::string &baseDir)
{
    if (!v.isObject())
        wrongKind(v, "an object", "workloads");
    checkKeys(v, {"kernels", "panels", "groups", "traces", "pairs"},
              "workloads");
    int forms = int(find(v, "kernels") != nullptr) +
                int(find(v, "panels") != nullptr) +
                int(find(v, "groups") != nullptr) +
                int(find(v, "traces") != nullptr) +
                int(find(v, "pairs") != nullptr);
    if (forms != 1)
        bad("workloads needs exactly one of kernels|panels|groups|"
            "traces|pairs");

    if (const JsonValue *k = find(v, "kernels")) {
        sc.workloadKind = Scenario::WorkloadKind::Kernels;
        sc.kernels = stringList(*k, "workloads.kernels");
        if (sc.kernels.empty())
            bad("workloads.kernels must not be empty");
        checkKernels(sc.kernels, "workloads.kernels", baseDir);
    } else if (const JsonValue *t = find(v, "traces")) {
        sc.workloadKind = Scenario::WorkloadKind::Traces;
        sc.traces = stringList(*t, "workloads.traces");
        if (sc.traces.empty())
            bad("workloads.traces must not be empty");
        for (std::size_t i = 0; i < sc.traces.size(); ++i) {
            sc.traces[i] =
                resolvePath(baseDir, tracePath(sc.traces[i]));
            checkTraceFile(sc.traces[i], "workloads.traces[" +
                                             std::to_string(i) + "]");
        }
    } else if (const JsonValue *p = find(v, "panels")) {
        sc.workloadKind = Scenario::WorkloadKind::Panels;
        if (p->isBool() && p->boolean)
            return; // all four paper panels
        sc.panels = stringList(*p, "workloads.panels");
        if (sc.panels.empty())
            bad("workloads.panels must not be empty");
        for (std::size_t i = 0; i < sc.panels.size(); ++i) {
            const std::string &name = sc.panels[i];
            if (name != "mlp_sensitive" && name != "mlp_insensitive" &&
                !knownKernel(name))
                bad("unknown panel '" + name + "' at workloads.panels[" +
                    std::to_string(i) +
                    "] (a kernel name, mlp_sensitive, or "
                    "mlp_insensitive)");
        }
    } else if (const JsonValue *p = find(v, "pairs")) {
        sc.workloadKind = Scenario::WorkloadKind::Pairs;
        if (!p->isArray() || p->array.empty())
            bad("workloads.pairs must be a non-empty array of kernel "
                "tuples");
        for (std::size_t i = 0; i < p->array.size(); ++i) {
            std::string at = "workloads.pairs[" + std::to_string(i) +
                             "]";
            std::vector<std::string> members = stringList(p->array[i],
                                                          at);
            if (members.size() < 2)
                bad(at + " needs at least two co-running workloads");
            checkKernels(members, at, baseDir);
            // '+' is the smt:<a>+<b> separator; a resolved member
            // containing one (a trace under a '+'-named directory)
            // could not be re-parsed from the tuple name.
            for (const std::string &member : members)
                if (member.find('+') != std::string::npos)
                    bad(at + " member '" + member +
                        "' contains '+', which the smt: tuple syntax "
                        "reserves as its separator (rename the path)");
            sc.pairs.push_back(std::move(members));
        }
    } else if (const JsonValue *g = find(v, "groups")) {
        sc.workloadKind = Scenario::WorkloadKind::Groups;
        if (!g->isObject())
            wrongKind(*g, "an object", "workloads.groups");
        for (const auto &[label, list] : g->object) {
            std::vector<std::string> ks =
                stringList(list, "workloads.groups." + label);
            if (ks.empty())
                bad("workloads.groups." + label + " must not be empty");
            checkKernels(ks, "workloads.groups." + label, baseDir);
            sc.groups.emplace_back(label, ks);
        }
        if (sc.groups.empty())
            bad("workloads.groups must not be empty");
    }
}

ScenarioConfig
parseConfig(const JsonValue &v, std::size_t index)
{
    std::string where = "configs[" + std::to_string(index) + "]";
    if (!v.isObject())
        wrongKind(v, "an object", where);
    checkKeys(v, {"series", "row", "preset", "mode", "name", "set"}, where);

    ScenarioConfig sc;
    sc.where = where;
    sc.series = strAt(v, "series", where);
    if (find(v, "row")) {
        sc.row = strAt(v, "row", where);
        if (sc.row.empty())
            bad(where + ".row must not be empty");
    }
    if (const JsonValue *p = find(v, "preset")) {
        if (!p->isString())
            wrongKind(*p, "a string", where + ".preset");
        sc.preset = p->str;
        if (sc.preset != "baseline" && sc.preset != "ltpProposal" &&
            sc.preset != "limitStudy")
            bad("unknown preset '" + sc.preset + "' at " + where +
                ".preset (expected baseline|ltpProposal|limitStudy)");
    }
    if (const JsonValue *m = find(v, "mode")) {
        if (!m->isString())
            wrongKind(*m, "a string", where + ".mode");
        sc.mode = parseLtpMode(m->str, where + ".mode");
        sc.hasMode = true;
    }
    if (sc.preset == "limitStudy" && !sc.hasMode)
        bad("preset limitStudy requires a mode at " + where);
    if (sc.preset == "baseline" && sc.hasMode)
        bad("mode at " + where +
            ".mode is only valid with preset ltpProposal or limitStudy "
            "(use \"set\": {\"core.ltp.mode\": ...} to force it on the "
            "baseline)");
    if (const JsonValue *n = find(v, "name")) {
        if (!n->isString())
            wrongKind(*n, "a string", where + ".name");
        sc.nameOverride = n->str;
    }
    if (const JsonValue *s = find(v, "set")) {
        if (!s->isObject())
            wrongKind(*s, "an object", where + ".set");
        sc.set = *s;
    }
    return sc;
}

ScenarioSweep
parseSweep(const JsonValue &v)
{
    if (!v.isObject())
        wrongKind(v, "an object", "sweep");
    checkKeys(v, {"path", "values"}, "sweep");

    ScenarioSweep sw;
    const JsonValue *path = find(v, "path");
    if (!path)
        bad("missing required key 'sweep.path'");
    if (path->isArray()) {
        sw.paths = stringList(*path, "sweep.path");
        if (sw.paths.empty())
            bad("sweep.path must not be an empty array");
    } else {
        sw.paths.push_back(strAt(v, "path", "sweep"));
    }
    std::vector<std::string> known = configPaths();
    for (std::size_t i = 0; i < sw.paths.size(); ++i)
        if (std::find(known.begin(), known.end(), sw.paths[i]) ==
            known.end())
            bad("unknown config path '" + sw.paths[i] + "' at sweep.path" +
                (path->isArray() ? "[" + std::to_string(i) + "]" : ""));

    const JsonValue *vals = find(v, "values");
    if (!vals)
        bad("missing required key 'sweep.values'");
    if (!vals->isArray() || vals->array.empty())
        bad("sweep.values must be a non-empty array");
    for (std::size_t i = 0; i < vals->array.size(); ++i)
        sw.values.push_back(scalarLexeme(
            vals->array[i], "sweep.values[" + std::to_string(i) + "]"));
    return sw;
}

SweepJob
parseJob(const JsonValue &v, std::size_t index,
         const std::string &baseDir)
{
    std::string where = "jobs[" + std::to_string(index) + "]";
    if (!v.isObject())
        wrongKind(v, "an object", where);
    checkKeys(v, {"row", "series", "label", "kernels", "config"}, where);

    SweepJob job;
    job.row = strAt(v, "row", where);
    job.series = strAt(v, "series", where);
    const JsonValue *ks = find(v, "kernels");
    if (!ks)
        bad("missing required key '" + where + ".kernels'");
    job.kernels = stringList(*ks, where + ".kernels");
    if (job.kernels.empty())
        bad(where + ".kernels must not be empty");
    checkKernels(job.kernels, where + ".kernels", baseDir);
    if (const JsonValue *l = find(v, "label")) {
        if (!l->isString())
            wrongKind(*l, "a string", where + ".label");
        job.label = l->str;
    } else if (job.kernels.size() == 1) {
        job.label = job.kernels[0];
    } else {
        bad("missing required key '" + where +
            ".label' (required for multi-kernel jobs)");
    }
    const JsonValue *cfg = find(v, "config");
    if (!cfg)
        bad("missing required key '" + where + ".config'");
    applyConfigJson(job.cfg, *cfg, where + ".config");
    return job;
}

/** metric(m) by Metrics table path; false if no such number. */
bool
metricField(const Metrics &m, const std::string &name, double *out)
{
    for (const Field &f : metricFields(m)) {
        if (name != f.path || f.kind == FieldKind::String)
            continue;
        *out = f.kind == FieldKind::U64
                   ? double(fieldRef<std::uint64_t>(f))
                   : fieldRef<double>(f);
        return true;
    }
    return false;
}

GridCell
parseCell(const JsonValue &v, const std::string &where)
{
    if (!v.isObject())
        wrongKind(v, "an object", where);
    checkKeys(v, {"row", "series"}, where);
    return {strAt(v, "row", where), strAt(v, "series", where)};
}

ScenarioClaim
parseClaim(const JsonValue &v, std::size_t index)
{
    std::string where = "claims[" + std::to_string(index) + "]";
    if (!v.isObject())
        wrongKind(v, "an object", where);
    checkKeys(v, {"what", "cell", "metric", "vs", "min", "max"}, where);

    ScenarioClaim c;
    c.what = strAt(v, "what", where);
    const JsonValue *cell = find(v, "cell");
    if (!cell)
        bad("missing required key '" + where + ".cell'");
    c.cell = parseCell(*cell, where + ".cell");
    c.metric = strAt(v, "metric", where);
    double unused = 0.0;
    if (!metricField(Metrics{}, c.metric, &unused))
        bad("unknown metric '" + c.metric + "' at " + where +
            ".metric (expected a numeric Metrics field, e.g. ipc)");
    if (const JsonValue *vs = find(v, "vs")) {
        c.hasVs = true;
        c.vs = parseCell(*vs, where + ".vs");
    }
    auto bound = [&](const char *key, bool *has, double *out) {
        if (const JsonValue *b = find(v, key)) {
            if (!b->isNumber())
                wrongKind(*b, "a number", where + "." + key);
            *has = true;
            *out = b->num;
        }
    };
    bound("min", &c.hasMin, &c.min);
    bound("max", &c.hasMax, &c.max);
    if (!c.hasMin && !c.hasMax)
        bad(where + " needs a min, a max, or both");
    if (c.hasMin && c.hasMax && c.min > c.max)
        bad(where + ".min exceeds " + where + ".max");
    return c;
}

/** Parse `claims` and check every cell reference against @p sc. */
void
parseClaims(Scenario &sc, const JsonValue &v)
{
    if (!v.isArray() || v.array.empty())
        bad("claims must be a non-empty array");
    std::vector<GridCell> cells = sc.cells();
    auto check = [&](const GridCell &ref, const std::string &where) {
        for (const GridCell &c : cells)
            if (c.row == ref.row && c.series == ref.series)
                return;
        bad(where + " names no grid cell (row '" + ref.row +
            "', series '" + ref.series + "')");
    };
    for (std::size_t i = 0; i < v.array.size(); ++i) {
        ScenarioClaim c = parseClaim(v.array[i], i);
        std::string where = "claims[" + std::to_string(i) + "]";
        check(c.cell, where + ".cell");
        if (c.hasVs)
            check(c.vs, where + ".vs");
        sc.claims.push_back(std::move(c));
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------------

double
ScenarioClaim::value(const ResultGrid &grid) const
{
    double v = 0.0;
    metricField(grid.at(cell.row, cell.series), metric, &v);
    if (!hasVs)
        return v;
    double ref = 0.0;
    metricField(grid.at(vs.row, vs.series), metric, &ref);
    return v / ref;
}

bool
ScenarioClaim::holds(double v) const
{
    // Written so that NaN (e.g. 0/0) fails every bound.
    return (!hasMin || v >= min) && (!hasMax || v <= max);
}

std::string
ScenarioClaim::bounds() const
{
    if (hasMin && hasMax)
        return strprintf("in [%g, %g]", min, max);
    return hasMin ? strprintf(">= %g", min) : strprintf("<= %g", max);
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

SimConfig
Scenario::buildConfig(const ScenarioConfig &sc) const
{
    SimConfig cfg;
    if (sc.preset == "baseline")
        cfg = SimConfig::baseline();
    else if (sc.preset == "ltpProposal")
        cfg = SimConfig::ltpProposal(sc.hasMode ? sc.mode : LtpMode::NU);
    else
        cfg = SimConfig::limitStudy(sc.mode);
    cfg.seed = seed;
    if (sc.set.isObject())
        applyConfigJson(cfg, sc.set, sc.where + ".set");
    if (!sc.nameOverride.empty())
        cfg.name = sc.nameOverride;
    return cfg;
}

std::vector<std::string>
Scenario::workloadLabels() const
{
    std::vector<std::string> labels;
    switch (workloadKind) {
      case WorkloadKind::Kernels:
        for (const std::string &k : kernels)
            labels.push_back(isTraceName(k) ? traceLabel(tracePath(k)) : k);
        break;
      case WorkloadKind::Traces:
        for (const std::string &path : traces)
            labels.push_back(traceLabel(path));
        break;
      case WorkloadKind::Groups:
        for (const auto &group : groups)
            labels.push_back(group.first);
        break;
      case WorkloadKind::Pairs:
        // The row label is the '+'-joined member list.
        for (const std::vector<std::string> &members : pairs) {
            std::string label = members[0];
            for (std::size_t i = 1; i < members.size(); ++i)
                label += "+" + members[i];
            labels.push_back(label);
        }
        break;
      case WorkloadKind::Panels:
        labels = panels.empty() ? panelNames(Panels{}) : panels;
        break;
      case WorkloadKind::None:
        bad("no workloads to compile");
    }

    // Row labels key the ResultGrid; a duplicate (e.g. two trace files
    // with the same stem) would silently overwrite cells.
    for (std::size_t i = 0; i < labels.size(); ++i)
        for (std::size_t j = i + 1; j < labels.size(); ++j)
            if (labels[i] == labels[j])
                bad("duplicate workload row label '" + labels[i] +
                    "' (rename one of the colliding trace files or "
                    "kernels)");
    return labels;
}

namespace {

/**
 * The cells one workload row expands to, in job order: its pinned
 * configs' `<label>|<row>` rows, then each sweep value × unpinned
 * config (or each unpinned config, unswept, without a sweep).
 * @p fn receives (row, config, sweep value or nullptr).
 */
template <typename Fn>
void
forEachCell(const Scenario &sc, const std::string &label, Fn &&fn)
{
    for (const ScenarioConfig &c : sc.configs)
        if (!c.row.empty())
            fn(panelRow(label, c.row), c, nullptr);
    if (!sc.hasSweep) {
        for (const ScenarioConfig &c : sc.configs)
            if (c.row.empty())
                fn(label, c, nullptr);
        return;
    }
    for (const std::string &value : sc.sweep.values)
        for (const ScenarioConfig &c : sc.configs)
            if (c.row.empty())
                fn(panelRow(label, value), c, &value);
}

} // namespace

std::vector<GridCell>
Scenario::cells() const
{
    std::vector<GridCell> out;
    if (explicitJobs) {
        for (const SweepJob &job : jobs)
            out.push_back({job.row, job.series});
        return out;
    }
    for (const std::string &label : workloadLabels())
        forEachCell(*this, label,
                    [&](const std::string &row, const ScenarioConfig &c,
                        const std::string *) {
                        out.push_back({row, c.series});
                    });
    return out;
}

SweepSpec
Scenario::compile(int threads, ExecBackendPtr backend) const
{
    SweepSpec spec;
    spec.name = name;
    spec.lengths = lengths;
    spec.sampling = sampling;

    if (explicitJobs) {
        spec.jobs = jobs;
        // Exported jobs carry their own seeds; an explicit scenario or
        // driver seed overrides them all.
        if (hasSeed)
            for (SweepJob &job : spec.jobs)
                job.cfg.seed = seed;
        return spec;
    }

    std::vector<std::string> labels = workloadLabels();
    Panels classified;
    if (workloadKind == WorkloadKind::Panels)
        classified = classifyPanels(lengths, seed, threads, backend);

    // The kernels behind row label i: one simulation per kernel or
    // trace, a group average, or one multiprogrammed smt: tuple (the
    // Simulator raises core.numThreads to the tuple size).
    auto kernelsOf = [&](std::size_t i) -> std::vector<std::string> {
        switch (workloadKind) {
          case WorkloadKind::Kernels: return {kernels[i]};
          case WorkloadKind::Traces: return {traceName(traces[i])};
          case WorkloadKind::Groups: return groups[i].second;
          case WorkloadKind::Pairs: return {smtName(pairs[i])};
          default: return panelKernels(classified, labels[i]);
        }
    };

    for (std::size_t i = 0; i < labels.size(); ++i) {
        std::vector<std::string> ks = kernelsOf(i);
        forEachCell(*this, labels[i],
                    [&](const std::string &row, const ScenarioConfig &c,
                        const std::string *value) {
                        SimConfig cfg = buildConfig(c);
                        if (value)
                            for (const std::string &path : sweep.paths)
                                applyOverride(cfg, path, *value);
                        spec.addGroup(row, c.series, cfg, ks, labels[i]);
                    });
    }
    return spec;
}

Scenario
scenarioFromJson(const std::string &text, const std::string &baseDir)
{
    JsonValue root = parseJson(text);
    if (!root.isObject())
        wrongKind(root, "an object", "<top level>");
    checkKeys(root,
              {"name", "lengths", "sampling", "seed", "workloads",
               "configs", "sweep", "jobs", "claims"},
              "");

    Scenario sc;
    sc.name = strAt(root, "name", "<top level>");
    if (const JsonValue *l = find(root, "lengths"))
        sc.lengths = parseLengths(*l, "lengths");
    if (const JsonValue *sp = find(root, "sampling"))
        sc.sampling = parseSampling(*sp, "sampling");
    if (const JsonValue *s = find(root, "seed")) {
        sc.seed = u64FromJson(*s, "seed");
        sc.hasSeed = true;
    }
    const JsonValue *claims = find(root, "claims");

    if (const JsonValue *jobs = find(root, "jobs")) {
        for (const char *key : {"workloads", "configs", "sweep"})
            if (find(root, key))
                bad(std::string("'jobs' and '") + key +
                    "' are mutually exclusive");
        if (!jobs->isArray() || jobs->array.empty())
            bad("jobs must be a non-empty array");
        sc.explicitJobs = true;
        for (std::size_t i = 0; i < jobs->array.size(); ++i)
            sc.jobs.push_back(parseJob(jobs->array[i], i, baseDir));
        if (claims)
            parseClaims(sc, *claims);
        return sc;
    }

    const JsonValue *w = find(root, "workloads");
    if (!w)
        bad("missing required key 'workloads' (or an explicit 'jobs' "
            "array)");
    parseWorkloads(sc, *w, baseDir);

    const JsonValue *configs = find(root, "configs");
    if (!configs)
        bad("missing required key 'configs'");
    if (!configs->isArray() || configs->array.empty())
        bad("configs must be a non-empty array");
    for (std::size_t i = 0; i < configs->array.size(); ++i) {
        ScenarioConfig c = parseConfig(configs->array[i], i);
        for (const ScenarioConfig &prev : sc.configs)
            if (prev.series == c.series && prev.row == c.row)
                bad("duplicate series '" + c.series + "'" +
                    (c.row.empty() ? "" : " in row '" + c.row + "'") +
                    " at " + c.where);
        sc.configs.push_back(std::move(c));
    }

    if (const JsonValue *sweep = find(root, "sweep")) {
        sc.hasSweep = true;
        sc.sweep = parseSweep(*sweep);
        bool swept = false;
        for (const ScenarioConfig &c : sc.configs) {
            swept = swept || c.row.empty();
            // A pinned row named like a sweep point would share its
            // grid row.
            for (const std::string &v : sc.sweep.values)
                if (c.row == v)
                    bad(c.where + ".row '" + c.row +
                        "' collides with a sweep value");
        }
        if (!swept)
            bad("sweep needs at least one config without a row");
    }

    // Validate every config template and sweep value eagerly so errors
    // surface at parse time, naming their path, not mid-run.
    for (const ScenarioConfig &c : sc.configs) {
        SimConfig cfg = sc.buildConfig(c);
        if (sc.hasSweep && c.row.empty())
            for (const std::string &v : sc.sweep.values)
                for (const std::string &path : sc.sweep.paths) {
                    try {
                        applyOverride(cfg, path, v);
                    } catch (const std::runtime_error &e) {
                        throw std::runtime_error(std::string(e.what()) +
                                                 " (in sweep.values)");
                    }
                }
    }
    if (claims)
        parseClaims(sc, *claims);
    return sc;
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("scenario: cannot open '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    // Trace paths inside the file resolve relative to the file itself.
    std::size_t slash = path.find_last_of("/\\");
    std::string base_dir =
        slash == std::string::npos ? "" : path.substr(0, slash);
    try {
        return scenarioFromJson(text.str(), base_dir);
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::string
sweepSpecToJson(const SweepSpec &spec)
{
    std::string out = "{\n";
    out += "  \"name\": " + jsonQuote(spec.name) + ",\n";
    out += "  \"lengths\": {\"funcWarm\": " +
           std::to_string(spec.lengths.funcWarm) +
           ", \"pipeWarm\": " + std::to_string(spec.lengths.pipeWarm) +
           ", \"detail\": " + std::to_string(spec.lengths.detail) +
           "},\n";
    if (spec.sampling.enabled()) {
        out += "  \"sampling\": {\"fastForward\": " +
               std::to_string(spec.sampling.fastForward) +
               ", \"warmup\": " + std::to_string(spec.sampling.warmup) +
               ", \"detail\": " + std::to_string(spec.sampling.detail) +
               ", \"samples\": " + std::to_string(spec.sampling.samples) +
               "},\n";
    }
    out += "  \"jobs\": [\n";
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SweepJob &job = spec.jobs[i];
        out += "    {\n";
        out += "      \"row\": " + jsonQuote(job.row) + ",\n";
        out += "      \"series\": " + jsonQuote(job.series) + ",\n";
        out += "      \"label\": " + jsonQuote(job.label) + ",\n";
        out += "      \"kernels\": [";
        for (std::size_t k = 0; k < job.kernels.size(); ++k) {
            if (k)
                out += ", ";
            out += jsonQuote(job.kernels[k]);
        }
        out += "],\n";
        out += "      \"config\": " + configToJson(job.cfg, 6) + "\n";
        out += "    }";
        if (i + 1 < spec.jobs.size())
            out += ",";
        out += "\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace ltp
