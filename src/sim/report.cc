#include "sim/report.hh"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "common/logging.hh"

namespace ltp {

namespace {

// Writing uses the shared ordered builder (common/json.hh) so field
// order follows the Metrics table rather than map order.

JsonObjectBuilder
metricsObject(const Metrics &m, int indent)
{
    JsonObjectBuilder o;
    o.u64("schemaVersion", kMetricsSchemaVersion);
    writeFields(o, metricFields(m), indent);

    // SMT breakdown: emitted only for genuinely multi-context runs so
    // single-threaded Metrics JSON (and the committed golden
    // snapshots) is byte-identical to the pre-SMT format.
    if (m.threads.size() > 1) {
        std::string arr = "[\n";
        for (std::size_t i = 0; i < m.threads.size(); ++i) {
            JsonObjectBuilder to;
            writeFields(to, threadFields(m.threads[i]), indent + 4);
            arr += std::string(indent + 4, ' ') + to.render(indent + 4);
            if (i + 1 < m.threads.size())
                arr += ",";
            arr += "\n";
        }
        arr += std::string(indent + 2, ' ') + "]";
        JsonObjectBuilder smt;
        smt.field("threads", arr);
        o.field("smt", smt.render(indent + 2));
    }

    // Sampling summary: emitted only for sampled runs, so full-detail
    // Metrics JSON (and golden snapshots) is byte-identical to the
    // pre-sampling format.
    if (m.sampling.enabled()) {
        const SamplingStats &s = m.sampling;
        // A CI-less run (--samples=1) omits the dispersion keys
        // entirely: "unavailable" must not round-trip as a number.
        std::vector<Field> rows;
        for (const Field &f : samplingFields(s))
            if (s.hasCi() || (f.p != &s.ipcStdDev && f.p != &s.ci95Half))
                rows.push_back(f);
        JsonObjectBuilder so;
        writeFields(so, rows, indent + 2);
        std::string ipcs = "[";
        for (std::size_t i = 0; i < s.sampleIpcs.size(); ++i) {
            if (i)
                ipcs += ", ";
            ipcs += jsonNum(s.sampleIpcs[i]);
        }
        ipcs += "]";
        so.field("sampleIpcs", ipcs);
        o.field("sampling", so.render(indent + 2));
    }
    return o;
}

} // namespace

std::string
metricsToJson(const Metrics &m, int indent)
{
    return metricsObject(m, indent).render(indent);
}

Metrics
metricsFromJson(const std::string &json)
{
    return metricsFromJson(parseJson(json));
}

Metrics
metricsFromJson(const JsonValue &root)
{
    if (root.kind != JsonValue::Kind::Object)
        throw std::runtime_error("metricsFromJson: not a JSON object");

    // Tolerant versioning: a missing field is the unversioned v1
    // format; anything newer than this reader must be rejected rather
    // than half-read with silently-defaulted fields.
    std::uint64_t version = 1;
    readFields(std::array{Field{"schemaVersion", FieldKind::U64, &version}},
               root);
    if (version < 1 || version > std::uint64_t(kMetricsSchemaVersion))
        throw std::runtime_error(strprintf(
            "metricsFromJson: unsupported schemaVersion %llu (this "
            "reader supports 1..%d)",
            static_cast<unsigned long long>(version),
            kMetricsSchemaVersion));

    // Absent fields keep their zero defaults; present ones must have
    // the kind the table says.
    Metrics m;
    readFields(metricFields(m), root);

    auto sampling = root.object.find("sampling");
    if (sampling != root.object.end() && sampling->second.isObject()) {
        SamplingStats &s = m.sampling;
        // Absent dispersion keys mean "CI unavailable" (a n=1 run),
        // which reads back as NaN — not as a zero-width interval.
        s.ipcStdDev = s.ci95Half = std::numeric_limits<double>::quiet_NaN();
        readFields(samplingFields(s), sampling->second, "sampling");
        auto ipcs = sampling->second.object.find("sampleIpcs");
        if (ipcs != sampling->second.object.end() &&
            ipcs->second.isArray()) {
            for (const JsonValue &v : ipcs->second.array)
                s.sampleIpcs.push_back(v.num);
        }
    }

    auto smt = root.object.find("smt");
    if (smt != root.object.end() && smt->second.isObject()) {
        auto threads = smt->second.object.find("threads");
        if (threads != smt->second.object.end() &&
            threads->second.isArray()) {
            for (const JsonValue &tv : threads->second.array) {
                ThreadMetrics tm;
                readFields(threadFields(tm), tv, "smt.threads");
                m.threads.push_back(tm);
            }
        }
    }
    return m;
}

std::string
reportToJson(const SweepResult &result)
{
    std::string out = "{\n";
    out += "  \"sweep\": " + jsonQuote(result.name) + ",\n";
    out += "  \"threads\": " + std::to_string(result.threads) + ",\n";
    out += "  \"simulations\": " + std::to_string(result.simulations) +
           ",\n";
    out += "  \"wall_ms\": " +
           strprintf("%.3f", result.wallMs) + ",\n";
    out += "  \"results\": [\n";

    bool first = true;
    for (const std::string &row : result.grid.rows()) {
        for (const std::string &series : result.grid.series(row)) {
            if (!first)
                out += ",\n";
            first = false;
            out += "    {\n";
            out += "      \"row\": " + jsonQuote(row) + ",\n";
            out += "      \"series\": " + jsonQuote(series) + ",\n";
            out += "      \"metrics\": " +
                   metricsToJson(result.grid.at(row, series), 6) + "\n";
            out += "    }";
        }
    }
    out += "\n  ]\n}\n";
    return out;
}

JsonValue
sweepResultToJson(const SweepResult &result)
{
    return parseJson(reportToJson(result));
}

SweepResult
sweepResultFromJson(const JsonValue &v)
{
    using Kind = JsonValue::Kind;
    SweepResult out;
    out.name = jsonField(v, "sweep", Kind::String).str;
    out.threads = int(jsonField(v, "threads", Kind::Number).num);
    out.simulations =
        std::size_t(jsonField(v, "simulations", Kind::Number).num);
    out.wallMs = jsonField(v, "wall_ms", Kind::Number).num;
    for (const JsonValue &cell :
         jsonField(v, "results", Kind::Array).array)
        out.grid.put(jsonField(cell, "row", Kind::String).str,
                     jsonField(cell, "series", Kind::String).str,
                     metricsFromJson(
                         jsonField(cell, "metrics", Kind::Object)));
    return out;
}

namespace {

/** RFC 4180 quoting for fields that contain a delimiter. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
reportToCsv(const SweepResult &result)
{
    // Per-thread breakdowns ride along as semicolon-joined lists in
    // tid order, so the table stays rectangular whatever mix of
    // single-threaded and SMT cells a sweep produces.
    auto joinThreads = [](const Metrics &m, auto field) {
        std::ostringstream out;
        for (std::size_t i = 0; i < m.threads.size(); ++i)
            out << (i ? ";" : "") << m.threads[i].*field;
        return out.str();
    };
    std::ostringstream out;
    Metrics none;
    out << "row,series";
    for (const Field &f : metricFields(none))
        out << ',' << f.path;
    out << ",threads,threadWorkloads,threadInsts,threadCycles,threadIpcs,"
        << "samples,ipcCi95\n";
    for (const std::string &row : result.grid.rows()) {
        for (const std::string &series : result.grid.series(row)) {
            const Metrics &m = result.grid.at(row, series);
            out << csvField(row) << ',' << csvField(series) << ',';
            for (const Field &f : metricFields(m)) {
                if (f.kind == FieldKind::String)
                    out << csvField(fieldRef<std::string>(f));
                else if (f.kind == FieldKind::U64)
                    out << fieldRef<std::uint64_t>(f);
                else
                    out << fieldRef<double>(f);
                out << ',';
            }
            out << m.threads.size() << ','
                << csvField(joinThreads(m, &ThreadMetrics::workload))
                << ',' << joinThreads(m, &ThreadMetrics::insts) << ','
                << joinThreads(m, &ThreadMetrics::cycles) << ','
                << joinThreads(m, &ThreadMetrics::ipc) << ','
                << m.sampling.samples << ',';
            // Empty CI field = unavailable (non-sampled row, or a
            // sampled run with too few samples for an interval).
            if (m.sampling.hasCi())
                out << m.sampling.ci95Half;
            out << '\n';
        }
    }
    return out.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << text;
}

std::string
writeJsonReport(const SweepResult &result, const std::string &path)
{
    std::string target =
        path == "1" ? "BENCH_" + result.name + ".json" : path;
    writeFile(target, reportToJson(result));
    std::printf("json report (%zu sims, %d threads, %.0f ms) written "
                "to %s\n",
                result.simulations, result.threads, result.wallMs,
                target.c_str());
    return target;
}

std::string
writeCsvReport(const SweepResult &result, const std::string &path)
{
    std::string target =
        path == "1" ? "BENCH_" + result.name + ".csv" : path;
    writeFile(target, reportToCsv(result));
    std::printf("csv written to %s\n", target.c_str());
    return target;
}

} // namespace ltp
