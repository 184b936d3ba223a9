/**
 * @file
 * Result archiving for sweeps: JSON and CSV emission so benches and CI
 * can persist a SweepResult (the BENCH_*.json perf trajectory), plus a
 * Metrics JSON round-trip used when re-reading archived results.
 *
 * The JSON dialect is deliberately small — flat objects of numbers and
 * strings, one nested object for the energy breakdown — parsed by a
 * self-contained reader (no third-party dependency).
 */

#ifndef LTP_SIM_REPORT_HH
#define LTP_SIM_REPORT_HH

#include <string>

#include "common/json.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

namespace ltp {

/** Serialize one Metrics as a JSON object (round-trip exact). */
std::string metricsToJson(const Metrics &m, int indent = 0);

/**
 * Parse a JSON object produced by metricsToJson.
 * @throws std::runtime_error on malformed input.
 */
Metrics metricsFromJson(const std::string &json);

/** metricsFromJson of an already-parsed object. */
Metrics metricsFromJson(const JsonValue &root);

/**
 * Serialize a whole sweep — `sweep` (its name), `threads`,
 * `simulations`, `wall_ms` and a `results` array of
 * `{row, series, metrics}` cells — as the indented `--json` report.
 * The one writer of the sweep-result format: the serve `sweep` reply
 * is this report plus its frame fields.
 */
std::string reportToJson(const SweepResult &result);

/** The sweep-result format as a value tree (for wire frames). */
JsonValue sweepResultToJson(const SweepResult &result);

/**
 * The one reader of the sweep-result format (a `--json` report or a
 * serve `sweep` reply); `backend` and `cacheHits` keep their defaults.
 * @throws std::runtime_error naming a missing or mistyped field.
 */
SweepResult sweepResultFromJson(const JsonValue &v);

/** Flat CSV: row, series, one column per Metrics table field, the
 *  per-thread lists, then samples and ipcCi95. */
std::string reportToCsv(const SweepResult &result);

/** Write @p text to @p path; fatal() if the file cannot be opened. */
void writeFile(const std::string &path, const std::string &text);

/**
 * Archive the JSON report at @p path ("1" selects the conventional
 * BENCH_<sweep name>.json) and print the summary line.  @return the
 * path written.
 */
std::string writeJsonReport(const SweepResult &result,
                            const std::string &path);

/** CSV sibling of writeJsonReport ("1" → BENCH_<sweep name>.csv). */
std::string writeCsvReport(const SweepResult &result,
                           const std::string &path);

} // namespace ltp

#endif // LTP_SIM_REPORT_HH
