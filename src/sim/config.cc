#include "sim/config.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sim/fields.hh"

namespace ltp {

SimConfig
SimConfig::baseline()
{
    SimConfig cfg;
    cfg.name = "base-iq64-rf128";
    // CoreConfig/MemConfig defaults already encode Table 1.
    cfg.core.ltp.mode = LtpMode::Off;
    return cfg;
}

SimConfig
SimConfig::ltpProposal(LtpMode mode)
{
    SimConfig cfg;
    cfg.name = std::string("ltp-") + ltpModeName(mode) + "-iq32-rf96";
    cfg.core.iqSize = 32;
    cfg.core.intRegs = 96;
    cfg.core.fpRegs = 96;
    cfg.core.ltp.mode = mode;
    cfg.core.ltp.classifier = ClassifierKind::Learned;
    cfg.core.ltp.entries = 128;
    cfg.core.ltp.insertPorts = 4;
    cfg.core.ltp.extractPorts = 4;
    cfg.core.ltp.uitEntries = 256;
    cfg.core.ltp.useMonitor = true;
    return cfg;
}

SimConfig
SimConfig::limitStudy(LtpMode mode)
{
    SimConfig cfg;
    cfg.name = std::string("limit-") + ltpModeName(mode);
    cfg.core.iqSize = kInfiniteSize;
    cfg.core.intRegs = kInfiniteSize;
    cfg.core.fpRegs = kInfiniteSize;
    cfg.core.lqSize = kInfiniteSize;
    cfg.core.sqSize = kInfiniteSize;
    cfg.core.ltp.mode = mode;
    cfg.core.ltp.classifier =
        mode == LtpMode::Off ? ClassifierKind::Learned
                             : ClassifierKind::Oracle;
    cfg.core.ltp.entries = kInfiniteSize;
    cfg.core.ltp.insertPorts = 8;
    cfg.core.ltp.extractPorts = 8;
    cfg.core.ltp.numTickets = kMaxTickets;
    cfg.core.ltp.useMonitor = true;
    cfg.core.ltp.delayLqSq = true;
    cfg.mem.l1dMshrs = kInfiniteSize;
    return cfg;
}

SimConfig &
SimConfig::withName(const std::string &n)
{
    name = n;
    return *this;
}

SimConfig &
SimConfig::withIq(int entries)
{
    core.iqSize = entries;
    return *this;
}

SimConfig &
SimConfig::withRegs(int per_class)
{
    core.intRegs = per_class;
    core.fpRegs = per_class;
    return *this;
}

SimConfig &
SimConfig::withLq(int entries)
{
    core.lqSize = entries;
    return *this;
}

SimConfig &
SimConfig::withSq(int entries)
{
    core.sqSize = entries;
    return *this;
}

SimConfig &
SimConfig::withRob(int entries)
{
    core.robSize = entries;
    return *this;
}

SimConfig &
SimConfig::withLtp(LtpMode mode, int entries, int ports)
{
    core.ltp.mode = mode;
    core.ltp.entries = entries;
    core.ltp.insertPorts = ports;
    core.ltp.extractPorts = ports;
    return *this;
}

SimConfig &
SimConfig::withLtpOff()
{
    core.ltp.mode = LtpMode::Off;
    return *this;
}

SimConfig &
SimConfig::withOracle()
{
    core.ltp.classifier = ClassifierKind::Oracle;
    return *this;
}

SimConfig &
SimConfig::withLearned()
{
    core.ltp.classifier = ClassifierKind::Learned;
    return *this;
}

SimConfig &
SimConfig::withUit(int entries)
{
    core.ltp.uitEntries = entries;
    return *this;
}

SimConfig &
SimConfig::withTickets(int n)
{
    core.ltp.numTickets = n;
    return *this;
}

SimConfig &
SimConfig::withMonitor(bool on)
{
    core.ltp.useMonitor = on;
    return *this;
}

SimConfig &
SimConfig::withPrefetcher(bool on)
{
    mem.prefetchEnabled = on;
    return *this;
}

SimConfig &
SimConfig::withSeed(std::uint64_t s)
{
    seed = s;
    return *this;
}

// ---------------------------------------------------------------------------
// Serialization: one field registry (sim/fields.hh) drives configToJson,
// configFromJson, and applyOverride.
// ---------------------------------------------------------------------------

namespace {

/** The full registry, in emission order (paths group into objects). */
std::vector<Field>
fieldsOf(SimConfig &c)
{
    CoreConfig &co = c.core;
    LtpConfig &lt = co.ltp;
    FuConfig &fu = co.fu;
    MemConfig &me = c.mem;
    auto I = [](const char *n, int &v) {
        return Field{n, FieldKind::Int, &v};
    };
    // Widths and unit counts: zero would stall the pipeline forever.
    auto W = [](const char *n, int &v) {
        return Field{n, FieldKind::Int, &v, 1};
    };
    auto U = [](const char *n, std::uint64_t &v) {
        return Field{n, FieldKind::U64, &v};
    };
    auto D = [](const char *n, double &v) {
        return Field{n, FieldKind::Double, &v};
    };
    auto B = [](const char *n, bool &v) {
        return Field{n, FieldKind::Bool, &v};
    };
    return {
        {"name", FieldKind::String, &c.name},
        U("seed", c.seed),

        W("core.fetchWidth", co.fetchWidth),
        W("core.decodeWidth", co.decodeWidth),
        W("core.renameWidth", co.renameWidth),
        W("core.issueWidth", co.issueWidth),
        W("core.wbWidth", co.wbWidth),
        W("core.commitWidth", co.commitWidth),
        I("core.rob", co.robSize),
        I("core.iq", co.iqSize),
        I("core.lq", co.lqSize),
        I("core.sq", co.sqSize),
        I("core.intRegs", co.intRegs),
        I("core.fpRegs", co.fpRegs),
        I("core.frontendDepth", co.frontendDepth),
        I("core.fetchQueueCap", co.fetchQueueCap),
        I("core.redirectPenalty", co.redirectPenalty),
        I("core.bpTableBits", co.bpTableBits),
        I("core.btbEntries", co.btbEntries),
        W("core.sqDrainWidth", co.sqDrainWidth),
        I("core.numThreads", co.numThreads),
        {"core.fetchPolicy", FieldKind::Fetch, &co.fetchPolicy},
        W("core.fu.alu", fu.alu),
        W("core.fu.mul", fu.mul),
        W("core.fu.fp", fu.fp),
        W("core.fu.ld", fu.ld),
        W("core.fu.st", fu.st),
        {"core.ltp.mode", FieldKind::Mode, &lt.mode},
        {"core.ltp.classifier", FieldKind::Classifier, &lt.classifier},
        I("core.ltp.entries", lt.entries),
        I("core.ltp.insertPorts", lt.insertPorts),
        I("core.ltp.extractPorts", lt.extractPorts),
        I("core.ltp.uitEntries", lt.uitEntries),
        I("core.ltp.uitAssoc", lt.uitAssoc),
        I("core.ltp.tickets", lt.numTickets),
        B("core.ltp.monitor", lt.useMonitor),
        {"core.ltp.wakeup", FieldKind::Wakeup, &lt.wakeup},
        B("core.ltp.delayLqSq", lt.delayLqSq),
        I("core.ltp.reservedRegs", lt.reservedRegs),
        I("core.ltp.reservedLqSq", lt.reservedLqSq),

        I("mem.l1i.sizeKB", me.l1i.sizeKB),
        I("mem.l1i.assoc", me.l1i.assoc),
        U("mem.l1i.hitLatency", me.l1i.hitLatency),
        I("mem.l1d.sizeKB", me.l1d.sizeKB),
        I("mem.l1d.assoc", me.l1d.assoc),
        U("mem.l1d.hitLatency", me.l1d.hitLatency),
        I("mem.l2.sizeKB", me.l2.sizeKB),
        I("mem.l2.assoc", me.l2.assoc),
        U("mem.l2.hitLatency", me.l2.hitLatency),
        I("mem.l3.sizeKB", me.l3.sizeKB),
        I("mem.l3.assoc", me.l3.assoc),
        U("mem.l3.hitLatency", me.l3.hitLatency),
        I("mem.dram.channels", me.dram.channels),
        I("mem.dram.banks", me.dram.banks),
        D("mem.dram.cpuCyclesPerDramCycle",
          me.dram.cpuCyclesPerDramCycle),
        I("mem.dram.clCk", me.dram.clCk),
        I("mem.dram.rcdCk", me.dram.rcdCk),
        I("mem.dram.rpCk", me.dram.rpCk),
        I("mem.dram.burstCk", me.dram.burstCk),
        I("mem.dram.rowBytes", me.dram.rowBytes),
        U("mem.dram.controllerLatency", me.dram.controllerLatency),
        B("mem.prefetchEnabled", me.prefetchEnabled),
        I("mem.prefetchDegree", me.prefetchDegree),
        I("mem.l1dMshrs", me.l1dMshrs),
        U("mem.earlyLead", me.earlyLead),
        U("mem.llThreshold", me.llThreshold),
    };
}

[[noreturn]] void
badConfig(const std::string &what)
{
    throw std::runtime_error("config: " + what);
}

/** The shared setter (text or JSON), its errors prefixed like every
 *  config error. */
template <class Value>
void
setConfigField(const Field &f, const Value &v, const std::string &where)
{
    try {
        setField(f, v, where.c_str());
    } catch (const std::runtime_error &e) {
        badConfig(e.what());
    }
}

/** Edit distance between two path spellings (classic Levenshtein). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

/**
 * " (did you mean 'X'?)" for the registry path(s) closest to the
 * mistyped @p path, or an empty string when nothing is plausibly
 * close (within ~a third of the spelling, minimum 2 edits).
 */
std::string
didYouMean(const std::string &path)
{
    SimConfig scratch;
    std::size_t best = std::max<std::size_t>(2, path.size() / 3);
    std::vector<std::string> nearest;
    for (const Field &f : fieldsOf(scratch)) {
        std::size_t d = editDistance(path, f.path);
        if (d < best) {
            best = d;
            nearest.assign(1, f.path);
        } else if (d == best) {
            nearest.push_back(f.path);
        }
    }
    if (nearest.empty() || nearest.size() > 3)
        return "";
    std::string out = " (did you mean ";
    for (std::size_t i = 0; i < nearest.size(); ++i) {
        if (i)
            out += i + 1 == nearest.size() ? " or " : ", ";
        out += "'" + nearest[i] + "'";
    }
    out += "?)";
    return out;
}

/** Recursively apply a JSON object's keys through the registry. */
void
applyObject(const std::vector<Field> &fs, const JsonValue &v,
            const std::string &reg_prefix, const std::string &err_prefix)
{
    for (const auto &[key, val] : v.object) {
        std::string reg_path =
            reg_prefix.empty() ? key : reg_prefix + "." + key;
        std::string err_path =
            err_prefix.empty() ? reg_path : err_prefix + "." + reg_path;

        const Field *exact = nullptr;
        bool is_group = false;
        std::string nested = reg_path + ".";
        for (const Field &f : fs) {
            if (reg_path == f.path) {
                exact = &f;
                break;
            }
            if (std::strncmp(f.path, nested.c_str(), nested.size()) == 0)
                is_group = true;
        }
        if (exact) {
            setConfigField(*exact, val, err_path);
        } else if (is_group) {
            if (!val.isObject())
                badConfig("expected an object at " + err_path + ", got " +
                          JsonValue::kindName(val.kind));
            applyObject(fs, val, reg_path, err_prefix);
        } else {
            badConfig("unknown config key '" + err_path + "'");
        }
    }
}

} // namespace

std::string
configToJson(const SimConfig &cfg, int indent)
{
    // The registry needs mutable pointers; emission never writes.
    std::vector<Field> fs = fieldsOf(const_cast<SimConfig &>(cfg));
    JsonObjectBuilder o;
    writeFields(o, fs.data(), fs.size(), indent);
    return o.render(indent);
}

SimConfig
configFromJson(const std::string &json)
{
    JsonValue root = parseJson(json);
    SimConfig cfg;
    applyConfigJson(cfg, root);
    return cfg;
}

void
applyConfigJson(SimConfig &cfg, const JsonValue &v,
                const std::string &where)
{
    if (!v.isObject())
        badConfig("expected an object at " +
                  (where.empty() ? std::string("<top level>") : where) +
                  ", got " + JsonValue::kindName(v.kind));
    std::vector<Field> fs = fieldsOf(cfg);
    applyObject(fs, v, "", where);
}

void
applyOverride(SimConfig &cfg, const std::string &path,
              const std::string &value)
{
    for (const Field &f : fieldsOf(cfg)) {
        if (path == f.path) {
            setConfigField(f, value, path);
            return;
        }
    }
    std::string hint = didYouMean(path);
    badConfig("unknown config path '" + path + "'" + hint +
              " (run `ltp print-config baseline` for the schema)");
}

std::vector<std::string>
configPaths()
{
    SimConfig scratch;
    std::vector<std::string> out;
    for (const Field &f : fieldsOf(scratch))
        out.push_back(f.path);
    return out;
}

LtpMode
parseLtpMode(const std::string &s, const std::string &where)
{
    LtpMode mode = LtpMode::Off;
    setConfigField(Field{"", FieldKind::Mode, &mode}, s, where);
    return mode;
}

} // namespace ltp
