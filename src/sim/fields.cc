#include "sim/fields.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/types.hh"
#include "cpu/core.hh"

namespace ltp {

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error(what);
}

std::string
lowered(const std::string &s)
{
    std::string out;
    for (char c : s)
        if (c != '+' && c != '-' && c != '_' && c != ' ')
            out += char(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** Spellings of the enum kinds: the first for a value prints, any
 *  parses (ignoring case and the separators lowered() drops). */
struct EnumName
{
    FieldKind kind;
    int value;
    const char *name;
};

const EnumName kEnumNames[] = {
    {FieldKind::Mode, int(LtpMode::Off), "off"},
    {FieldKind::Mode, int(LtpMode::NU), "NU"},
    {FieldKind::Mode, int(LtpMode::NR), "NR"},
    {FieldKind::Mode, int(LtpMode::NRNU), "NR+NU"},
    {FieldKind::Mode, int(LtpMode::NRNU), "NU+NR"},
    {FieldKind::Classifier, int(ClassifierKind::Learned), "learned"},
    {FieldKind::Classifier, int(ClassifierKind::Oracle), "oracle"},
    {FieldKind::Wakeup, int(WakeupPolicy::RobProximity), "robProximity"},
    {FieldKind::Wakeup, int(WakeupPolicy::Eager), "eager"},
    {FieldKind::Wakeup, int(WakeupPolicy::Lazy), "lazy"},
    {FieldKind::Fetch, int(FetchPolicy::RoundRobin), "roundRobin"},
    {FieldKind::Fetch, int(FetchPolicy::ICount), "icount"},
    {FieldKind::Fetch, int(FetchPolicy::RoundRobin), "rr"},
};

/** An enum field's value as an int. */
int
enumValue(const Field &f)
{
    switch (f.kind) {
      case FieldKind::Mode: return int(fieldRef<LtpMode>(f));
      case FieldKind::Classifier:
        return int(fieldRef<ClassifierKind>(f));
      case FieldKind::Wakeup: return int(fieldRef<WakeupPolicy>(f));
      default: return int(fieldRef<FetchPolicy>(f));
    }
}

const char *
enumName(const Field &f)
{
    for (const EnumName &e : kEnumNames)
        if (e.kind == f.kind && e.value == enumValue(f))
            return e.name;
    return "?";
}

void
setEnum(const Field &f, const std::string &text, const char *where)
{
    std::string t = lowered(text), expected;
    for (const EnumName &e : kEnumNames) {
        if (e.kind != f.kind)
            continue;
        if (lowered(e.name) == t) {
            if (f.kind == FieldKind::Mode)
                fieldRef<LtpMode>(f) = LtpMode(e.value);
            else if (f.kind == FieldKind::Classifier)
                fieldRef<ClassifierKind>(f) = ClassifierKind(e.value);
            else if (f.kind == FieldKind::Wakeup)
                fieldRef<WakeupPolicy>(f) = WakeupPolicy(e.value);
            else
                fieldRef<FetchPolicy>(f) = FetchPolicy(e.value);
            return;
        }
        expected += (expected.empty() ? "" : "|") + std::string(e.name);
    }
    const char *what = f.kind == FieldKind::Mode ? "LTP mode"
                       : f.kind == FieldKind::Classifier ? "classifier"
                       : f.kind == FieldKind::Wakeup ? "wakeup policy"
                                                      : "fetch policy";
    bad(std::string("bad ") + what + " '" + text + "' at " + where +
        " (expected " + expected + ")");
}

/** Whole-string signed integer parse; "inf" means kInfiniteSize. */
int
parseInt(const Field &f, const std::string &s, const char *where)
{
    // Exact spelling only: lowered() strips separators, which would
    // let "-inf" or "i n f" silently mean infinite.
    if (s == "inf" || s == "Inf" || s == "INF")
        return kInfiniteSize;
    char *end = nullptr;
    errno = 0;
    // Base 10: base 0 would read zero-padded values as octal.
    long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        bad("bad integer '" + s + "' at " + where);
    if (errno == ERANGE || v < INT_MIN || v > INT_MAX)
        bad("integer '" + s + "' out of range at " + where);
    if (v < f.min)
        bad(std::string(where) + " must be at least " +
            std::to_string(f.min) + ", got " + s);
    return static_cast<int>(v);
}

/** JSON fragment for one scalar field. */
std::string
fieldFragment(const Field &f)
{
    switch (f.kind) {
      case FieldKind::Int: {
        int v = fieldRef<int>(f);
        return v == kInfiniteSize ? "\"inf\"" : std::to_string(v);
      }
      case FieldKind::U64:
        return std::to_string(fieldRef<std::uint64_t>(f));
      case FieldKind::Double:
        return jsonNum(fieldRef<double>(f));
      case FieldKind::Bool:
        return fieldRef<bool>(f) ? "true" : "false";
      case FieldKind::String:
        return jsonQuote(fieldRef<std::string>(f));
      default:
        return jsonQuote(enumName(f));
    }
}

/** Nest [lo, hi) — all sharing @p prefix_len path prefix — into @p o. */
void
nestFields(JsonObjectBuilder &o, const Field *fs, std::size_t lo,
           std::size_t hi, std::size_t prefix_len, int indent)
{
    std::size_t i = lo;
    while (i < hi) {
        const char *rest = fs[i].path + prefix_len;
        const char *dot = std::strchr(rest, '.');
        if (!dot) {
            o.field(rest, fieldFragment(fs[i]));
            i += 1;
            continue;
        }
        std::string seg(rest, static_cast<std::size_t>(dot - rest));
        std::size_t j = i;
        while (j < hi &&
               std::strncmp(fs[j].path + prefix_len, seg.c_str(),
                            seg.size()) == 0 &&
               fs[j].path[prefix_len + seg.size()] == '.')
            j += 1;
        JsonObjectBuilder inner;
        nestFields(inner, fs, i, j, prefix_len + seg.size() + 1,
                   indent + 2);
        o.field(seg, inner.render(indent + 2));
        i = j;
    }
}

} // namespace

void
writeFields(JsonObjectBuilder &o, const Field *fs, std::size_t n,
            int indent)
{
    nestFields(o, fs, 0, n, 0, indent);
}

void
setField(const Field &f, const std::string &text, const char *where)
{
    switch (f.kind) {
      case FieldKind::Int:
        fieldRef<int>(f) = parseInt(f, text, where);
        return;
      case FieldKind::U64:
        if (!u64FromLexeme(text, &fieldRef<std::uint64_t>(f)))
            bad("bad unsigned integer '" + text + "' at " + where);
        return;
      case FieldKind::Double: {
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0')
            bad("bad number '" + text + "' at " + where);
        fieldRef<double>(f) = v;
        return;
      }
      case FieldKind::Bool: {
        std::string t = lowered(text);
        if (t == "1" || t == "true" || t == "on")
            fieldRef<bool>(f) = true;
        else if (t == "0" || t == "false" || t == "off")
            fieldRef<bool>(f) = false;
        else
            bad("bad boolean '" + text + "' at " + where);
        return;
      }
      case FieldKind::String:
        fieldRef<std::string>(f) = text;
        return;
      default:
        setEnum(f, text, where);
        return;
    }
}

void
setField(const Field &f, const JsonValue &v, const char *where)
{
    auto want = [&](bool ok, const char *what) {
        if (!ok)
            bad(std::string("expected ") + what + " at " + where +
                ", got " + JsonValue::kindName(v.kind));
    };
    switch (f.kind) {
      case FieldKind::Bool:
        want(v.isBool(), "true/false");
        fieldRef<bool>(f) = v.boolean;
        return;
      case FieldKind::Double:
        // The parser already read the lexeme with strtod: reuse it
        // rather than parse every number twice.
        want(v.isNumber(), "a number");
        fieldRef<double>(f) = v.num;
        return;
      case FieldKind::Int:
      case FieldKind::U64:
        // Sizes additionally accept the string "inf".
        want(v.isNumber() || (f.kind == FieldKind::Int && v.isString()),
             "a number");
        // A Number's str is its source lexeme: parse that, not num,
        // so U64s above 2^53 stay exact.
        setField(f, v.str, where);
        return;
      default:
        want(v.isString(), "a string");
        setField(f, v.str, where);
        return;
    }
}

const JsonValue *
jsonAtPath(const JsonValue &obj, const char *path)
{
    const JsonValue *v = &obj;
    for (const char *seg = path;;) {
        const char *dot = std::strchr(seg, '.');
        if (!v->isObject())
            return nullptr;
        auto it = v->object.find(dot ? std::string(seg, dot) : seg);
        if (it == v->object.end())
            return nullptr;
        v = &it->second;
        if (!dot)
            return v;
        seg = dot + 1;
    }
}

} // namespace ltp
