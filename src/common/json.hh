/**
 * @file
 * Self-contained JSON reader/writer shared by result archiving
 * (sim/report), config serialization (sim/config), and scenario files
 * (sim/scenario).  No third-party dependency.
 *
 * The dialect is full JSON minus unicode escapes: objects, arrays,
 * strings, numbers (including the nan/inf spellings %.17g can emit),
 * booleans, and null.  Numbers keep their source lexeme alongside the
 * parsed double so integer fields round-trip exactly even above 2^53.
 */

#ifndef LTP_COMMON_JSON_HH
#define LTP_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ltp {

/** One parsed JSON value (tree node). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    /** String payload; for Kind::Number, the source lexeme. */
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Human name of @p kind for error messages ("a string", ...). */
    static const char *kindName(Kind kind);
};

/**
 * Parse @p text into a value tree.
 * @throws std::runtime_error naming the byte offset on malformed input.
 */
JsonValue parseJson(const std::string &text);

/**
 * Render a value tree; objects render with sorted keys (map order),
 * nested 2-space indentation starting at column @p indent.
 */
std::string writeJson(const JsonValue &v, int indent = 0);

/**
 * Single-line rendering with sorted keys and no whitespace.  Because
 * key order is canonical (map order) and numbers keep their shortest
 * round-trip lexeme, two value trees with equal content always render
 * to equal bytes — the canonical form hashed for cell keys and the
 * framing used by the newline-delimited serve wire protocol.
 */
std::string writeJsonCompact(const JsonValue &v);

/** Shortest representation that parses back to the identical double. */
std::string jsonNum(double v);

/**
 * Exact unsigned 64-bit value from a number lexeme.  @return false on
 * signs, fractions, exponents, or out-of-range values (callers decide
 * how to report; the lexeme form keeps integers above 2^53 exact).
 */
bool u64FromLexeme(const std::string &s, std::uint64_t *out);

/** @p obj's member @p key, which must exist and be of @p kind.
 *  @throws std::runtime_error "'<key>' is missing or not <kind>". */
const JsonValue &jsonField(const JsonValue &obj, const std::string &key,
                           JsonValue::Kind kind);

/** Quote and escape @p s as a JSON string literal. */
std::string jsonQuote(const std::string &s);

/**
 * Flat key → JSON-fragment builder keeping insertion order, for
 * writers that want stable, hand-ordered output (reports, configs).
 */
class JsonObjectBuilder
{
  public:
    void
    field(const std::string &key, const std::string &fragment)
    {
        fields_.emplace_back(key, fragment);
    }

    void str(const std::string &k, const std::string &v)
    {
        field(k, jsonQuote(v));
    }
    void num(const std::string &k, double v) { field(k, jsonNum(v)); }
    void
    u64(const std::string &k, std::uint64_t v)
    {
        field(k, std::to_string(v));
    }
    void
    boolean(const std::string &k, bool v)
    {
        field(k, v ? "true" : "false");
    }

    bool empty() const { return fields_.empty(); }

    std::string render(int indent) const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

} // namespace ltp

#endif // LTP_COMMON_JSON_HH
