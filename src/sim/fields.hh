/**
 * @file
 * Field registries: a record's serializable scalars as a table of
 * {dotted path, kind, pointer} rows.  One table per record — SimConfig
 * (sim/config.cc) and Metrics (sim/metrics.cc) — drives that record's
 * JSON writer and reader; this module holds what the tables share: the
 * nesting JSON writer, dotted-path lookup, and one typed setter per
 * field kind.  Each record keeps its own walk policy: the config
 * reader rejects unknown keys, the Metrics reader tolerates absent
 * ones.
 */

#ifndef LTP_SIM_FIELDS_HH
#define LTP_SIM_FIELDS_HH

#include <climits>
#include <cstddef>
#include <string>

#include "common/json.hh"

namespace ltp {

/** How a field is stored, spelled, and parsed. */
enum class FieldKind { Int, U64, Double, Bool, String, Mode, Classifier,
                       Wakeup, Fetch };

/** One serializable field: dotted path + typed pointer into a record,
 *  plus the smallest value an Int field accepts. */
struct Field
{
    const char *path;
    FieldKind kind;
    void *p;
    int min = INT_MIN;
};

/** The member behind @p f, as the type its kind stores. */
template <class T>
T &
fieldRef(const Field &f)
{
    return *static_cast<T *>(f.p);
}

/**
 * Append fields [fs, fs + n) to @p o in order, grouping runs of
 * shared dotted prefixes into nested objects (rendered at @p indent
 * + 2 per level).  Ints print kInfiniteSize as "inf".
 */
void writeFields(JsonObjectBuilder &o, const Field *fs, std::size_t n,
                 int indent);

/**
 * Set @p f from its text spelling: Ints accept "inf", Bools
 * 1|0|true|false|on|off, enums their printed names (case-insensitive).
 * @throws std::runtime_error naming @p where on a bad value.
 */
void setField(const Field &f, const std::string &text, const char *where);

/**
 * Set @p f from a JSON value: check the value's kind against the
 * field's (Ints also take strings such as "inf"), then store it: Bools
 * and Doubles as parsed, the rest through the text setter.
 * @throws std::runtime_error naming @p where.
 */
void setField(const Field &f, const JsonValue &v, const char *where);

/** The member at dotted @p path inside @p obj, or null if absent. */
const JsonValue *jsonAtPath(const JsonValue &obj, const char *path);

} // namespace ltp

#endif // LTP_SIM_FIELDS_HH
