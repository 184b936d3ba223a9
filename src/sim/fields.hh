/**
 * @file
 * Field registries: a record's serializable scalars as a table of
 * {dotted path, kind, pointer} rows.  One table per record — SimConfig
 * (sim/config.cc), Metrics and its sampling/SMT blocks
 * (sim/metrics.cc), RunLengths (sim/simulator.cc) and SamplePlan
 * (sample/sampler.cc) — drives that record's JSON writer and reader;
 * this module holds what the tables share: the ordered nesting writer,
 * the value-tree writer, the strict and tolerant readers, and one
 * typed setter per field kind.  It is the one place that knows how a
 * record is spelled in JSON.
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
 *  plus the smallest value an Int or U64 field accepts. */
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

template <class Table>
void
writeFields(JsonObjectBuilder &o, const Table &t, int indent)
{
    writeFields(o, t.data(), t.size(), indent);
}

/** The table's rows as one nested value tree (dotted paths become
 *  objects).  Compact-rendered, it is byte-identical to the compact
 *  rendering of writeFields' text: the same lexemes, sorted. */
JsonValue fieldsToValue(const Field *fs, std::size_t n);

template <class Table>
JsonValue
fieldsToValue(const Table &t)
{
    return fieldsToValue(t.data(), t.size());
}

/**
 * The strict reader: apply JSON object @p v (nested or dotted keys)
 * onto the table's fields.  Absent fields keep their values.
 * @param where  path prefix named in errors ("configs[2].set").
 * @throws std::runtime_error naming the dotted path of an unknown key,
 *         a non-object, or a bad value.
 */
void applyFields(const Field *fs, std::size_t n, const JsonValue &v,
                 const std::string &where);

template <class Table>
void
applyFields(const Table &t, const JsonValue &v, const std::string &where)
{
    applyFields(t.data(), t.size(), v, where);
}

/**
 * The tolerant reader: set every field whose dotted path is present in
 * @p obj; absent ones and unknown keys are left alone (archives stay
 * readable across schema growth).  @p where prefixes error paths.
 * @throws std::runtime_error when a present value has the wrong kind.
 */
void readFields(const Field *fs, std::size_t n, const JsonValue &obj,
                const char *where = "");

template <class Table>
void
readFields(const Table &t, const JsonValue &obj, const char *where = "")
{
    readFields(t.data(), t.size(), obj, where);
}

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
