/**
 * @file
 * JSON emission, validation, and parsing for machine-readable bench
 * and tool output (metrics snapshots, decision logs, trace files,
 * run manifests, service responses). Three pieces:
 *
 *  - JsonWriter: a streaming writer that tracks nesting and commas;
 *  - jsonLooksValid: structural validation without building a tree;
 *  - JsonValue / parseJson: an owning document tree with precise
 *    error positions, for the report subsystem that reads the
 *    artifacts back (src/report, docs/REPORTING.md).
 *
 * Text encoding: strings are UTF-8. The parser decodes every \uXXXX
 * escape — including surrogate pairs — to UTF-8 bytes (lone or
 * malformed surrogates are a parse error), and the writer escapes
 * every non-ASCII code point back to \uXXXX form, so emitted
 * documents are pure ASCII and therefore always valid UTF-8, and a
 * parse → dump round trip of a document using lowercase \u escapes
 * reproduces the original bytes (docs/REPORTING.md).
 */

#ifndef BALANCE_SUPPORT_JSON_HH
#define BALANCE_SUPPORT_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace balance
{

/**
 * Streaming JSON writer. Commas and key/value separators are
 * inserted automatically; calls must still nest correctly (the
 * writer asserts on gross misuse like value() at the top level after
 * the document is complete).
 *
 * @code
 *   JsonWriter w;
 *   w.beginObject().key("runs").beginArray();
 *   w.beginObject().key("name").value("pw").key("ms").value(1.25)
 *       .endObject();
 *   w.endArray().endObject();
 *   writeFile(path, w.str());
 * @endcode
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next call must produce its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(long long v);
    JsonWriter &value(int v) { return value((long long)(v)); }
    JsonWriter &value(bool v);

    /** Emit a JSON null. */
    JsonWriter &null();

    /** @return the document text. */
    const std::string &str() const { return out; }

  private:
    void separator();
    void raw(std::string_view text);
    void quoted(std::string_view v);

    std::string out;
    /** Nesting stack: 'o' = object, 'a' = array. */
    std::string stack;
    /** Whether the current container already has an element. */
    std::string hasElem;
    bool expectValue = false;
};

/**
 * Structural validation: @return true when @p text is exactly one
 * well-formed JSON value (objects, arrays, strings, numbers,
 * true/false/null) with nothing but whitespace around it.
 */
bool jsonLooksValid(std::string_view text);

/**
 * An owning JSON document tree. Numbers keep their integral identity:
 * a token with no fraction or exponent that fits int64 parses as
 * Int (asDouble() still converts), everything else as Double —
 * counters and trip totals round-trip bit for bit.
 *
 * Object member order is preserved exactly as written, so a
 * parse → write round trip of any document this repo emits
 * reproduces the original bytes (pinned by json_parser_test).
 *
 * Accessors panic (bsAssert) on kind mismatch; use the is*() tests
 * or find() when the shape is not guaranteed.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    /** Ordered object members (duplicate keys are a parse error). */
    using Members = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default; //!< null

    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeInt(long long v);
    static JsonValue makeDouble(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isBool() const { return k == Kind::Bool; }
    bool isInt() const { return k == Kind::Int; }
    bool isNumber() const { return k == Kind::Int || k == Kind::Double; }
    bool isString() const { return k == Kind::String; }
    bool isArray() const { return k == Kind::Array; }
    bool isObject() const { return k == Kind::Object; }

    /** @return the boolean payload (panics unless Bool). */
    bool asBool() const;

    /** @return the integral payload (panics unless Int). */
    long long asInt() const;

    /** @return the numeric payload (panics unless Int or Double). */
    double asDouble() const;

    /** @return the string payload (panics unless String). */
    const std::string &asString() const;

    /** @return element / member count (panics unless a container). */
    std::size_t size() const;

    /** @return array element @p i (panics unless Array, in range). */
    const JsonValue &at(std::size_t i) const;

    /** @return the array elements (panics unless Array). */
    const std::vector<JsonValue> &elements() const;

    /** @return ordered object members (panics unless Object). */
    const Members &members() const;

    /** @return the member named @p key, or null when absent. */
    const JsonValue *find(std::string_view key) const;

    /** @return the member named @p key (panics when absent). */
    const JsonValue &get(std::string_view key) const;

    /** Append @p v to an Array (panics unless Array). */
    JsonValue &append(JsonValue v);

    /**
     * Set (insert or overwrite) object member @p key. Tooling hook:
     * the compare tests use this to tamper counters in a snapshot.
     * @return the stored value.
     */
    JsonValue &set(std::string_view key, JsonValue v);

    /** Deep structural equality (Int 3 != Double 3.0). */
    bool operator==(const JsonValue &other) const;

    /** Serialize this tree through @p w. */
    void write(JsonWriter &w) const;

    /** @return the serialized document text. */
    std::string dump() const;

  private:
    Kind k = Kind::Null;
    bool b = false;
    long long i = 0;
    double d = 0.0;
    std::string s;
    std::vector<JsonValue> arr;
    Members obj;
};

/** Where and why a parse failed. */
struct JsonParseError
{
    std::string message;    //!< empty = no error
    std::size_t offset = 0; //!< byte offset into the input
    int line = 1;           //!< 1-based line of the offset
    int column = 1;         //!< 1-based column of the offset

    /** @return "line L, column C: message". */
    std::string describe() const;
};

/** Result of parseJson: a value, or a position-accurate error. */
struct JsonParseResult
{
    JsonValue value;
    JsonParseError error;

    bool ok() const { return error.message.empty(); }
};

/**
 * Parse exactly one JSON document (trailing whitespace allowed,
 * trailing content is an error). Duplicate object keys and nesting
 * deeper than @p maxDepth are rejected.
 */
JsonParseResult parseJson(std::string_view text, int maxDepth = 256);

/**
 * Parse a JSON-lines document (one value per non-empty line, e.g.
 * the Balance decision log). Stops at the first malformed line; the
 * error's line number is absolute within @p text.
 *
 * @param text The full JSON-lines payload.
 * @param error Filled on failure (message empty on success).
 * @return the values parsed so far (complete on success).
 */
std::vector<JsonValue> parseJsonLines(std::string_view text,
                                      JsonParseError *error = nullptr);

} // namespace balance

#endif // BALANCE_SUPPORT_JSON_HH
