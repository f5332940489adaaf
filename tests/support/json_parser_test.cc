/**
 * @file
 * The JSON parser satellite of the report subsystem: round-trip
 * every document type the repo emits (metrics snapshots, bench
 * JSON, decision-log JSON lines, Chrome traces) through
 * parseJson/parseJsonLines, and pin the malformed-input behavior —
 * truncation, bad escapes, duplicate keys, the depth limit — with
 * position-accurate errors.
 */

#include "support/json.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/decision_log.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace balance
{
namespace
{

// ---------------------------------------------------------------
// DOM basics.

TEST(JsonValue, KindsAndAccessors)
{
    EXPECT_TRUE(JsonValue().isNull());
    EXPECT_TRUE(JsonValue::makeBool(true).asBool());
    EXPECT_EQ(JsonValue::makeInt(42).asInt(), 42);
    EXPECT_TRUE(JsonValue::makeInt(42).isNumber());
    EXPECT_DOUBLE_EQ(JsonValue::makeInt(42).asDouble(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::makeDouble(1.5).asDouble(), 1.5);
    EXPECT_EQ(JsonValue::makeString("hi").asString(), "hi");
}

TEST(JsonValue, ObjectPreservesInsertionOrderAndOverwrites)
{
    JsonValue obj = JsonValue::makeObject();
    obj.set("z", JsonValue::makeInt(1));
    obj.set("a", JsonValue::makeInt(2));
    obj.set("z", JsonValue::makeInt(3)); // overwrite keeps position
    ASSERT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_EQ(obj.members()[1].first, "a");
    EXPECT_EQ(obj.get("z").asInt(), 3);
    EXPECT_EQ(obj.find("missing"), nullptr);
    EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
}

TEST(JsonValue, BuiltDomRoundTripsThroughDump)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("name", JsonValue::makeString("run"));
    doc.set("ok", JsonValue::makeBool(true));
    doc.set("none", JsonValue::makeNull());
    JsonValue &arr = doc.set("data", JsonValue::makeArray());
    arr.append(JsonValue::makeInt(-7));
    arr.append(JsonValue::makeDouble(0.25));

    JsonParseResult r = parseJson(doc.dump());
    ASSERT_TRUE(r.ok()) << r.error.describe();
    EXPECT_TRUE(r.value == doc);
}

// ---------------------------------------------------------------
// Numbers: exact integers vs doubles.

TEST(JsonParser, IntegralTokensParseAsInt64Exactly)
{
    JsonParseResult r = parseJson("9223372036854775807");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value.isInt());
    EXPECT_EQ(r.value.asInt(), 9223372036854775807LL);

    r = parseJson("-9223372036854775808");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value.isInt());
    EXPECT_EQ(r.value.asInt(), -9223372036854775807LL - 1);
}

TEST(JsonParser, BeyondInt64FallsBackToDouble)
{
    JsonParseResult r = parseJson("9223372036854775808");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value.kind() == JsonValue::Kind::Double);
    EXPECT_DOUBLE_EQ(r.value.asDouble(), 9223372036854775808.0);
}

TEST(JsonParser, FractionsAndExponentsAreDoubles)
{
    EXPECT_TRUE(parseJson("1.5").value.kind() ==
                JsonValue::Kind::Double);
    JsonParseResult r = parseJson("1e3");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value.kind() == JsonValue::Kind::Double);
    EXPECT_DOUBLE_EQ(r.value.asDouble(), 1000.0);
}

// ---------------------------------------------------------------
// Strings and escapes.

TEST(JsonParser, EscapesDecode)
{
    JsonParseResult r =
        parseJson("\"a\\n\\t\\\\\\\"\\u0041\\u00e9\"");
    ASSERT_TRUE(r.ok()) << r.error.describe();
    // é is U+00E9 (é): two UTF-8 bytes, not a raw Latin-1 0xe9.
    EXPECT_EQ(r.value.asString(), "a\n\t\\\"A\xc3\xa9");
}

TEST(JsonParser, UnicodeEscapesDecodeToUtf8)
{
    // Two-byte (U+0416 Ж), three-byte (U+20AC €), and a surrogate
    // pair (U+1F600), all in one string.
    JsonParseResult r = parseJson("\"\\u0416 \\u20ac \\ud83d\\ude00\"");
    ASSERT_TRUE(r.ok()) << r.error.describe();
    EXPECT_EQ(r.value.asString(),
              "\xd0\x96 \xe2\x82\xac \xf0\x9f\x98\x80");
}

TEST(JsonWriter, NonAsciiStringsEscapeToPureAscii)
{
    // Raw UTF-8 in, \uXXXX escapes out: the document is pure ASCII
    // (hence trivially valid UTF-8) and decodes back byte-exactly.
    std::string original = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
    JsonWriter w;
    w.value(original);
    EXPECT_EQ(w.str(), "\"caf\\u00e9 \\u20ac \\ud83d\\ude00\"");
    for (char c : w.str())
        EXPECT_LT((unsigned char)(c), 0x80u);
    EXPECT_TRUE(jsonLooksValid(w.str()));
    JsonParseResult r = parseJson(w.str());
    ASSERT_TRUE(r.ok()) << r.error.describe();
    EXPECT_EQ(r.value.asString(), original);
}

TEST(JsonParser, LowercaseEscapeDocumentsAreDumpStable)
{
    // parse -> dump reproduces the bytes of a document whose \u
    // escapes are lowercase (the form the writer emits), including
    // surrogate pairs.
    std::string doc = "{\"s\":\"\\u00e9\\u20ac\\ud83d\\ude00\"}";
    JsonParseResult r = parseJson(doc);
    ASSERT_TRUE(r.ok()) << r.error.describe();
    EXPECT_EQ(r.value.dump(), doc);
}

TEST(JsonParser, StringRoundTripsThroughWriterAndBack)
{
    std::string original = "tab\there \"quoted\" back\\slash\n";
    JsonWriter w;
    w.value(original);
    JsonParseResult r = parseJson(w.str());
    ASSERT_TRUE(r.ok()) << r.error.describe();
    EXPECT_EQ(r.value.asString(), original);
}

// ---------------------------------------------------------------
// Round-trip of every emitted document type.

TEST(JsonParser, MetricsSnapshotRoundTripsByteExact)
{
    MetricRegistry reg;
    reg.counter("bounds.trips.tw").add(49189414);
    reg.counter("sched.balance.loop_trips").add(302930);
    reg.gauge("bounds.scratch.high_water_bytes").observeMax(123456);
    Histogram &h = reg.histogram("sched.balance.decisions");
    h.observe(12);
    h.observe(700);

    std::string doc = reg.snapshotJson();
    JsonParseResult r = parseJson(doc);
    ASSERT_TRUE(r.ok()) << r.error.describe();

    // Counter values survive exactly (they parse as Int, not via a
    // double), so "bit for bit" comparisons downstream are sound.
    EXPECT_EQ(r.value.get("counters").get("bounds.trips.tw").asInt(),
              49189414);
    const JsonValue &hist =
        r.value.get("histograms").get("sched.balance.decisions");
    EXPECT_EQ(hist.get("count").asInt(), 2);
    // Exact count/sum plus the full derived-quantile ladder: every
    // field parses back as Int with its original value, p999
    // included (the tail quantile sits in the 700-observation's
    // power-of-two bucket, upper bound 1023).
    EXPECT_EQ(hist.get("sum").asInt(), 712);
    EXPECT_EQ(hist.get("p50").asInt(), h.percentile(0.5));
    EXPECT_EQ(hist.get("p90").asInt(), h.percentile(0.9));
    EXPECT_EQ(hist.get("p99").asInt(), h.percentile(0.99));
    EXPECT_EQ(hist.get("p999").asInt(), h.percentile(0.999));
    EXPECT_EQ(hist.get("p999").asInt(), 1023);

    // Snapshots are integer-only documents: the DOM re-serializes
    // them byte-identically.
    EXPECT_EQ(r.value.dump(), doc);
}

TEST(JsonParser, BenchStyleDocumentIsDumpStable)
{
    // Per-phase timings next to trip counts (doubles included): one
    // parse -> dump -> parse cycle must be a fixed point of the DOM
    // (the writer's %.12g is re-parse idempotent).
    JsonWriter w;
    w.beginObject().key("bench").value("table2_bound_complexity");
    w.key("runs").beginArray();
    w.beginObject().key("name").value("pw").key("ms").value(1.25)
        .key("trips").value(150031).endObject();
    w.beginObject().key("name").value("tw").key("ms").value(0.3333333)
        .key("trips").value(49189414).endObject();
    w.endArray().endObject();

    JsonParseResult first = parseJson(w.str());
    ASSERT_TRUE(first.ok()) << first.error.describe();
    std::string dumped = first.value.dump();
    JsonParseResult second = parseJson(dumped);
    ASSERT_TRUE(second.ok()) << second.error.describe();
    EXPECT_TRUE(first.value == second.value);
    EXPECT_EQ(second.value.dump(), dumped);
}

TEST(JsonParser, DecisionLogLinesParseOneRecordPerStep)
{
    DecisionLog log("gcc.sb4");
    DecisionStep &s0 = log.beginStep(2);
    s0.pick = 17;
    s0.candidates = {5, 9, 17};
    s0.branches.push_back(
        {0, 0.75, 6, 2, 3, DecisionOutcome::Selected});
    s0.tradeoffs.push_back({1, 0, 10, 8, 9});
    log.beginStep(3).pick = 4;

    JsonParseError err;
    std::vector<JsonValue> records =
        parseJsonLines(log.toJsonLines(), &err);
    EXPECT_TRUE(err.message.empty()) << err.describe();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].get("program").asString(), "gcc");
    EXPECT_EQ(records[0].get("superblock").asString(), "gcc.sb4");
    EXPECT_EQ(records[0].get("cycle").asInt(), 2);
    EXPECT_EQ(records[0].get("candidates").size(), 3u);
    EXPECT_EQ(records[0].get("branches").at(0).get("outcome")
                  .asString(),
              "selected");
    EXPECT_EQ(records[0].get("tradeoffs").at(0).get("pairBound")
                  .asInt(),
              10);
    EXPECT_EQ(records[1].get("cycle").asInt(), 3);
}

TEST(JsonParser, TraceDocumentParses)
{
    TraceSession &s = TraceSession::global();
    s.disable();
    s.clear();
    s.enable();
    s.record("span_a", 10, 5, 42);
    s.disable();
    JsonParseResult r = parseJson(s.toJson());
    s.clear();
    ASSERT_TRUE(r.ok()) << r.error.describe();
    const JsonValue &events = r.value.get("traceEvents");
    ASSERT_TRUE(events.isArray());
    bool found = false;
    for (const JsonValue &e : events.elements()) {
        const JsonValue *name = e.find("name");
        if (name && name->isString() &&
            name->asString() == "span_a") {
            found = true;
            EXPECT_EQ(e.get("ts").asInt(), 10);
            EXPECT_EQ(e.get("dur").asInt(), 5);
        }
    }
    EXPECT_TRUE(found);
}

TEST(JsonParser, ParseJsonLinesSkipsBlankLinesAndReportsLine)
{
    JsonParseError err;
    std::vector<JsonValue> ok =
        parseJsonLines("{}\n\n  \n{\"a\":1}\n", &err);
    EXPECT_TRUE(err.message.empty());
    EXPECT_EQ(ok.size(), 2u);

    std::vector<JsonValue> bad =
        parseJsonLines("{}\n\n{\"a\":1}\nnot json\n", &err);
    EXPECT_EQ(bad.size(), 2u) << "records before the error survive";
    EXPECT_FALSE(err.message.empty());
    EXPECT_EQ(err.line, 4) << "absolute line number in the file";
}

// ---------------------------------------------------------------
// Malformed inputs: every rejection carries an accurate position.

TEST(JsonParser, TruncatedDocuments)
{
    JsonParseResult r = parseJson("{\"a\": 1");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("unterminated object"),
              std::string::npos)
        << r.error.describe();
    EXPECT_EQ(r.error.line, 1);
    EXPECT_EQ(r.error.column, 8);

    r = parseJson("[1, 2");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("unterminated array"),
              std::string::npos);

    r = parseJson("\"no close");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("unterminated string"),
              std::string::npos);

    r = parseJson("");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("unexpected end of input"),
              std::string::npos);
    EXPECT_EQ(r.error.line, 1);
    EXPECT_EQ(r.error.column, 1);
}

TEST(JsonParser, BadEscapes)
{
    JsonParseResult r = parseJson("\"a\\q\"");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("invalid escape"),
              std::string::npos);

    r = parseJson("\"\\u12GZ\"");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("bad \\u escape"),
              std::string::npos);

    r = parseJson("\"dangling\\");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("truncated escape"),
              std::string::npos);
}

TEST(JsonParser, MalformedSurrogatesRejectedWithPosition)
{
    // Lone high surrogate: nothing follows.
    JsonParseResult r = parseJson("\"\\ud83d\"");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("high surrogate"),
              std::string::npos)
        << r.error.describe();

    // High surrogate followed by a non-escape character.
    r = parseJson("\"\\ud83dx\"");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("high surrogate"),
              std::string::npos);

    // High surrogate followed by a non-surrogate escape.
    r = parseJson("\"\\ud83d\\u0041\"");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("low surrogate"),
              std::string::npos);

    // Lone low surrogate.
    r = parseJson("\"\\ude00\"");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("unpaired low surrogate"),
              std::string::npos);
    EXPECT_EQ(r.error.line, 1);

    // The structural checker agrees with the parser on all of these
    // and on their well-formed counterpart.
    EXPECT_FALSE(jsonLooksValid("\"\\ud83d\""));
    EXPECT_FALSE(jsonLooksValid("\"\\ud83dx\""));
    EXPECT_FALSE(jsonLooksValid("\"\\ud83d\\u0041\""));
    EXPECT_FALSE(jsonLooksValid("\"\\ude00\""));
    EXPECT_TRUE(jsonLooksValid("\"\\ud83d\\ude00\""));
}

TEST(JsonParser, DuplicateKeysRejectedAtTheSecondKey)
{
    JsonParseResult r = parseJson("{\"x\":1,\"x\":2}");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("duplicate key 'x'"),
              std::string::npos);
    // The error points at the offending (second) key, not at the
    // end of the object.
    EXPECT_EQ(r.error.column, 8);
}

TEST(JsonParser, DepthLimit)
{
    std::string deep(300, '[');
    deep += "1";
    deep.append(300, ']');
    JsonParseResult r = parseJson(deep);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("nesting deeper than 256"),
              std::string::npos);

    // A custom limit; the scalar itself occupies the final level,
    // so three arrays + the number is exactly depth four.
    EXPECT_FALSE(parseJson("[[[[1]]]]", 4).ok());
    EXPECT_TRUE(parseJson("[[[1]]]", 4).ok());
}

TEST(JsonParser, TrailingContentRejected)
{
    JsonParseResult r = parseJson("{} x");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.message.find("trailing content"),
              std::string::npos);
    EXPECT_EQ(r.error.column, 4);
}

TEST(JsonParser, MultiLineErrorPositionIsExact)
{
    // The '?' sits on line 3, column 8.
    std::string doc = "{\n  \"a\": 1,\n  \"b\": ?\n}\n";
    JsonParseResult r = parseJson(doc);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.line, 3);
    EXPECT_EQ(r.error.column, 8);
    EXPECT_NE(r.error.describe().find("line 3, column 8"),
              std::string::npos)
        << r.error.describe();
}

TEST(JsonParser, AcceptsWhatTheStructuralCheckerAccepts)
{
    // parseJson mirrors the jsonLooksValid grammar: spot-check both
    // directions on tricky inputs.
    const char *good[] = {"0", "-0", "[]", "{}", "null",
                          " [ 1 , { \"k\" : [true, false] } ] "};
    for (const char *doc : good) {
        EXPECT_TRUE(jsonLooksValid(doc)) << doc;
        EXPECT_TRUE(parseJson(doc).ok()) << doc;
    }
    const char *bad[] = {"01", "+1", "1.", ".5", "[1,]", "{\"k\":}",
                         "'single'", "tru"};
    for (const char *doc : bad) {
        EXPECT_FALSE(jsonLooksValid(doc)) << doc;
        EXPECT_FALSE(parseJson(doc).ok()) << doc;
    }
}

} // namespace
} // namespace balance
