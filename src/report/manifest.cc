#include "report/manifest.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace balance
{

namespace
{

/** Set @p *error to "<what>: <detail>" and return false. */
bool
fail(std::string *error, const std::string &what,
     const std::string &detail)
{
    if (error)
        *error = what + ": " + detail;
    return false;
}

/** Fetch a required member of @p kind; false with *error set. */
const JsonValue *
member(const JsonValue &doc, const char *key, JsonValue::Kind kind,
       std::string *error)
{
    const JsonValue *v = doc.find(key);
    if (!v || v->kind() != kind) {
        fail(error, "manifest",
             std::string(v ? "wrong type for key '" : "missing key '") +
                 key + "'");
        return nullptr;
    }
    return v;
}

/** Optional string member; "" when absent. */
std::string
optionalString(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v && v->isString() ? v->asString() : std::string();
}

} // namespace

std::string
RunManifest::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("version").value((long long)(version));
    w.key("bench").value(bench);
    // The seed is a full u64; JSON numbers only carry i64 exactly,
    // so it travels as a decimal string.
    w.key("seed").value(std::to_string(seed));
    w.key("scale").value(scale);
    w.key("threads").value(threads);
    w.key("withBest").value(withBest);
    w.key("withBnb").value(withBnb);
    w.key("machines").beginArray();
    for (const std::string &m : machines)
        w.value(m);
    w.endArray();
    w.key("heuristics").beginArray();
    for (const std::string &h : heuristics)
        w.value(h);
    w.endArray();
    w.key("artifacts").beginObject();
    w.key("metrics").value(metricsPath);
    w.key("superblocks").value(superblocksPath);
    w.key("trace").value(tracePath);
    // Written by --hw-counters runs only; readers treat an absent key
    // as "no counters captured", so old manifests stay loadable and
    // old readers ignore the extra member (no version bump needed).
    if (!hwCountersPath.empty())
        w.key("hw_counters").value(hwCountersPath);
    // Same optional-key contract as hw_counters: only observability
    // runs emit these, absent means "feature off", no version bump.
    if (!metricsTimelinePath.empty())
        w.key("metrics_timeline").value(metricsTimelinePath);
    w.key("decision_logs").beginArray();
    for (const DecisionLogRef &d : decisionLogs) {
        w.beginObject()
            .key("machine").value(d.machine)
            .key("path").value(d.path)
            .endObject();
    }
    w.endArray();
    w.endObject();
    if (!debugServerAddress.empty())
        w.key("debug_server").value(debugServerAddress);
    w.key("wall_ms").beginObject();
    for (const MachineWall &mw : wall)
        w.key(mw.machine).value(mw.ms);
    w.endObject();
    w.endObject();
    return w.str();
}

bool
RunManifest::fromJson(const JsonValue &doc, RunManifest *out,
                      std::string *error)
{
    if (!doc.isObject())
        return fail(error, "manifest", "document is not an object");

    RunManifest m;
    const JsonValue *v;

    if (!(v = member(doc, "version", JsonValue::Kind::Int, error)))
        return false;
    m.version = int(v->asInt());
    if (m.version != currentVersion) {
        return fail(error, "manifest",
                    "unsupported version " + std::to_string(m.version));
    }

    if (!(v = member(doc, "bench", JsonValue::Kind::String, error)))
        return false;
    m.bench = v->asString();

    if (!(v = member(doc, "seed", JsonValue::Kind::String, error)))
        return false;
    errno = 0;
    char *end = nullptr;
    m.seed = std::strtoull(v->asString().c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0')
        return fail(error, "manifest", "bad seed '" + v->asString() + "'");

    const JsonValue *scaleV = doc.find("scale");
    if (!scaleV || !scaleV->isNumber())
        return fail(error, "manifest", "missing numeric key 'scale'");
    m.scale = scaleV->asDouble();

    if (!(v = member(doc, "threads", JsonValue::Kind::Int, error)))
        return false;
    m.threads = int(v->asInt());

    if (!(v = member(doc, "withBest", JsonValue::Kind::Bool, error)))
        return false;
    m.withBest = v->asBool();

    // Optional for compatibility: manifests written before the B&B
    // certifier existed simply have no "bnb" row objects.
    if (const JsonValue *bnb = doc.find("withBnb")) {
        if (!bnb->isBool())
            return fail(error, "manifest", "withBnb is not a bool");
        m.withBnb = bnb->asBool();
    }

    if (!(v = member(doc, "machines", JsonValue::Kind::Array, error)))
        return false;
    for (const JsonValue &e : v->elements()) {
        if (!e.isString())
            return fail(error, "manifest", "non-string machine name");
        m.machines.push_back(e.asString());
    }

    if (!(v = member(doc, "heuristics", JsonValue::Kind::Array, error)))
        return false;
    for (const JsonValue &e : v->elements()) {
        if (!e.isString())
            return fail(error, "manifest", "non-string heuristic name");
        m.heuristics.push_back(e.asString());
    }

    const JsonValue *art =
        member(doc, "artifacts", JsonValue::Kind::Object, error);
    if (!art)
        return false;
    m.metricsPath = optionalString(*art, "metrics");
    m.superblocksPath = optionalString(*art, "superblocks");
    m.tracePath = optionalString(*art, "trace");
    m.hwCountersPath = optionalString(*art, "hw_counters");
    m.metricsTimelinePath = optionalString(*art, "metrics_timeline");
    m.debugServerAddress = optionalString(doc, "debug_server");
    if (const JsonValue *logs = art->find("decision_logs")) {
        if (!logs->isArray())
            return fail(error, "manifest", "decision_logs not an array");
        for (const JsonValue &e : logs->elements()) {
            if (!e.isObject())
                return fail(error, "manifest",
                            "decision_logs entry not an object");
            DecisionLogRef ref;
            ref.machine = optionalString(e, "machine");
            ref.path = optionalString(e, "path");
            if (ref.machine.empty() || ref.path.empty())
                return fail(error, "manifest",
                            "decision_logs entry missing machine/path");
            m.decisionLogs.push_back(std::move(ref));
        }
    }

    if (const JsonValue *wall = doc.find("wall_ms")) {
        if (!wall->isObject())
            return fail(error, "manifest", "wall_ms not an object");
        for (const auto &kv : wall->members()) {
            if (!kv.second.isNumber())
                return fail(error, "manifest",
                            "non-numeric wall_ms entry");
            m.wall.push_back({kv.first, kv.second.asDouble()});
        }
    }

    *out = std::move(m);
    return true;
}

std::string
resolveArtifactPath(const std::string &dir, const std::string &path)
{
    if (path.empty() || path.front() == '/' || dir.empty())
        return path;
    return dir + "/" + path;
}

bool
readTextFile(const std::string &path, std::string *out,
             std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(error, "cannot open", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return fail(error, "read error", path);
    *out = buf.str();
    return true;
}

bool
writeTextFile(const std::string &path, const std::string &text,
              std::string *error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return fail(error, "cannot create", path);
    out << text;
    out.flush();
    if (!out)
        return fail(error, "write error", path);
    return true;
}

namespace
{

/** Read + parse one whole-document JSON artifact. */
bool
loadJsonArtifact(const std::string &path, JsonValue *out,
                 std::string *error)
{
    std::string text;
    if (!readTextFile(path, &text, error))
        return false;
    JsonParseResult r = parseJson(text);
    if (!r.ok())
        return fail(error, path, r.error.describe());
    *out = std::move(r.value);
    return true;
}

/** Read + parse one JSON-lines artifact. */
bool
loadJsonLinesArtifact(const std::string &path,
                      std::vector<JsonValue> *out, std::string *error)
{
    std::string text;
    if (!readTextFile(path, &text, error))
        return false;
    JsonParseError err;
    *out = parseJsonLines(text, &err);
    if (!err.message.empty())
        return fail(error, path, err.describe());
    return true;
}

} // namespace

bool
loadRunArtifacts(const std::string &manifestPath, RunArtifacts *out,
                 std::string *error)
{
    RunArtifacts art;

    JsonValue doc;
    if (!loadJsonArtifact(manifestPath, &doc, error))
        return false;
    if (!RunManifest::fromJson(doc, &art.manifest, error))
        return false;

    std::size_t slash = manifestPath.find_last_of('/');
    art.dir = slash == std::string::npos
        ? std::string()
        : manifestPath.substr(0, slash);

    const RunManifest &m = art.manifest;
    if (!m.metricsPath.empty() &&
        !loadJsonArtifact(resolveArtifactPath(art.dir, m.metricsPath),
                          &art.metrics, error))
        return false;
    if (!m.superblocksPath.empty() &&
        !loadJsonLinesArtifact(
            resolveArtifactPath(art.dir, m.superblocksPath),
            &art.superblocks, error))
        return false;
    if (!m.hwCountersPath.empty() &&
        !loadJsonArtifact(
            resolveArtifactPath(art.dir, m.hwCountersPath),
            &art.hwCounters, error))
        return false;
    for (const DecisionLogRef &ref : m.decisionLogs) {
        std::vector<JsonValue> records;
        if (!loadJsonLinesArtifact(resolveArtifactPath(art.dir, ref.path),
                                   &records, error))
            return false;
        art.decisions.push_back(std::move(records));
    }

    *out = std::move(art);
    return true;
}

} // namespace balance
