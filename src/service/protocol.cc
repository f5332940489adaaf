#include "service/protocol.hh"

#include <algorithm>
#include <cctype>

#include "eval/experiment.hh"
#include "sched/bnb/bnb.hh"
#include "workload/sb_io.hh"

namespace balance
{

namespace
{

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** @return the cycle span maxCycleSpan limits. */
long long
cycleSpan(const Superblock &sb)
{
    long long span = sb.numOps();
    for (OpId v = 0; v < sb.numOps(); ++v) {
        int longest = sb.op(v).latency;
        for (const Adjacent &e : sb.succs(v))
            longest = std::max(longest, e.latency);
        span += longest;
    }
    return span;
}

/** Parse one request object (already known to be an Object). */
bool
parseOneRequest(const JsonValue &obj, const ProtocolLimits &limits,
                ServiceRequest &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    const JsonValue *sbText = obj.find("superblock");
    if (!sbText || !sbText->isString())
        return fail("request needs a string 'superblock' field "
                    "(.sb text)");
    std::string sbError;
    if (!tryParseSuperblock(sbText->asString(), &out.sb, &sbError))
        return fail("bad superblock: " + sbError);
    if (out.sb.numOps() > limits.maxOps) {
        return fail("superblock has " + std::to_string(out.sb.numOps()) +
                    " ops; limit is " + std::to_string(limits.maxOps));
    }
    if (long long span = cycleSpan(out.sb); span > maxCycleSpan) {
        return fail("superblock spans " + std::to_string(span) +
                    " cycles (ops plus each op's longest latency); "
                    "limit is " + std::to_string(maxCycleSpan));
    }

    if (const JsonValue *m = obj.find("machine")) {
        if (!m->isString())
            return fail("'machine' must be a string");
        MachineModel model = MachineModel::gp4();
        if (!machineByNameChecked(m->asString(), &model))
            return fail("unknown machine '" + m->asString() + "'");
        out.machine = model.name(); // canonical display name
    }
    if (const JsonValue *s = obj.find("scheduler")) {
        if (!s->isString())
            return fail("'scheduler' must be a string");
        out.scheduler = toLower(s->asString());
        if (!schedulerKeyValid(out.scheduler))
            return fail("unknown scheduler '" + s->asString() + "'");
    }
    if (const JsonValue *b = obj.find("bounds")) {
        if (!b->isBool())
            return fail("'bounds' must be a boolean");
        out.bounds = b->asBool();
    }
    if (const JsonValue *c = obj.find("certify")) {
        if (!c->isBool())
            return fail("'certify' must be a boolean");
        out.certify = c->asBool();
    }
    if (out.certify && out.sb.numOps() > maxBnbOps) {
        return fail("superblock has " + std::to_string(out.sb.numOps()) +
                    " ops; certify is limited to " +
                    std::to_string(maxBnbOps) + " ops");
    }
    if (const JsonValue *n = obj.find("bnb_max_nodes")) {
        if (!n->isInt() || n->asInt() <= 0)
            return fail("'bnb_max_nodes' must be a positive integer");
        out.bnbMaxNodes = n->asInt();
        if (out.bnbMaxNodes > limits.bnbNodeCap)
            out.bnbMaxNodes = limits.bnbNodeCap;
    }
    return true;
}

} // namespace

bool
machineByNameChecked(const std::string &name, MachineModel *out)
{
    // The six paper configurations (machine/machine_model.hh); byName
    // itself is fatal on unknown names, so gate it here. Display
    // names are upper-case ("GP4"); accept any case on the wire.
    static const char *known[] = {"GP1", "GP2", "GP4",
                                  "FS4", "FS6", "FS8"};
    std::string lower = toLower(name);
    for (const char *k : known) {
        if (lower == toLower(k)) {
            if (out)
                *out = MachineModel::byName(k);
            return true;
        }
    }
    return false;
}

bool
schedulerKeyValid(const std::string &key)
{
    return schedulerByKey(key) != nullptr;
}

bool
parseServiceRequestSet(const std::string &body,
                       const ProtocolLimits &limits,
                       ServiceRequestSet &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    JsonParseResult parsed = parseJson(body);
    if (!parsed.ok())
        return fail("bad JSON: " + parsed.error.message);
    if (!parsed.value.isObject())
        return fail("request body must be a JSON object");

    out = ServiceRequestSet{};
    if (const JsonValue *reqs = parsed.value.find("requests")) {
        if (!reqs->isArray())
            return fail("'requests' must be an array");
        if (reqs->size() == 0)
            return fail("'requests' is empty");
        if (reqs->size() > limits.maxBatch) {
            return fail("batch of " + std::to_string(reqs->size()) +
                        " requests; limit is " +
                        std::to_string(limits.maxBatch));
        }
        out.batch = true;
        out.requests.resize(reqs->size());
        for (std::size_t i = 0; i < reqs->size(); ++i) {
            if (!reqs->at(i).isObject())
                return fail("requests[" + std::to_string(i) +
                            "] is not an object");
            std::string itemError;
            if (!parseOneRequest(reqs->at(i), limits, out.requests[i],
                                 &itemError)) {
                return fail("requests[" + std::to_string(i) +
                            "]: " + itemError);
            }
        }
        return true;
    }
    out.requests.resize(1);
    return parseOneRequest(parsed.value, limits, out.requests[0],
                           error);
}

void
writeServiceResult(JsonWriter &w, const ServiceResult &r)
{
    w.beginObject();
    w.key("superblock").value(r.name);
    w.key("machine").value(r.machine);
    w.key("scheduler").value(r.scheduler);
    w.key("wct").value(r.wct);
    w.key("makespan").value(r.makespan);
    w.key("schedule").beginArray();
    for (int cycle : r.issue)
        w.value(cycle);
    w.endArray();
    if (r.haveBounds) {
        w.key("bounds").beginObject();
        w.key("cp").value(r.bounds.cp);
        w.key("hu").value(r.bounds.hu);
        w.key("rj").value(r.bounds.rj);
        w.key("lc").value(r.bounds.lc);
        w.key("pw").value(r.bounds.pw);
        w.key("tw").value(r.bounds.tw);
        w.key("tightest").value(r.tightest);
        w.endObject();
    }
    if (r.haveBnb) {
        w.key("bnb").beginObject();
        w.key("wct").value(r.bnbWct);
        w.key("lower_bound").value(r.bnbLowerBound);
        w.key("proven").value(r.bnbProven);
        w.key("exhausted").value(r.bnbExhausted);
        w.key("nodes").value(r.bnbNodes);
        w.endObject();
    }
    w.endObject();
}

std::string
renderServiceResponse(const std::vector<ServiceResult> &rs, bool batch)
{
    JsonWriter w;
    if (batch) {
        w.beginObject().key("results").beginArray();
        for (const ServiceResult &r : rs)
            writeServiceResult(w, r);
        w.endArray().endObject();
    } else {
        writeServiceResult(w, rs.front());
    }
    std::string out = w.str();
    out += '\n';
    return out;
}

std::string
renderServiceError(const std::string &message)
{
    JsonWriter w;
    w.beginObject().key("error").value(message).endObject();
    std::string out = w.str();
    out += '\n';
    return out;
}

} // namespace balance
