/**
 * @file
 * The `service` workload: a loopback ServiceServer started in each
 * round's set-up and two closed-loop HTTP clients, each sending its
 * next `POST /schedule` body only after the previous reply. One unit
 * is one request body; its time is the client-observed latency.
 *
 * Light requests (cp/sr/dhasy, bounds off, FS8) run beside heavy
 * ones (balance, bounds on, GP1/GP2). Each comes as a repeated body
 * (served from the GraphContext cache after a per-round warm-up) and
 * as a body whose superblock is renamed every round (a cache miss),
 * in single and batch form.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "bounds/reference.hh"
#include "inputs.hh"
#include "sched/schedule.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "workload.hh"
#include "workload/sb_io.hh"

namespace perfbench
{

using namespace balance;

namespace
{

constexpr int clients = 2;
constexpr int lightBatch = 4;
constexpr int heavyBatch = 2;

/** One request inside a body. */
struct Member
{
    bool heavy = false;
    int sb = 0; //!< index into ServiceShapes::light or ::heavy
};

/** One body (a unit): its members and which form it takes. */
struct Body
{
    std::vector<Member> members;
    bool batch = false;
    bool miss = false; //!< renamed every round
    int hitTwin = -1;  //!< for a miss body: the hit body it mirrors
    std::string text;  //!< this round's JSON
};

/** A reply as the client saw it. */
struct Reply
{
    int status = 0;
    std::string cache; //!< X-Balance-Cache header
    std::string body;
};

/** POST @p body to 127.0.0.1:@p port; false on a socket error. */
bool
post(int port, const std::string &body, Reply &reply)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string wire = "POST /schedule HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\n"
                       "Content-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    bool ok = ::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof addr) == 0;
    for (std::size_t sent = 0; ok && sent < wire.size();) {
        ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                           MSG_NOSIGNAL);
        ok = n > 0;
        sent += ok ? std::size_t(n) : 0;
    }
    std::string raw;
    char buf[8192];
    for (ssize_t n = 1; ok && n > 0;) {
        n = ::recv(fd, buf, sizeof buf, 0);
        ok = n >= 0;
        if (n > 0)
            raw.append(buf, std::size_t(n));
    }
    ::close(fd);
    std::size_t headEnd = raw.find("\r\n\r\n");
    if (!ok || headEnd == std::string::npos || raw.size() < 12)
        return false;
    reply.status = std::atoi(raw.c_str() + 9); // after "HTTP/1.1 "
    reply.body = raw.substr(headEnd + 4);
    const std::string tag = "\r\nX-Balance-Cache: ";
    std::size_t c = raw.find(tag);
    reply.cache.clear();
    if (c != std::string::npos && c < headEnd)
        reply.cache = raw.substr(c + tag.size(),
                                 raw.find("\r\n", c + tag.size()) -
                                     c - tag.size());
    return true;
}

class ServiceWorkload : public Workload
{
  public:
    explicit ServiceWorkload(std::uint64_t seed) : seed(seed) {}

    void
    setUp(SpanLog *log) override
    {
        std::vector<std::string> light, heavy;
        {
            Scoped s(log, "workload.generate", -1);
            ServiceShapes shapes = serviceShapes();
            light = relabel(shapes.light, seed);
            heavy = relabel(shapes.heavy, seed);
        }
        {
            Scoped s(log, "workload.parse", -1);
            in.light = parseAll(light);
            in.heavy = parseAll(heavy);
            if (bodies.empty())
                layOut();
            for (Body &b : bodies)
                b.text = render(b);
        }
        server = std::make_unique<ServiceServer>();
        ServiceServerOptions o;
        o.handlerThreads = clients;
        o.threads = 1;
        if (!server->start(o))
            throw std::runtime_error("service: cannot start the server");
    }

    void
    tearDown() override
    {
        server->stop();
        server.reset();
        ++round;
    }

    std::size_t units() const override { return bodies.size(); }

    int
    superblocksIn(std::size_t u) const override
    {
        return int(bodies[u].members.size());
    }

    void
    runRound(int r, FastestOf &times, TraceSink *trace) override
    {
        // Warm-up, untimed: every hit body once, so the timed round
        // sees them all in the cache.
        std::vector<Reply> replies(bodies.size());
        for (std::size_t u = 0; u < bodies.size(); ++u)
            if (!bodies[u].miss)
                post(server->port(), bodies[u].text, replies[u]);
        const long long hits0 = server->engine().cache().hits();
        const long long misses0 = server->engine().cache().misses();

        std::vector<char> sent(bodies.size(), 0);
        std::atomic<std::size_t> next{0};
        auto client = [&] {
            for (std::size_t i; (i = next.fetch_add(1)) < order.size();) {
                std::size_t u = order[i];
                auto t0 = Clock::now();
                sent[u] = post(server->port(), bodies[u].text, replies[u]);
                double ms = msBetween(t0, Clock::now());
                if (sent[u] && replies[u].status == 200)
                    times.add(u, ms);
            }
        };
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c)
            threads.emplace_back(client);
        for (std::thread &t : threads)
            t.join();
        std::map<std::string, long long> counts = {
            {"service.cache_hits",
             server->engine().cache().hits() - hits0},
            {"service.cache_misses",
             server->engine().cache().misses() - misses0}};

        std::vector<std::string> inProcess;
        if (trace)
            inProcess = traced(trace->log);
        for (std::size_t u = 0; u < bodies.size(); ++u) {
            std::string failure =
                checkBody(u, replies, sent[u] != 0, r == 0);
            if (failure.empty() && trace &&
                inProcess[u] != replies[u].body)
                failure = "in-process response differs from the wire "
                          "response for body " +
                          std::to_string(u);
            tally(failure);
        }
        if (r == 0)
            first = replies;
        if (trace) {
            if (trace->counts.empty())
                trace->counts = counts;
            else if (trace->counts != counts)
                tally("cache counts differ between rounds");
        }
    }

    void
    finishTrace(const FastestOf &times, TraceSink &trace) override
    {
        // Wire time: client latency minus the in-process parse, engine
        // and render time of the same body.
        FastestOf wire(times.size() + 1);
        for (std::size_t u = 0; u < times.size(); ++u) {
            double inside = 0.0;
            for (const char *l :
                 {"service.parse", "service.engine", "service.render"})
                inside += trace.layers.at(l).at(u);
            wire.add(u, std::max(0.0, times.at(u) - inside));
        }
        trace.layers.insert_or_assign("service.wire", wire);
    }

    void
    finalChecks() override
    {
        // Three heavy hit singles against the frozen naive engine.
        int checked = 0;
        for (std::size_t u = 0; u < bodies.size() && checked < 3; ++u) {
            const Body &b = bodies[u];
            if (b.batch || b.miss || !b.members[0].heavy)
                continue;
            ++checked;
            const Superblock &sb = sbOf(b.members[0]);
            MachineModel machine = MachineModel::byName(machineOf(b.members[0]));
            GraphContext ctx(sb);
            WctBounds ref = reference::computeWctBounds(ctx, machine);
            JsonParseResult parsed = parseJson(first[u].body);
            const JsonValue *got =
                parsed.ok() ? parsed.value.find("bounds") : nullptr;
            auto is = [&](const char *key, double want) {
                const JsonValue *v = got ? got->find(key) : nullptr;
                return v && v->asDouble() == want;
            };
            bool same = is("cp", ref.cp) && is("hu", ref.hu) &&
                        is("rj", ref.rj) && is("lc", ref.lc) &&
                        is("pw", ref.pw) && is("tw", ref.tw);
            tally(same ? std::string()
                       : "bounds differ from the reference engine on " +
                             sb.name());
        }
    }

  private:
    const Superblock &
    sbOf(const Member &m) const
    {
        return m.heavy ? in.heavy[std::size_t(m.sb)]
                       : in.light[std::size_t(m.sb)];
    }

    static std::string
    machineOf(const Member &m)
    {
        return m.heavy ? (m.sb % 2 ? "GP2" : "GP1") : "FS8";
    }

    /** Fix the body list and the order the clients take it in. */
    void
    layOut()
    {
        auto add = [&](std::vector<Member> members, bool batch) {
            Body hit;
            hit.members = std::move(members);
            hit.batch = batch;
            Body miss = hit;
            miss.miss = true;
            miss.hitTwin = int(bodies.size());
            bodies.push_back(std::move(hit));
            bodies.push_back(std::move(miss));
        };
        for (int i = 0; i < int(in.light.size()); ++i)
            add({{false, i}}, false);
        for (int i = 0; i < int(in.heavy.size()); ++i)
            add({{true, i}}, false);
        for (int i = 0; i + lightBatch <= int(in.light.size());
             i += lightBatch) {
            std::vector<Member> m;
            for (int j = 0; j < lightBatch; ++j)
                m.push_back({false, i + j});
            add(m, true);
        }
        for (int i = 0; i + heavyBatch <= int(in.heavy.size());
             i += heavyBatch)
            add({{true, i}, {true, i + 1}}, true);

        order.resize(bodies.size());
        for (std::size_t u = 0; u < order.size(); ++u)
            order[u] = u;
        Rng rng(mixSeed(seed, 6));
        rng.shuffle(order);
    }

    /** Suffix that renames a miss body's superblocks this round. */
    std::string
    missSuffix(const Body &b) const
    {
        return "~r" + std::to_string(round) + (b.batch ? "b" : "s");
    }

    void
    writeRequest(JsonWriter &w, const Body &b, const Member &m) const
    {
        const Superblock &sb = sbOf(m);
        std::string text = writeSuperblock(sb);
        if (b.miss) {
            // The first line is "superblock <name>".
            text.insert(text.find('\n'), missSuffix(b));
        }
        static const char *light[] = {"cp", "sr", "dhasy"};
        w.beginObject();
        w.key("superblock").value(text);
        w.key("machine").value(machineOf(m));
        w.key("scheduler").value(m.heavy ? "balance" : light[m.sb % 3]);
        w.key("bounds").value(m.heavy);
        w.endObject();
    }

    std::string
    render(const Body &b) const
    {
        JsonWriter w;
        if (b.batch) {
            w.beginObject().key("requests").beginArray();
            for (const Member &m : b.members)
                writeRequest(w, b, m);
            w.endArray().endObject();
        } else {
            writeRequest(w, b, b.members[0]);
        }
        return w.str();
    }

    /** @return the reply of miss body @p b with its names restored. */
    std::string
    unrenamed(const Body &b, std::string reply) const
    {
        const std::string suffix = missSuffix(b);
        for (std::size_t p; (p = reply.find(suffix)) != std::string::npos;)
            reply.erase(p, suffix.size());
        return reply;
    }

    /** The checks on body @p u's reply; @return the failure, if any. */
    std::string
    checkBody(std::size_t u, const std::vector<Reply> &replies, bool sent,
              bool firstRound)
    {
        const Body &b = bodies[u];
        const Reply &rep = replies[u];
        const std::string id = "body " + std::to_string(u);
        if (!sent)
            return id + ": socket error";
        if (rep.status != 200)
            return id + ": HTTP " + std::to_string(rep.status);
        if (rep.cache != (b.miss ? "miss" : "hit"))
            return id + ": cache '" + rep.cache + "'";
        if (b.miss) {
            if (unrenamed(b, rep.body) !=
                replies[std::size_t(b.hitTwin)].body)
                return id + ": miss reply differs from the hit reply";
            return {};
        }
        if (!firstRound)
            return rep.body == first[u].body
                       ? std::string()
                       : id + ": reply differs between rounds";
        if (b.batch) {
            // A batch reply is the members' single replies, in order.
            std::string want = "{\"results\":[";
            for (std::size_t i = 0; i < b.members.size(); ++i) {
                const std::string &single = replies[singleOf(b.members[i])].body;
                want += (i ? "," : "") + single.substr(0, single.size() - 1);
            }
            want += "]}\n";
            return rep.body == want ? std::string()
                                    : id + ": batch reply differs from "
                                           "its single replies";
        }
        return checkSchedule(b.members[0], rep.body, id);
    }

    /** @return the hit single body of member @p m. */
    std::size_t
    singleOf(const Member &m) const
    {
        std::size_t light = in.light.size();
        return 2 * std::size_t(m.heavy ? int(light) + m.sb : m.sb);
    }

    /** Validate a single reply's schedule, WCT and bounds. */
    std::string
    checkSchedule(const Member &m, const std::string &body,
                  const std::string &id)
    {
        JsonParseResult parsed = parseJson(body);
        const JsonValue *issue =
            parsed.ok() ? parsed.value.find("schedule") : nullptr;
        const Superblock &sb = sbOf(m);
        if (!issue || int(issue->size()) != sb.numOps())
            return id + ": malformed reply";
        Schedule s(sb.numOps());
        for (OpId op = 0; op < OpId(sb.numOps()); ++op)
            s.setIssue(op, int(issue->at(std::size_t(op)).asInt()));
        s.validate(sb, MachineModel::byName(machineOf(m)));
        double wct = parsed.value.find("wct")->asDouble();
        if (wct != s.wct(sb))
            return id + ": reported WCT is not the schedule's";
        if (!m.heavy)
            return {};
        const JsonValue *bounds = parsed.value.find("bounds");
        const JsonValue *t = bounds ? bounds->find("tightest") : nullptr;
        if (!t)
            return id + ": heavy reply carries no bounds";
        double tightest = t->asDouble();
        if (wct < tightest - 1e-6)
            return id + ": schedule beats its bound";
        quality.add(sb.execFrequency(), wct, tightest, wct);
        return {};
    }

    /**
     * The traced pass: every body through the service layers'
     * public functions in process, on a fresh engine warmed like the
     * server. @return each body's response.
     */
    std::vector<std::string>
    traced(SpanLog &log)
    {
        EngineOptions eo;
        eo.threads = 1;
        ScheduleEngine engine(eo);
        auto serve = [&](std::size_t u, SpanLog *spans) {
            ServiceRequestSet set;
            {
                Scoped s(spans, "service.parse", int(u));
                parseServiceRequestSet(bodies[u].text, ProtocolLimits{},
                                       set, nullptr);
            }
            std::vector<ServiceResult> results;
            {
                Scoped s(spans, "service.engine", int(u));
                for (const ServiceRequest &req : set.requests)
                    results.push_back(engine.run(req));
            }
            Scoped s(spans, "service.render", int(u));
            return renderServiceResponse(results, set.batch);
        };
        for (std::size_t u = 0; u < bodies.size(); ++u)
            if (!bodies[u].miss)
                serve(u, nullptr);
        std::vector<std::string> out(bodies.size());
        for (std::size_t u : order)
            out[u] = serve(u, &log);
        return out;
    }

    std::uint64_t seed;
    int round = 0;
    ServiceShapes in;
    std::vector<Body> bodies;
    std::vector<std::size_t> order;
    std::vector<Reply> first; //!< round-0 replies
    std::unique_ptr<ServiceServer> server;
};

} // namespace

std::unique_ptr<Workload>
makeServiceWorkload(std::uint64_t seed)
{
    return std::make_unique<ServiceWorkload>(seed);
}

} // namespace perfbench
