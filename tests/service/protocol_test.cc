/**
 * The service request/response schema (service/protocol.hh): checked
 * machine lookup, full request-body validation (every malformed input
 * must come back as an error string, never an abort — bodies are
 * untrusted), limits enforcement, and response serialization.
 */

#include "service/protocol.hh"

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "sched/bnb/bnb.hh"
#include "support/json.hh"
#include "workload/generator.hh"
#include "workload/paper_figures.hh"
#include "workload/sb_io.hh"

namespace balance
{
namespace
{

std::string
sbText()
{
    return writeSuperblock(paperFigure6());
}

/** A minimal valid single-request body. */
std::string
requestJson(const std::string &extra = "")
{
    JsonWriter w;
    w.beginObject().key("superblock").value(sbText());
    w.endObject();
    std::string body = w.str();
    if (!extra.empty())
        body.insert(body.size() - 1, "," + extra);
    return body;
}

TEST(ServiceProtocol, MachineLookupIsCheckedAndCaseInsensitive)
{
    MachineModel m = MachineModel::gp1();
    EXPECT_TRUE(machineByNameChecked("GP4", &m));
    EXPECT_EQ(m.name(), "GP4");
    EXPECT_TRUE(machineByNameChecked("fs8", &m));
    EXPECT_EQ(m.name(), "FS8");
    EXPECT_TRUE(machineByNameChecked("Gp2", nullptr));
    EXPECT_FALSE(machineByNameChecked("gp3", nullptr));
    EXPECT_FALSE(machineByNameChecked("", nullptr));
    EXPECT_FALSE(machineByNameChecked("GP4 ", nullptr));
}

TEST(ServiceProtocol, SchedulerKeys)
{
    for (const char *key :
         {"balance", "cp", "sr", "gstar", "dhasy", "help", "best"})
        EXPECT_TRUE(schedulerKeyValid(key)) << key;
    EXPECT_FALSE(schedulerKeyValid("optimal"));
    EXPECT_FALSE(schedulerKeyValid(""));
}

TEST(ServiceProtocol, ParsesSingleRequestWithDefaults)
{
    ServiceRequestSet set;
    std::string err;
    ASSERT_TRUE(
        parseServiceRequestSet(requestJson(), {}, set, &err))
        << err;
    EXPECT_FALSE(set.batch);
    ASSERT_EQ(set.requests.size(), 1u);
    const ServiceRequest &r = set.requests[0];
    EXPECT_EQ(r.machine, "GP4");
    EXPECT_EQ(r.scheduler, "balance");
    EXPECT_TRUE(r.bounds);
    EXPECT_FALSE(r.certify);
    EXPECT_EQ(r.sb.numOps(), paperFigure6().numOps());
}

TEST(ServiceProtocol, ParsesExplicitOptions)
{
    ServiceRequestSet set;
    std::string err;
    std::string body = requestJson(
        "\"machine\":\"fs6\",\"scheduler\":\"cp\",\"bounds\":false,"
        "\"certify\":true,\"bnb_max_nodes\":1000");
    ASSERT_TRUE(parseServiceRequestSet(body, {}, set, &err)) << err;
    const ServiceRequest &r = set.requests[0];
    EXPECT_EQ(r.machine, "FS6"); // canonicalized
    EXPECT_EQ(r.scheduler, "cp");
    EXPECT_FALSE(r.bounds);
    EXPECT_TRUE(r.certify);
    EXPECT_EQ(r.bnbMaxNodes, 1000);
}

TEST(ServiceProtocol, ClampsBnbNodeBudgetToTheCap)
{
    ProtocolLimits limits;
    limits.bnbNodeCap = 500;
    ServiceRequestSet set;
    std::string err;
    ASSERT_TRUE(parseServiceRequestSet(
        requestJson("\"bnb_max_nodes\":999999999"), limits, set,
        &err))
        << err;
    EXPECT_EQ(set.requests[0].bnbMaxNodes, 500);
}

TEST(ServiceProtocol, ParsesBatchForm)
{
    std::string body =
        "{\"requests\":[" + requestJson() + "," + requestJson() + "]}";
    ServiceRequestSet set;
    std::string err;
    ASSERT_TRUE(parseServiceRequestSet(body, {}, set, &err)) << err;
    EXPECT_TRUE(set.batch);
    EXPECT_EQ(set.requests.size(), 2u);
}

TEST(ServiceProtocol, RejectsMalformedBodies)
{
    const struct
    {
        std::string body;
        const char *expect;
    } cases[] = {
        {"", "JSON"},
        {"not json", "JSON"},
        {"[1,2,3]", "object"},
        {"{}", "superblock"},
        {"{\"superblock\":42}", "superblock"},
        {"{\"superblock\":\"superblock x\\nend\\n\"}",
         "no operations"},
        {requestJson("\"machine\":\"vliw9\""), "machine"},
        {requestJson("\"machine\":7"), "machine"},
        {requestJson("\"scheduler\":\"lru\""), "scheduler"},
        {requestJson("\"bounds\":\"yes\""), "bounds"},
        {requestJson("\"certify\":1"), "certify"},
        {requestJson("\"bnb_max_nodes\":\"many\""), "bnb_max_nodes"},
        {"{\"requests\":[]}", "empty"},
        {"{\"requests\":42}", "requests"},
    };
    for (const auto &c : cases) {
        ServiceRequestSet set;
        std::string err;
        EXPECT_FALSE(parseServiceRequestSet(c.body, {}, set, &err))
            << c.body;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << "body: " << c.body << "\nerror: " << err;
    }
}

TEST(ServiceProtocol, EnforcesBatchAndOpLimits)
{
    ProtocolLimits limits;
    limits.maxBatch = 2;
    std::string body = "{\"requests\":[" + requestJson() + "," +
                       requestJson() + "," + requestJson() + "]}";
    ServiceRequestSet set;
    std::string err;
    EXPECT_FALSE(parseServiceRequestSet(body, limits, set, &err));
    EXPECT_NE(err.find("batch"), std::string::npos) << err;

    limits = ProtocolLimits{};
    limits.maxOps = 3; // paperFigure6 is larger
    EXPECT_FALSE(
        parseServiceRequestSet(requestJson(), limits, set, &err));
    EXPECT_NE(err.find("ops"), std::string::npos) << err;
}

/** A single-request body for @p sb. */
std::string
requestFor(const Superblock &sb)
{
    JsonWriter w;
    w.beginObject().key("superblock").value(writeSuperblock(sb));
    w.endObject();
    return w.str();
}

TEST(ServiceProtocol, RefusesHugeCycleSpansAtParseTime)
{
    // A 17-op IntAlu chain at latency 2^24 per op: LC alone asked for
    // gigabytes on it, since relaxation tables are indexed by cycle.
    // The parser refuses it, so no bound ever runs on it.
    const int lat = 1 << 24;
    SuperblockBuilder b("span-probe");
    OpId prev = b.addOp(OpClass::IntAlu, lat);
    for (int k = 1; k < 16; ++k) {
        OpId v = b.addOp(OpClass::IntAlu, lat);
        b.addEdge(prev, v);
        prev = v;
    }
    b.addEdge(prev, b.addBranch(1.0));
    Superblock probe = b.build();
    ASSERT_EQ(probe.numOps(), 17);

    ServiceRequestSet set;
    std::string err;
    EXPECT_FALSE(parseServiceRequestSet(requestFor(probe), {}, set, &err));
    long long span = 17 + 16LL * lat + 1;
    EXPECT_NE(err.find(std::to_string(span)), std::string::npos) << err;
    EXPECT_NE(err.find(std::to_string(maxCycleSpan)), std::string::npos)
        << err;

    // An edge longer than its source op's latency counts too.
    SuperblockBuilder e("edge-probe");
    OpId a = e.addOp(OpClass::IntAlu);
    e.addEdge(a, e.addBranch(1.0), int(maxCycleSpan));
    EXPECT_FALSE(
        parseServiceRequestSet(requestFor(e.build()), {}, set, &err));
    EXPECT_NE(err.find("cycles"), std::string::npos) << err;
}

TEST(ServiceProtocol, PaperMaximumAndFullSizeBodiesStayServed)
{
    // The generator's giant shape asked for 200 blocks: it fills the
    // paper's 607-op maximum; with shorter blocks it reaches the
    // paper's 200 branches.
    GeneratorParams giant;
    giant.giantProb = 1.0;
    giant.giantMinBlocks = giant.giantMaxBlocks = 200;
    Rng rng(5);
    Superblock maxOps = generateSuperblock(rng, giant, "paper-max-ops");
    EXPECT_EQ(maxOps.numOps(), 607);
    giant.giantOpsPerBlockMu = 0.3;
    Superblock maxBranches =
        generateSuperblock(rng, giant, "paper-max-branches");
    EXPECT_EQ(maxBranches.numBranches(), 200);

    // The most ops the service accepts, at machine latencies and with
    // every op a float divide, the longest class.
    GeneratorParams full = giant;
    full.maxOps = ProtocolLimits{}.maxOps;
    full.giantOpsPerBlockMu = 3.5;
    full.floatFraction = 1.0;
    full.floatDivFraction = 1.0;
    Superblock fullSize = generateSuperblock(rng, full, "full-size");
    EXPECT_EQ(fullSize.numOps(), ProtocolLimits{}.maxOps);

    for (const Superblock *sb : {&maxOps, &maxBranches, &fullSize}) {
        ServiceRequestSet set;
        std::string err;
        EXPECT_TRUE(parseServiceRequestSet(requestFor(*sb), {}, set, &err))
            << sb->name() << ": " << err;
    }
}

/** @p n ops: a chain of n - 1 IntAlu ops into one branch. */
Superblock
chainOf(int n)
{
    SuperblockBuilder b("chain" + std::to_string(n));
    OpId prev = b.addOp(OpClass::IntAlu);
    for (int k = 2; k < n; ++k) {
        OpId v = b.addOp(OpClass::IntAlu);
        b.addEdge(prev, v);
        prev = v;
    }
    b.addEdge(prev, b.addBranch(1.0));
    return b.build();
}

TEST(ServiceProtocol, RefusesCertifyAboveTheCertifierLimit)
{
    // Above maxBnbOps the certifier aborts the process, so the parser
    // refuses a certify request that large, naming both numbers; the
    // same body without certify is served.
    ASSERT_EQ(maxBnbOps, 1024);
    auto certifyBody = [](const Superblock &sb) {
        std::string body = requestFor(sb);
        body.insert(body.size() - 1, ",\"certify\":true");
        return body;
    };
    ServiceRequestSet set;
    std::string err;
    EXPECT_FALSE(parseServiceRequestSet(certifyBody(chainOf(1025)), {},
                                        set, &err));
    EXPECT_NE(err.find("1025 ops"), std::string::npos) << err;
    EXPECT_NE(err.find("limited to 1024"), std::string::npos) << err;
    EXPECT_FALSE(parseServiceRequestSet(certifyBody(chainOf(1100)), {},
                                        set, &err));

    ASSERT_TRUE(parseServiceRequestSet(certifyBody(chainOf(1024)), {},
                                       set, &err))
        << err;
    EXPECT_TRUE(set.requests[0].certify);
    ASSERT_TRUE(
        parseServiceRequestSet(requestFor(chainOf(1100)), {}, set, &err))
        << err;
    EXPECT_EQ(set.requests[0].sb.numOps(), 1100);
    EXPECT_FALSE(set.requests[0].certify);
}

TEST(ServiceProtocol, BatchErrorsNameTheOffendingIndex)
{
    std::string body =
        "{\"requests\":[" + requestJson() + ",{\"superblock\":3}]}";
    ServiceRequestSet set;
    std::string err;
    EXPECT_FALSE(parseServiceRequestSet(body, {}, set, &err));
    EXPECT_NE(err.find("requests[1]"), std::string::npos) << err;
}

TEST(ServiceProtocol, ResponsesAreValidJsonAndOmitCacheState)
{
    ServiceResult r;
    r.name = "sb";
    r.machine = "GP4";
    r.scheduler = "balance";
    r.wct = 12.5;
    r.makespan = 9;
    r.issue = {0, 1, 2};
    r.haveBounds = true;
    r.tightest = 11.0;
    r.cacheHit = true; // must NOT appear in the body

    std::string single = renderServiceResponse({r}, false);
    EXPECT_TRUE(jsonLooksValid(single)) << single;
    EXPECT_EQ(single.find("cache"), std::string::npos) << single;
    EXPECT_NE(single.find("\"wct\""), std::string::npos);

    std::string batch = renderServiceResponse({r, r}, true);
    EXPECT_TRUE(jsonLooksValid(batch)) << batch;
    EXPECT_NE(batch.find("\"results\""), std::string::npos);

    EXPECT_TRUE(jsonLooksValid(renderServiceError("bad \"thing\"")));
}

} // namespace
} // namespace balance
