/**
 * @file
 * Golden certificates for the branch-and-bound certifier on
 * 50-100-op superblocks, the size the certifier exists for. Each
 * search's rendered certificate (bounds, flags and every counter)
 * and a hash of its schedule's issue cycles are pinned to values
 * recorded from a known-good build, so a change to the per-node
 * bound, the undo log or the search order that moves a single node,
 * prune or issue cycle fails here, not only when two thread counts
 * disagree (bnb_determinism_test) or on <= 12-op instances
 * (differential_small_test).
 *
 * The population is perfbench's `certify` shape on GP2 and FS4. The
 * budget stops most searches; small task chunks make many of them
 * run two or three rounds, and one search exhausts its tree while the
 * root is still being split. Carries the `parallel` label: every search also
 * runs on four threads.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "eval/pipeline.hh"
#include "sched/bnb/bnb.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

constexpr std::uint64_t kSeed = 0x90bde2c3ULL;
constexpr int kInstances = 15;
constexpr long long kMaxNodes = 30000;
constexpr long long kTaskChunk = 128;

/** One pinned search: machine, population index, expected result. */
struct Golden
{
    const char *machine;
    int instance;
    std::uint64_t issueHash;
    const char *certificate;
};

// Recorded from a build whose per-node bound recounted each branch
// closure op by op; the slot counts the engine keeps must reproduce
// it bit for bit. Of the searches whose root the seed and the static
// floor already close (no node expanded), only the first is kept.
const Golden kGolden[] = {
    {"GP2", 0, 0x601957f08d49ed36ULL,
     R"({"wct":38.030514473043944,"lower_bound":38.02467739902022,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":27872,"pruned_by_dominance":4499,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":158,)"
     R"("rounds":2})"},
    {"GP2", 1, 0xcf3dbbb3706474c4ULL,
     R"({"wct":24.127160316646407,"lower_bound":24.114880131392592,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":28444,"pruned_by_dominance":5850,)"
     R"("incumbent_updates":11,"tasks_completed":0,"tasks_aborted":200,)"
     R"("rounds":2})"},
    {"GP2", 2, 0x782e60d0d1b76468ULL,
     R"({"wct":26.010425534021167,"lower_bound":25.995664621965943,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":28345,"pruned_by_dominance":24699,)"
     R"("incumbent_updates":4,"tasks_completed":0,"tasks_aborted":223,)"
     R"("rounds":2})"},
    {"GP2", 3, 0x3a2d5982c0fd385cULL,
     R"({"wct":17.869800156016524,"lower_bound":17.866943672383101,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":29373,"pruned_by_dominance":7078,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":121,)"
     R"("rounds":2})"},
    {"GP2", 4, 0x8eab7302c49ff53fULL,
     R"({"wct":21.238849209178781,"lower_bound":21.238849209178781,)"
     R"("proven":true,"exhausted":true,"nodes_expanded":18606,)"
     R"("pruned_by_bound":16191,"pruned_by_dominance":5943,)"
     R"("incumbent_updates":53,"tasks_completed":0,"tasks_aborted":144,)"
     R"("rounds":1})"},
    {"GP2", 5, 0xdb92f9c9406902feULL,
     R"({"wct":23.589656351032666,"lower_bound":23.589656351032666,)"
     R"("proven":true,"exhausted":true,"nodes_expanded":0,)"
     R"("pruned_by_bound":1,"pruned_by_dominance":0,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":0,)"
     R"("rounds":0})"},
    {"GP2", 6, 0x1b4850f1c600c392ULL,
     R"({"wct":22.751870689402885,"lower_bound":22.718477451450468,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":28294,"pruned_by_dominance":6459,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":219,)"
     R"("rounds":2})"},
    {"GP2", 8, 0x3682d251b351e206ULL,
     R"({"wct":39.184348382294772,"lower_bound":39.091569411228861,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":20591,"pruned_by_dominance":34529,)"
     R"("incumbent_updates":121,"tasks_completed":0,"tasks_aborted":231,)"
     R"("rounds":1})"},
    {"GP2", 10, 0x00fe3ea81f833c28ULL,
     R"({"wct":25.298344088908529,"lower_bound":25.297499048452046,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":27535,"pruned_by_dominance":23708,)"
     R"("incumbent_updates":19,"tasks_completed":0,"tasks_aborted":138,)"
     R"("rounds":3})"},
    {"GP2", 11, 0x8492a520bacacae4ULL,
     R"({"wct":24.565886606580147,"lower_bound":24.565754385801256,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":28472,"pruned_by_dominance":17318,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":140,)"
     R"("rounds":3})"},
    {"GP2", 13, 0xfa2a095c252c49d4ULL,
     R"({"wct":39.962859382924393,"lower_bound":39.855429053804102,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":21058,"pruned_by_dominance":37313,)"
     R"("incumbent_updates":29,"tasks_completed":0,"tasks_aborted":233,)"
     R"("rounds":1})"},
    {"GP2", 14, 0x53a3cae787f97144ULL,
     R"({"wct":27.756383190995198,"lower_bound":27.756383190995198,)"
     R"("proven":true,"exhausted":true,"nodes_expanded":13938,)"
     R"("pruned_by_bound":13877,"pruned_by_dominance":3848,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":0,)"
     R"("rounds":0})"},
    {"FS4", 2, 0x27981375b2100047ULL,
     R"({"wct":30.851908388127125,"lower_bound":30.675387745658938,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":12879,"pruned_by_dominance":36916,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":159,)"
     R"("rounds":2})"},
    {"FS4", 3, 0xba65c270b286c413ULL,
     R"({"wct":18.512719429267733,"lower_bound":18.510532341821936,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":28312,"pruned_by_dominance":5258,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":149,)"
     R"("rounds":3})"},
    {"FS4", 4, 0x21af3eb5a56f01b6ULL,
     R"({"wct":23.529684920262472,"lower_bound":23.524541871201265,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":24150,"pruned_by_dominance":7296,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":159,)"
     R"("rounds":2})"},
    {"FS4", 6, 0x6736d7ad3a590e50ULL,
     R"({"wct":25.903057594718931,"lower_bound":25.884463583199587,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":28517,"pruned_by_dominance":7389,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":139,)"
     R"("rounds":3})"},
    {"FS4", 8, 0x54b1971a08838812ULL,
     R"({"wct":47.537452691969591,"lower_bound":47.517408119265319,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":24813,"pruned_by_dominance":9596,)"
     R"("incumbent_updates":8,"tasks_completed":0,"tasks_aborted":195,)"
     R"("rounds":3})"},
    {"FS4", 10, 0xd20d5bc89e2f7534ULL,
     R"({"wct":32.671133476849093,"lower_bound":32.653925886704201,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":30000,)"
     R"("pruned_by_bound":26572,"pruned_by_dominance":10088,)"
     R"("incumbent_updates":0,"tasks_completed":45,"tasks_aborted":121,)"
     R"("rounds":3})"},
    {"FS4", 14, 0x568d025ded2dbde5ULL,
     R"({"wct":30.790306194195374,"lower_bound":30.790306194195374,)"
     R"("proven":true,"exhausted":true,"nodes_expanded":30000,)"
     R"("pruned_by_bound":29276,"pruned_by_dominance":7300,)"
     R"("incumbent_updates":4,"tasks_completed":0,"tasks_aborted":176,)"
     R"("rounds":2})"},
};

/** perfbench's `certify` shape: draws centred on 50-100 ops. */
GeneratorParams
certifyParams()
{
    GeneratorParams params;
    params.blockGeoP = 0.22;
    params.opsPerBlockMu = 1.7;
    params.opsPerBlockSigma = 0.5;
    params.maxOps = 100;
    params.maxBlocks = 20;
    return params;
}

/** The first kInstances draws inside the 50-100-op band. */
std::vector<Superblock>
population()
{
    std::vector<Superblock> out;
    for (std::uint64_t stream = 0; int(out.size()) < kInstances;
         ++stream) {
        Rng rng = Rng::stream(kSeed, stream);
        Superblock sb = generateSuperblock(
            rng, certifyParams(),
            "bnbgold.sb" + std::to_string(out.size()));
        if (sb.numOps() >= 50 && sb.numOps() <= 100)
            out.push_back(std::move(sb));
    }
    return out;
}

/** FNV-1a 64 over the issue cycles' bytes, in op order. */
std::uint64_t
issueHash(const Schedule &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (OpId v = 0; v < s.numOps(); ++v) {
        auto x = std::uint32_t(s.issueOf(v));
        for (int i = 0; i < 4; ++i) {
            h ^= (x >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

void
checkAt(int threads)
{
    std::vector<Superblock> sbs = population();
    for (const Golden &g : kGolden) {
        const Superblock &sb = sbs[std::size_t(g.instance)];
        SCOPED_TRACE(sb.name() + " on " + g.machine);
        MachineModel machine = MachineModel::byName(g.machine);
        GraphContext ctx(sb);
        BoundsToolkit toolkit(ctx, machine);
        BnbOptions opts;
        opts.maxNodes = kMaxNodes;
        opts.taskChunk = kTaskChunk;
        opts.threads = threads;
        BnbRequest req;
        req.toolkit = &toolkit;
        req.staticLowerBound = computeWctBounds(ctx, machine).tightest();
        BnbResult r = bnbSchedule(ctx, machine, opts, req);
        r.schedule.validate(sb, machine);
        EXPECT_EQ(r.certificate(), g.certificate);
        EXPECT_EQ(issueHash(r.schedule), g.issueHash);
    }
}

TEST(BnbGolden, SerialCertificatesMatch)
{
    checkAt(1);
}

TEST(BnbGolden, FourThreadCertificatesMatch)
{
    checkAt(4);
}

TEST(BnbGolden, TableCoversBudgetRoundsAndSplit)
{
    // The pins only guard what the searches exercise: most stop on
    // the budget, some run three rounds, and one exhausts its tree
    // during the serial split (no round, nodes expanded).
    int budgetBound = 0;
    int threeRounds = 0;
    int splitOnly = 0;
    for (const Golden &g : kGolden) {
        JsonParseResult cert = parseJson(g.certificate);
        ASSERT_TRUE(cert.ok()) << cert.error.message;
        long long nodes = cert.value.find("nodes_expanded")->asInt();
        long long rounds = cert.value.find("rounds")->asInt();
        bool exhausted = cert.value.find("exhausted")->asBool();
        budgetBound += nodes == kMaxNodes && !exhausted;
        threeRounds += rounds >= 3;
        splitOnly += rounds == 0 && nodes > 0;
    }
    EXPECT_GT(2 * budgetBound, int(std::size(kGolden)));
    EXPECT_GE(threeRounds, 1);
    EXPECT_GE(splitOnly, 1);
}

} // namespace
} // namespace balance
