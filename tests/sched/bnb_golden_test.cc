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
 *
 * The CertifyPopulation cases pin perfbench's own `certify` units,
 * on the workload's shapes before its seed relabels them: each unit
 * runs through evaluate() as the benchmark runs it (paper lineup,
 * Best, the certifier at 50,000 nodes seeded with the envelope's
 * winner), at one and four search threads. They carry the
 * `integration-parallel` label, so the TSan job runs them.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "eval/experiment.hh"
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

/** perfbench `certify`'s master seed, population size and budget. */
constexpr std::uint64_t kCertifySeed = 0xb2b5eedULL;
constexpr int kCertifyInstances = 30;
constexpr long long kCertifyNodes = 50000;

// Recorded from the build before the certifier tested its cheap floor
// ahead of the full node bound; the floor must not move a node. As
// above, of the units whose root the seed and the static floor close,
// only the first is kept.
const Golden kCertifyGolden[] = {
    {"GP2", 0, 0x69abd414e8448a09ULL,
     R"({"wct":22.808046615600581,"lower_bound":22.808046615600581,)"
     R"("proven":true,"exhausted":true,"nodes_expanded":0,)"
     R"("pruned_by_bound":1,"pruned_by_dominance":0,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":0,)"
     R"("rounds":0})"},
    {"GP2", 3, 0x563ea6920460c014ULL,
     R"({"wct":30.73619431804017,"lower_bound":30.73552708573817,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49213,"pruned_by_dominance":28170,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 4, 0x32b6acb7aaf8fa16ULL,
     R"({"wct":21.930279414205486,"lower_bound":21.920838560264226,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49338,"pruned_by_dominance":21928,)"
     R"("incumbent_updates":0,"tasks_completed":24,"tasks_aborted":1,)"
     R"("rounds":14})"},
    {"GP2", 5, 0xebc9ec2ac8830e34ULL,
     R"({"wct":39.643581475128919,"lower_bound":39.640436636035602,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49716,"pruned_by_dominance":24122,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 8, 0x387028aa50a72438ULL,
     R"({"wct":28.852527059543004,"lower_bound":28.850186520211938,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49628,"pruned_by_dominance":21044,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 10, 0x0169be03cf41270dULL,
     R"({"wct":34.16929459321355,"lower_bound":34.130230596406406,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49372,"pruned_by_dominance":5940,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 12, 0x73f1e53d72b11996ULL,
     R"({"wct":36.273915921795371,"lower_bound":36.197950729863123,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49726,"pruned_by_dominance":20369,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 13, 0x16b95917813f1266ULL,
     R"({"wct":37.411863615137264,"lower_bound":37.355635607927937,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49556,"pruned_by_dominance":16919,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 14, 0x4e72ad07e4c00fbbULL,
     R"({"wct":26.28087768326894,"lower_bound":26.28087768326894,)"
     R"("proven":true,"exhausted":true,"nodes_expanded":20062,)"
     R"("pruned_by_bound":19987,"pruned_by_dominance":2027,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":0,)"
     R"("rounds":0})"},
    {"GP2", 15, 0x1c1406b2c75e3526ULL,
     R"({"wct":22.841797352665253,"lower_bound":22.834509554865008,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49130,"pruned_by_dominance":1757,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 17, 0x8b1af38381a4816cULL,
     R"({"wct":22.505067560430302,"lower_bound":22.445373770412186,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":48119,"pruned_by_dominance":36964,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 21, 0x9d96c56afe5a0004ULL,
     R"({"wct":24.843899196624662,"lower_bound":24.834058828394408,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49381,"pruned_by_dominance":17640,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 24, 0xa3750268a8ee1e86ULL,
     R"({"wct":45.436775317509728,"lower_bound":45.433790255295435,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49803,"pruned_by_dominance":15204,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 25, 0xc6ba7c4b1057961aULL,
     R"({"wct":31.185007515230414,"lower_bound":31.174574699271513,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49615,"pruned_by_dominance":5057,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"GP2", 27, 0x84238882c457db19ULL,
     R"({"wct":27.952198471573908,"lower_bound":27.944938985673076,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49645,"pruned_by_dominance":14944,)"
     R"("incumbent_updates":0,"tasks_completed":15,"tasks_aborted":1,)"
     R"("rounds":15})"},
    {"FS4", 3, 0x08cc8ff72613c4f0ULL,
     R"({"wct":40.700474270309385,"lower_bound":40.699139805705393,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":43974,"pruned_by_dominance":23853,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 7, 0xb67883204f65c9acULL,
     R"({"wct":66.998122049244103,"lower_bound":66.997204021692355,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":47491,"pruned_by_dominance":9533,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 9, 0xf8adc9d4d49b1659ULL,
     R"({"wct":24.045295063627652,"lower_bound":24.043764088180797,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49148,"pruned_by_dominance":30197,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 10, 0x9226b4d037856bc8ULL,
     R"({"wct":39.801456095732611,"lower_bound":39.800428516229651,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":46560,"pruned_by_dominance":4412,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 11, 0x361be30231adaa8fULL,
     R"({"wct":43.51183200173022,"lower_bound":43.510449427521557,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49090,"pruned_by_dominance":20421,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 12, 0x2fff49cc06c917ebULL,
     R"({"wct":41.649060405527905,"lower_bound":41.638242466516658,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49422,"pruned_by_dominance":9972,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 13, 0x9b51982e0106f1fcULL,
     R"({"wct":44.461600991137736,"lower_bound":44.371739540631921,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49495,"pruned_by_dominance":11483,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 17, 0xa425c64c0243d63eULL,
     R"({"wct":26.95901961479634,"lower_bound":26.946416837387886,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":46384,"pruned_by_dominance":10030,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 18, 0x4445ab01a51c1b5eULL,
     R"({"wct":47.498517207042823,"lower_bound":47.46551811794869,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":46719,"pruned_by_dominance":13346,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 21, 0x82ff0182492e7495ULL,
     R"({"wct":26.127637055999866,"lower_bound":26.115665264479148,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49184,"pruned_by_dominance":9205,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 22, 0x71205ef365e861eeULL,
     R"({"wct":25.67968423992891,"lower_bound":25.678496297088177,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":48184,"pruned_by_dominance":9217,)"
     R"("incumbent_updates":0,"tasks_completed":59,"tasks_aborted":2,)"
     R"("rounds":31})"},
    {"FS4", 23, 0xc5ea254fb72cfbfcULL,
     R"({"wct":53.454962361537611,"lower_bound":53.448515150636823,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":46753,"pruned_by_dominance":8448,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 24, 0x3e9c6b57fff412d3ULL,
     R"({"wct":53.582355936582388,"lower_bound":53.580918684405134,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":49468,"pruned_by_dominance":11687,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 25, 0x466054f1c52448d8ULL,
     R"({"wct":34.044449287121736,"lower_bound":34.033653021128544,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":48819,"pruned_by_dominance":5401,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
    {"FS4", 27, 0x1ea2c34e6c85e881ULL,
     R"({"wct":33.702113690207369,"lower_bound":33.69157866199884,)"
     R"("proven":false,"exhausted":false,"nodes_expanded":50000,)"
     R"("pruned_by_bound":47399,"pruned_by_dominance":21067,)"
     R"("incumbent_updates":0,"tasks_completed":0,"tasks_aborted":2,)"
     R"("rounds":1})"},
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

/** The first @p count draws of @p seed's streams in the 50-100-op band. */
std::vector<Superblock>
population(std::uint64_t seed, int count)
{
    std::vector<Superblock> out;
    for (std::uint64_t stream = 0; int(out.size()) < count; ++stream) {
        Rng rng = Rng::stream(seed, stream);
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
    std::vector<Superblock> sbs = population(kSeed, kInstances);
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

/** kCertifyGolden, each unit as perfbench's `certify` evaluates it. */
void
checkCertifyAt(int threads)
{
    std::vector<Superblock> sbs =
        population(kCertifySeed, kCertifyInstances);
    HeuristicSet set = HeuristicSet::paperSet(true);
    for (const Golden &g : kCertifyGolden) {
        const Superblock &sb = sbs[std::size_t(g.instance)];
        SCOPED_TRACE(sb.name() + " on " + g.machine);
        MachineModel machine = MachineModel::byName(g.machine);
        GraphContext ctx(sb);
        EvalPlan plan;
        plan.lineup = set.primaries;
        plan.withBest = set.withBest;
        plan.certify = true;
        plan.bnbMaxNodes = kCertifyNodes;
        plan.bnbThreads = threads;
        EvalOutcome out = evaluate(ctx, machine, plan);
        ASSERT_TRUE(out.bnb);
        EXPECT_EQ(out.bnb->certificate(), g.certificate);
        EXPECT_EQ(issueHash(out.bnb->schedule), g.issueHash);
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

TEST(BnbGolden, CertifyPopulationSerial)
{
    checkCertifyAt(1);
}

TEST(BnbGolden, CertifyPopulationFourThreads)
{
    checkCertifyAt(4);
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
