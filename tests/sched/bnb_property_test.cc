/**
 * Randomized certified-gap invariants for the branch-and-bound
 * scheduler, across all six machine configurations and fixed
 * Rng::stream seeds. Two regimes per machine:
 *
 *  - a roomy budget, where most instances certify exactly;
 *  - a starvation budget (few hundred nodes, tiny chunks), where the
 *    search must degrade to an explicit gap certificate.
 *
 * In both, every result must satisfy: the incumbent is a feasible
 * complete schedule whose recomputed WCT matches the reported one;
 * the certified gap is non-negative; the node budget is a hard cap;
 * the certificate ladder RJ <= PW <= TW <= lowerBound <= wct is
 * monotone; proven results have a closed gap; and the certificate
 * renders as valid JSON.
 */

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "eval/pipeline.hh"
#include "sched/bnb/bnb.hh"
#include "support/json.hh"
#include "support/parallel_for.hh"
#include "support/rng.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

constexpr std::uint64_t kSeed = 0xb0bb5eed5ca1edULL;
constexpr int kInstances = 24;

/** Mid-size shape: enough ops that pruning and splitting matter. */
GeneratorParams
midParams()
{
    GeneratorParams params;
    params.blockGeoP = 0.45;
    params.opsPerBlockMu = 1.4;
    params.opsPerBlockSigma = 0.6;
    params.maxOps = 32;
    params.maxBlocks = 6;
    return params;
}

Superblock
instanceAt(std::size_t i)
{
    Rng rng = Rng::stream(kSeed, i);
    return generateSuperblock(rng, midParams(),
                              "bnbprop.sb" + std::to_string(i));
}

struct Outcome
{
    WctBounds bounds;
    BnbResult result;
    double recomputedWct = 0.0;
    bool scheduleComplete = false;
    bool certificateJson = false;
};

Outcome
runInstance(std::size_t i, const MachineModel &machine,
            const BnbOptions &opts)
{
    Superblock sb = instanceAt(i);
    GraphContext ctx(sb);
    BoundsToolkit toolkit(ctx, machine);

    Outcome out;
    out.bounds = computeWctBounds(ctx, machine);
    BnbRequest req;
    req.toolkit = &toolkit;
    req.staticLowerBound = out.bounds.tightest();
    out.result = bnbSchedule(ctx, machine, opts, req);
    out.scheduleComplete = out.result.schedule.complete();
    // Feasibility: validate panics on any dependence or resource
    // violation, so reaching the next line is the assertion.
    out.result.schedule.validate(sb, machine);
    out.recomputedWct = out.result.schedule.wct(sb);
    out.certificateJson = jsonLooksValid(out.result.certificate());
    return out;
}

void
checkInvariants(const Outcome &out, long long maxNodes,
                std::size_t instance)
{
    const BnbResult &r = out.result;
    SCOPED_TRACE("instance " + std::to_string(instance));

    // Incumbent feasibility and self-consistency.
    EXPECT_TRUE(out.scheduleComplete);
    EXPECT_EQ(r.wct, out.recomputedWct);

    // Certified gap is never negative and closes exactly when the
    // result claims proven.
    EXPECT_LE(r.lowerBound, r.wct + 1e-12);
    EXPECT_GE(r.gap(), -1e-12);
    if (r.proven) {
        EXPECT_LE(r.gap(), 1e-9);
    }
    if (r.exhausted) {
        EXPECT_TRUE(r.proven);
    }

    // The node budget is a hard cap, not a hint.
    EXPECT_LE(r.counters.nodesExpanded, maxNodes);
    EXPECT_GE(r.counters.nodesExpanded, 0);
    EXPECT_GE(r.counters.prunedByBound, 0);
    EXPECT_GE(r.counters.prunedByDominance, 0);
    EXPECT_GE(r.counters.incumbentUpdates, 0);
    EXPECT_GE(r.counters.tasksCompleted, 0);
    EXPECT_GE(r.counters.tasksAborted, 0);
    EXPECT_GE(r.counters.rounds, 0);

    // Certificate ladder: RJ <= PW <= TW <= lowerBound <= wct.
    EXPECT_LE(out.bounds.rj, out.bounds.pw + 1e-9);
    EXPECT_LE(out.bounds.pw, out.bounds.tw + 1e-9);
    EXPECT_LE(out.bounds.tw, r.lowerBound + 1e-9);
    EXPECT_LE(out.bounds.tightest(), r.lowerBound + 1e-9);

    EXPECT_TRUE(out.certificateJson);
}

class BnbProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BnbProperty, RoomyBudgetCertifiesWithInvariants)
{
    MachineModel machine = MachineModel::byName(GetParam());
    BnbOptions opts;
    opts.maxNodes = 200000;
    opts.threads = 1; // the harness parallelizes over instances
    std::vector<Outcome> slots(kInstances);
    parallelFor(slots.size(), [&](std::size_t i) {
        slots[i] = runInstance(i, machine, opts);
    });

    int proven = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        checkInvariants(slots[i], opts.maxNodes, i);
        if (slots[i].result.proven)
            ++proven;
    }
    // The roomy budget must certify a solid majority of 32-op
    // instances (in practice: all of them).
    EXPECT_GE(proven, kInstances * 3 / 4);
}

TEST_P(BnbProperty, StarvationBudgetStillCertifiesAGap)
{
    MachineModel machine = MachineModel::byName(GetParam());
    BnbOptions opts;
    opts.maxNodes = 300;
    opts.taskChunk = 50;
    opts.splitTarget = 8;
    opts.threads = 1;
    std::vector<Outcome> slots(kInstances);
    parallelFor(slots.size(), [&](std::size_t i) {
        slots[i] = runInstance(i, machine, opts);
    });

    for (std::size_t i = 0; i < slots.size(); ++i)
        checkInvariants(slots[i], opts.maxNodes, i);
}

TEST_P(BnbProperty, NoSeedSearchStillReturnsFeasibleIncumbent)
{
    // With seeding off and a tiny budget, the emergency fallback
    // must still hand back a feasible schedule with a sane
    // certificate.
    MachineModel machine = MachineModel::byName(GetParam());
    BnbOptions opts;
    opts.maxNodes = 40;
    opts.taskChunk = 20;
    opts.splitTarget = 4;
    opts.threads = 1;
    opts.seedWithBest = false;
    std::vector<Outcome> slots(kInstances);
    parallelFor(slots.size(), [&](std::size_t i) {
        slots[i] = runInstance(i, machine, opts);
    });
    for (std::size_t i = 0; i < slots.size(); ++i)
        checkInvariants(slots[i], opts.maxNodes, i);
}

INSTANTIATE_TEST_SUITE_P(Machines, BnbProperty,
                         ::testing::Values("GP1", "GP2", "GP4", "FS4",
                                           "FS6", "FS8"));

} // namespace
} // namespace balance
