/**
 * Thread-count invariance of the branch-and-bound scheduler. The
 * engine's contract is bitwise reproducibility: the returned
 * schedule, the certified bounds, every counter, and the rendered
 * certificate must be identical whether the search runs on one
 * thread or many. The test pins that by running each instance at
 * several thread counts and comparing results field by field with
 * exact equality — no tolerances.
 *
 * Carries the `parallel` label so the sanitizer CI job replays the
 * shared-incumbent snapshot protocol under TSAN.
 */

#include <gtest/gtest.h>

#include "bounds/superblock_bounds.hh"
#include "eval/pipeline.hh"
#include "sched/bnb/bnb.hh"
#include "support/rng.hh"
#include "workload/generator.hh"

namespace balance
{
namespace
{

constexpr std::uint64_t kSeed = 0xde7e2815117ULL;
constexpr int kInstances = 8;

/** Big enough that the split frontier and rounds actually engage. */
GeneratorParams
shapeParams()
{
    GeneratorParams params;
    params.blockGeoP = 0.4;
    params.opsPerBlockMu = 1.6;
    params.opsPerBlockSigma = 0.6;
    params.maxOps = 40;
    params.maxBlocks = 6;
    return params;
}

struct Fingerprint
{
    double wct = 0.0;
    double lowerBound = 0.0;
    bool proven = false;
    bool exhausted = false;
    std::vector<int> issue;
    BnbCounters counters;
    std::string certificate;
};

Fingerprint
runAt(const GraphContext &ctx, const MachineModel &machine,
      const BoundsToolkit &toolkit, double staticLower,
      BnbOptions opts, int threads)
{
    opts.threads = threads;
    BnbRequest req;
    req.toolkit = &toolkit;
    req.staticLowerBound = staticLower;
    BnbResult r = bnbSchedule(ctx, machine, opts, req);

    Fingerprint fp;
    fp.wct = r.wct;
    fp.lowerBound = r.lowerBound;
    fp.proven = r.proven;
    fp.exhausted = r.exhausted;
    for (OpId v = 0; v < ctx.sb().numOps(); ++v)
        fp.issue.push_back(r.schedule.issueOf(v));
    fp.counters = r.counters;
    fp.certificate = r.certificate();
    return fp;
}

void
expectIdentical(const Fingerprint &a, const Fingerprint &b,
                int threads)
{
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Bitwise, not approximate: the determinism contract says the
    // parallel search computes the same arithmetic as the serial one.
    EXPECT_EQ(a.wct, b.wct);
    EXPECT_EQ(a.lowerBound, b.lowerBound);
    EXPECT_EQ(a.proven, b.proven);
    EXPECT_EQ(a.exhausted, b.exhausted);
    EXPECT_EQ(a.issue, b.issue);
    EXPECT_EQ(a.counters.nodesExpanded, b.counters.nodesExpanded);
    EXPECT_EQ(a.counters.prunedByBound, b.counters.prunedByBound);
    EXPECT_EQ(a.counters.prunedByDominance,
              b.counters.prunedByDominance);
    EXPECT_EQ(a.counters.incumbentUpdates,
              b.counters.incumbentUpdates);
    EXPECT_EQ(a.counters.tasksCompleted, b.counters.tasksCompleted);
    EXPECT_EQ(a.counters.tasksAborted, b.counters.tasksAborted);
    EXPECT_EQ(a.counters.rounds, b.counters.rounds);
    EXPECT_EQ(a.certificate, b.certificate);
}

void
checkAcrossThreadCounts(const BnbOptions &opts, const char *machineName)
{
    MachineModel machine = MachineModel::byName(machineName);
    for (int i = 0; i < kInstances; ++i) {
        SCOPED_TRACE("instance " + std::to_string(i));
        Rng rng = Rng::stream(kSeed, std::size_t(i));
        Superblock sb = generateSuperblock(
            rng, shapeParams(), "bnbdet.sb" + std::to_string(i));
        GraphContext ctx(sb);
        BoundsToolkit toolkit(ctx, machine);
        double staticLower = computeWctBounds(ctx, machine).tightest();

        Fingerprint serial =
            runAt(ctx, machine, toolkit, staticLower, opts, 1);
        for (int threads : {2, 4}) {
            Fingerprint parallel =
                runAt(ctx, machine, toolkit, staticLower, opts,
                      threads);
            expectIdentical(serial, parallel, threads);
        }
    }
}

TEST(BnbDeterminism, RoomyBudgetMatchesSerialBitwise)
{
    BnbOptions opts;
    opts.maxNodes = 60000;
    opts.taskChunk = 2000;
    opts.splitTarget = 32;
    checkAcrossThreadCounts(opts, "GP2");
}

TEST(BnbDeterminism, StarvedBudgetMatchesSerialBitwise)
{
    // Small chunks and a tight cap force multiple rounds, aborted
    // tasks, and chunk-doubling requeues — the paths where a racy
    // incumbent would first show up as drift.
    BnbOptions opts;
    opts.maxNodes = 4000;
    opts.taskChunk = 120;
    opts.splitTarget = 24;
    checkAcrossThreadCounts(opts, "FS6");
}

TEST(BnbDeterminism, DefaultThreadsMatchesSerialBitwise)
{
    // threads = 0 delegates to the pool's native width; the result
    // must still be byte-identical to the serial run.
    MachineModel machine = MachineModel::byName("FS4");
    Rng rng = Rng::stream(kSeed, 101);
    Superblock sb = generateSuperblock(rng, shapeParams(),
                                       "bnbdet.sb101");
    GraphContext ctx(sb);
    BoundsToolkit toolkit(ctx, machine);
    double staticLower = computeWctBounds(ctx, machine).tightest();

    BnbOptions opts;
    opts.maxNodes = 30000;
    opts.taskChunk = 1000;
    opts.splitTarget = 24;
    Fingerprint serial =
        runAt(ctx, machine, toolkit, staticLower, opts, 1);
    Fingerprint pooled =
        runAt(ctx, machine, toolkit, staticLower, opts, 0);
    expectIdentical(serial, pooled, 0);
}

} // namespace
} // namespace balance
