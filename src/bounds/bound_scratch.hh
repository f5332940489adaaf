/**
 * @file
 * Reusable working storage for the bound engine.
 *
 * Every resource-aware bound bottoms out in the Rim & Jain greedy
 * relaxation, and the Pairwise/Triplewise sweeps run it thousands of
 * times per superblock. A BoundScratch bundles the buffers those
 * inner loops need — the RelaxTable placement structure, the
 * relaxation item array, the late-bucket histogram, the composed
 * late-key buffer, and a bump arena for sweep skeletons — so the
 * steady state performs no heap allocations at all.
 *
 * Ownership rule: one BoundScratch per worker, created next to the
 * GraphContext for the superblock being evaluated and never shared
 * across threads. Reuse across superblocks on the same machine model
 * is fine (buffers only ever grow to the high-water mark). The
 * Triplewise fan-out lends the caller's scratch to its lane 0 and
 * gives every other lane a scratch of its own, folded back with
 * absorbLane.
 *
 * Reusing the scratch changes no observable result: the (late,
 * early, op) relaxation order is a strict total order, so bound
 * values are bitwise identical to the naive engine
 * (bounds/reference.hh), and loop-trip accounting is untouched
 * because buffer management never ticks. The golden-equivalence test
 * in tests/bounds/ pins both properties.
 */

#ifndef BALANCE_BOUNDS_BOUND_SCRATCH_HH
#define BALANCE_BOUNDS_BOUND_SCRATCH_HH

#include <cstdint>
#include <vector>

#include "bounds/relaxation.hh"
#include "machine/machine_model.hh"
#include "support/arena.hh"

namespace balance
{

/**
 * Plain counters the sweep caches tick while a BoundScratch is in
 * use. Observational only: nothing in the engine reads them back, so
 * results are identical whether anyone harvests them or not. Owned by
 * the scratch (one worker), hence non-atomic; callers fold them into
 * the global MetricRegistry during serial reduction.
 */
struct BoundEngineStats
{
    long long pairSkeletonHits = 0;   //!< pair skeleton cache reuses
    long long pairSkeletonMisses = 0; //!< pair skeleton lazy builds
    long long tripleSkeletonHits = 0;   //!< triple skeleton reuses
    long long tripleSkeletonMisses = 0; //!< triple skeleton builds
};

/** Per-worker scratch for the bound engine (see file comment). */
struct BoundScratch
{
    /** @param machine The model all relaxations will run against. */
    explicit BoundScratch(const MachineModel &machine) : table(machine) {}

    /** The scratch keeps a pointer: temporaries are a bug. */
    explicit BoundScratch(MachineModel &&) = delete;

    /** Placement table reused by every relaxation. */
    RelaxTable table;
    /** Bind-scoped skeleton storage for the sweep caches. */
    ScratchArena arena;
    /** Relaxation items in greedy order. */
    std::vector<RelaxItem> items;
    /**
     * Member-index permutation in greedy order — the SoA form the
     * sweep caches feed rjMaxTardinessPermuted, scattering 4-byte
     * indices instead of 16-byte RelaxItems.
     */
    std::vector<std::int32_t> perm;
    /** Late-bucket histogram / start offsets for the stable repair. */
    std::vector<int> counts;
    /**
     * Relative late keys per skeleton member, min(-H[x], relLate[x]);
     * the member's late time is cp + key. Filled by the sweep caches'
     * composition pass, consumed by SinkSkeleton::relax.
     */
    std::vector<int> keys;
    /** Cache hit/miss tallies for the sweep skeletons. */
    BoundEngineStats stats;

    /**
     * Fold the telemetry of a fan-out lane's scratch into this one:
     * relaxation resets add up and the arena keeps the larger
     * high-water mark, so neither depends on which lane ran what.
     * Lanes read prebuilt skeletons and tally no hits of their own.
     */
    void
    absorbLane(const BoundScratch &lane)
    {
        table.addResets(lane.table.resetCount());
        arena.raiseHighWater(lane.arena.highWaterBytes());
    }
};

} // namespace balance

#endif // BALANCE_BOUNDS_BOUND_SCRATCH_HH
