/**
 * @file
 * The Rim & Jain relaxation (Section 4.1): the workhorse shared by
 * every resource-aware bound in this library.
 *
 * The relaxed problem drops all dependence edges and keeps, for each
 * operation i, an issue window [early_i, late_i + (c - CP)] plus the
 * per-cycle functional-unit limits, where c is the schedule length
 * being bounded. Processing operations in increasing late order and
 * greedily placing each in the earliest feasible cycle solves the
 * relaxation exactly; the lower bound is
 *     CP + max(0, max_i (t_i - late_i)).
 *
 * The (late, early, op) processing order is a strict total order (op
 * ids are unique), so the sorted sequence is unique: any caller that
 * produces it — std::sort here, or the bucketed repair pass of the
 * pairwise sweep cache — feeds the greedy the same items in the same
 * order and gets bitwise-identical tardiness. rjMaxTardinessPresorted
 * is that shared greedy core; the sweep engine calls the permuted SoA
 * form directly on its cached member arrays, reusing one RelaxTable
 * across thousands of relaxations instead of constructing a fresh
 * table per call.
 */

#ifndef BALANCE_BOUNDS_RELAXATION_HH
#define BALANCE_BOUNDS_RELAXATION_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bounds/bound_limits.hh"
#include "bounds/counters.hh"
#include "graph/analysis.hh"
#include "graph/dag.hh"
#include "graph/superblock.hh"
#include "machine/machine_model.hh"
#include "machine/resource_state.hh"

namespace balance
{

/** One operation of a relaxation instance. */
struct RelaxItem
{
    OpId op = invalidOp;   //!< caller-meaningful identity
    OpClass cls = OpClass::IntAlu;
    int early = 0;         //!< earliest issue cycle
    int late = 0;          //!< latest issue cycle at schedule length CP
};

/**
 * Solve the Rim & Jain relaxation.
 *
 * @param machine Resource widths.
 * @param items Operations with their windows; reordered in place by
 *        increasing late time (the greedy's processing order).
 * @param counters Optional loop-trip accounting.
 * @return max over items of (t_i - late_i); negative when every
 *         operation meets its deadline. The caller's bound is
 *         CP + max(0, result). negInfBound when @p items is empty.
 */
int rjMaxTardiness(const MachineModel &machine,
                   std::vector<RelaxItem> &items,
                   BoundCounters *counters = nullptr);

/**
 * As above, but reuses @p table (cleared here) instead of
 * constructing a fresh reservation table — the allocation-free form
 * for callers holding a BoundScratch.
 */
int rjMaxTardiness(const MachineModel &machine,
                   std::vector<RelaxItem> &items, ResourceState &table,
                   BoundCounters *counters = nullptr);

/**
 * Placement structure specialized for the RJ greedy. Occupancy is
 * structure-of-arrays per pool: one packed u64 per cycle — the epoch
 * stamp in the high word, the fill count in the low word — plus a
 * next-free skip pointer. The packing turns the placement test into
 * a single load and unsigned compare: a cycle is full iff its word
 * >= (epoch << 32) + width (a stale or virgin word has a smaller
 * high half and can never reach the threshold), and occupying a
 * cycle is one store of either word+1 or (epoch << 32) + 1. A
 * placement checks the early cycle, follows one skip hop inline (a
 * one-hop walk needs no path compression), and only then falls into
 * the path-compressed skip-pointer walk, keeping worst-case
 * amortized near-constant placements even on width-1 pools; reset()
 * stays O(1) via the epoch bump. (The vectorized epoch-scan window
 * probe in the SimdKernels table was measured here and lost: with
 * ~20M placements per bound pass the indirect call outweighs the
 * 8-wide compare, and on backed-up pools the compressed walk skips
 * runs the linear probe must scan. The kernel remains a tested
 * primitive; see docs/PERFORMANCE.md.)
 *
 * Placements are identical to probing a fresh reservation table
 * cycle by cycle (earliest non-full cycle of the pool at or after
 * the early time) no matter which path found them, and the probe
 * count the naive loop would have performed is recovered exactly as
 * (placed - early), so the Table 2 trip accounting is unchanged;
 * see rjMaxTardinessPresorted.
 */
class RelaxTable
{
  public:
    /** @param machine Pool widths; must outlive the table. */
    explicit RelaxTable(const MachineModel &machine);

    /** The table keeps a pointer: temporaries are a bug. */
    explicit RelaxTable(MachineModel &&) = delete;

    /** @return the machine this table was built for. */
    const MachineModel &machine() const { return *model; }

    /** Forget all placements in O(1). */
    void
    reset()
    {
        if (++epoch == 0) {
            // u32 epoch wrapped: scrub the stamps so no stale cell
            // from four billion resets ago can alias the new epoch.
            for (Lane &lane : lanes)
                std::fill(lane.occ.begin(), lane.occ.end(),
                          std::uint64_t(0));
            epoch = 1;
        }
        ++resets;
    }

    /** @return how many times reset() ran. Telemetry only. */
    long long resetCount() const { return resets; }

    /**
     * Count @p n resets another table ran, so a fan-out's lanes
     * report through their caller's table. Telemetry only.
     */
    void addResets(long long n) { resets += n; }

    /**
     * Place one operation of class @p cls into the earliest cycle
     * >= @p early with a free unit of its pool.
     *
     * @return the chosen cycle.
     */
    int
    place(OpClass cls, int early)
    {
        Lane &lane = lanes[std::size_t(model->poolOf(cls))];
        if (std::size_t(early) >= lane.occ.size())
            grow(lane, early);
        const std::uint64_t fresh = std::uint64_t(epoch) << 32;
        const std::uint64_t full = fresh + std::uint64_t(lane.width);
        int c = early;
        if (lane.occ[std::size_t(c)] >= full) {
            // next[c] is valid: c filled during the current epoch.
            int nx = lane.next[std::size_t(c)];
            if (std::size_t(nx) >= lane.occ.size())
                grow(lane, nx);
            if (lane.occ[std::size_t(nx)] < full)
                c = nx; // one hop: compression would be a no-op
            else
                c = placeSlow(lane, early);
        }
        std::uint64_t occ = lane.occ[std::size_t(c)];
        occ = occ >= fresh ? occ + 1 : fresh + 1;
        lane.occ[std::size_t(c)] = occ;
        if (occ == full) {
            if (std::size_t(c) + 1 >= lane.occ.size())
                grow(lane, c + 1);
            lane.next[std::size_t(c)] = c + 1;
        }
        return c;
    }

  private:
    /** One pool's cycle occupancy, valid for the current epoch. */
    struct Lane
    {
        /** Per cycle: (epoch << 32) | units used this epoch. */
        std::vector<std::uint64_t> occ;
        std::vector<int> next; //!< skip pointer once a cycle is full
        int width = 0;
    };

    /** Resize the lane's arrays to cover @p cycle (amortized). */
    void grow(Lane &lane, int cycle);

    /**
     * Skip-pointer walk with path compression for placements whose
     * early cycle is already full; @p from is that (full) cycle.
     */
    int placeSlow(Lane &lane, int from);

    const MachineModel *model;
    std::vector<Lane> lanes;
    std::uint32_t epoch = 1;
    /** Epoch bumps since construction (telemetry). */
    long long resets = 0;
};

/**
 * As above over a RelaxTable — the bound engine's fast path.
 */
int rjMaxTardiness(const MachineModel &machine,
                   std::vector<RelaxItem> &items, RelaxTable &table,
                   BoundCounters *counters = nullptr);

/**
 * The greedy core: @p items MUST already be in increasing
 * (late, early, op) order. Clears and reuses @p table. Loop-trip
 * accounting is identical to the sorting overloads — the sort never
 * ticks.
 */
int rjMaxTardinessPresorted(const MachineModel &machine,
                            std::span<const RelaxItem> items,
                            ResourceState &table,
                            BoundCounters *counters = nullptr);

/**
 * The greedy core over a RelaxTable. Placements match the
 * ResourceState form bit for bit, and each item ticks
 * (placed - early + 1) trips — exactly the probe-plus-place count of
 * the naive loop — so counter totals are identical too.
 */
int rjMaxTardinessPresorted(const MachineModel &machine,
                            std::span<const RelaxItem> items,
                            RelaxTable &table,
                            BoundCounters *counters = nullptr);

/**
 * The greedy core over structure-of-arrays member data — the sweep
 * engine's form, which never materializes RelaxItems. @p perm lists
 * member indices in the canonical (late, early, op) order; member m
 * has class @p cls[m], early time @p early[m], and late time
 * @p cp + @p keys[m]. Placements and ticks are identical to building
 * the items and calling the span overload.
 */
int rjMaxTardinessPermuted(const MachineModel &machine,
                           std::span<const std::int32_t> perm,
                           const OpClass *cls, const int *early,
                           const int *keys, int cp, RelaxTable &table,
                           BoundCounters *counters = nullptr);

/** Sort @p items into the canonical (late, early, op) greedy order. */
void sortRelaxItems(std::vector<RelaxItem> &items);

} // namespace balance

#endif // BALANCE_BOUNDS_RELAXATION_HH
