/**
 * @file
 * Retained naive implementations of the resource-aware bounds: the
 * Rim & Jain relaxation, the Langevin & Cerny recursion, LateRC, and
 * the Pairwise/Triplewise sweeps exactly as they were written before
 * the scratch-arena bound engine landed (fresh std::vector per
 * relaxation, full std::sort per sweep step, nested-vector DAGs).
 *
 * The optimized engine in relaxation/pairwise/triplewise must stay
 * *bitwise identical* to this code: the golden-equivalence test
 * (tests/bounds/bound_engine_golden_test.cc) compares the two across
 * a seeded workload population. Keep this file dumb and frozen —
 * performance work belongs in the main path only.
 */

#ifndef BALANCE_BOUNDS_REFERENCE_HH
#define BALANCE_BOUNDS_REFERENCE_HH

#include <vector>

#include "bounds/superblock_bounds.hh"

namespace balance
{

namespace reference
{

/** Naive Rim & Jain: sorts @p items in place, fresh resource table. */
int rjMaxTardiness(const MachineModel &machine,
                   std::vector<RelaxItem> &items,
                   BoundCounters *counters = nullptr);

/** Naive Langevin & Cerny EarlyRC over the whole superblock. */
std::vector<int> lcEarlyRC(const GraphContext &ctx,
                           const MachineModel &machine,
                           const LcOptions &opts = {},
                           BoundCounters *counters = nullptr);

/** Naive LateRC for one branch (reversed-closure LC). */
std::vector<int> lateRCFor(const GraphContext &ctx,
                           const MachineModel &machine, int branchIdx,
                           const std::vector<int> &earlyRC,
                           BoundCounters *counters = nullptr);

/** Naive pairwise sweep for one branch pair. */
PairPoint computePairBound(const GraphContext &ctx,
                           const MachineModel &machine,
                           const std::vector<int> &earlyRC,
                           const std::vector<int> &lateRCj, int bi, int bj,
                           double wi, double wj,
                           const PairwiseOptions &opts = {},
                           BoundCounters *counters = nullptr);

/** Naive equivalent of PairwiseBounds. */
struct PairwiseResult
{
    int b = 0;
    std::vector<PairPoint> pairs; //!< row-major upper triangle
    double wct = 0.0;

    const PairPoint &
    pair(int bi, int bj) const
    {
        return pairs[std::size_t(bi) * std::size_t(b) + std::size_t(bj)];
    }
};

/** All pairwise bounds plus the Theorem 3 aggregate, naively. */
PairwiseResult pairwiseBounds(
    const GraphContext &ctx, const MachineModel &machine,
    const std::vector<int> &earlyRC,
    const std::vector<std::vector<int>> &lateRCPerBranch,
    const PairwiseOptions &opts = {}, BoundCounters *counters = nullptr);

/**
 * Naive triplewise bound. @p pairwiseWct supplies the fallback value
 * (the naive pairwise aggregate).
 */
TriplewiseResult computeTriplewise(
    const GraphContext &ctx, const MachineModel &machine,
    const std::vector<int> &earlyRC,
    const std::vector<std::vector<int>> &lateRCPerBranch,
    double pairwiseWct, const TriplewiseOptions &opts = {},
    BoundCounters *counters = nullptr);

/**
 * All six WCT bounds through the naive path only; mirrors
 * balance::computeWctBounds bit for bit.
 */
WctBounds computeWctBounds(const GraphContext &ctx,
                           const MachineModel &machine,
                           const BoundConfig &config = {},
                           BoundCounterSet *counters = nullptr);

} // namespace reference

} // namespace balance

#endif // BALANCE_BOUNDS_REFERENCE_HH
