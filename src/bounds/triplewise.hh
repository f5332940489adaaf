/**
 * @file
 * The Triplewise bound (Section 4.4). The paper defers the details
 * to a technical report; this is the natural extension of Theorem 2
 * to branch triples, with the derivation recorded in DESIGN.md.
 *
 * For each ordered branch triple (i, j, k) we sweep a pair of forced
 * separation latencies: an added edge i -> j with latency a and an
 * added edge j -> k with latency b. Solving the Rim & Jain
 * relaxation of the subgraph rooted at k per grid point yields a
 * candidate triple (x, y, z) of issue-cycle lower bounds valid for
 * every schedule with those exact separations; boundary candidates
 * with coordinates relaxed to the individual EarlyRC values cover
 * separations beyond the sweep range. The minimum of
 * w_i x + w_j y + w_k z over all candidates lower-bounds the
 * weighted completion of the three branches in any schedule.
 *
 * Aggregation generalizes Theorem 3 and supports *partial* triple
 * enumeration under a work budget: with count_m triples containing
 * branch m and cmax the maximum count, padding each deficit with the
 * singleton inequality t_m >= EarlyRC[m] keeps the averaged bound
 * valid (see DESIGN.md).
 */

#ifndef BALANCE_BOUNDS_TRIPLEWISE_HH
#define BALANCE_BOUNDS_TRIPLEWISE_HH

#include <vector>

#include "bounds/counters.hh"
#include "bounds/pairwise.hh"
#include "graph/analysis.hh"
#include "machine/machine_model.hh"

namespace balance
{

/** Tuning knobs for the triplewise computation. */
struct TriplewiseOptions
{
    /**
     * Superblocks with more branches than this skip the triplewise
     * computation entirely (the result falls back to the pairwise
     * bound). Keeps the O(B^3) enumeration affordable.
     */
    int maxBranches = 12;

    /** Sweep range cap per latency dimension. */
    int maxLatRange = 24;

    /**
     * Total relaxation evaluations allowed per superblock; once
     * exhausted, the triple it cut mid-sweep and all later ones are
     * skipped (the partial aggregation over fully swept triples stays
     * valid). When C(B, 3) * (maxLatRange + 1)^2 fits in it, as at
     * the defaults (137,500 at B = 12), the budget cannot bind: the
     * sweep skips every grid point that can neither beat its
     * triple's best (priced by a closed-form floor per point) nor
     * decide where its column or the sweep ends, and the triples run
     * in parallel on the process pool, folded in enumeration order:
     * about 3% of the unpruned sweep's trips on the full suite, the
     * same bound on any number of lanes. Otherwise one serial sweep
     * evaluates every point, so the budget cuts exactly where the
     * unpruned sweep does.
     */
    long long maxEvals = 200000;
};

/** Result of the triplewise superblock bound. */
struct TriplewiseResult
{
    /** Weighted-completion-time lower bound. */
    double wct = 0.0;
    /** True when no triple was evaluated (bound equals fallback). */
    bool fellBack = false;
    /** Number of triples fully evaluated. */
    long long triplesEvaluated = 0;
};

/**
 * Compute the triplewise superblock bound.
 *
 * @param ctx Analysis context.
 * @param machine Resource widths.
 * @param earlyRC EarlyRC per operation.
 * @param lateRCPerBranch LateRC per branch (branch order).
 * @param pw Pairwise bounds for the same superblock (fallback and
 *        floor).
 * @param opts Budgets.
 * @param counters Optional cost accounting.
 * @param scratch Optional worker-private working storage reused
 *        across calls; a private one is created when null. The
 *        parallel sweep lends it to one lane and folds the other
 *        lanes' telemetry into it.
 */
TriplewiseResult computeTriplewise(
    const GraphContext &ctx, const MachineModel &machine,
    const std::vector<int> &earlyRC,
    const std::vector<std::vector<int>> &lateRCPerBranch,
    const PairwiseBounds &pw, const TriplewiseOptions &opts = {},
    BoundCounters *counters = nullptr, BoundScratch *scratch = nullptr);

} // namespace balance

#endif // BALANCE_BOUNDS_TRIPLEWISE_HH
