/**
 * @file
 * Whole-superblock weighted-completion-time lower bounds: the naive
 * per-branch aggregation sum_i w_i (early_i + l_br) for each of the
 * CP / Hu / RJ / LC bounds, plus the Pairwise (Theorem 3) and
 * Triplewise aggregates, and the "tightest bound" used throughout
 * the paper's evaluation.
 *
 * BoundsToolkit bundles the artifacts the Balance heuristic consumes
 * (EarlyRC, per-branch LateRC, pairwise tradeoff points) so they are
 * computed once per (superblock, machine) pair. The ladder itself is
 * assembled in one place, eval/pipeline.hh (computeWctBounds).
 */

#ifndef BALANCE_BOUNDS_SUPERBLOCK_BOUNDS_HH
#define BALANCE_BOUNDS_SUPERBLOCK_BOUNDS_HH

#include <memory>
#include <vector>

#include "bounds/branch_bounds.hh"
#include "bounds/pairwise.hh"
#include "bounds/triplewise.hh"
#include "graph/analysis.hh"
#include "machine/machine_model.hh"

namespace balance
{

/**
 * Weighted completion time from per-branch issue-cycle bounds:
 * sum over branches of exitProb * (early + branch latency).
 */
double wctFromBranchEarly(const Superblock &sb,
                          const std::vector<int> &earlyPerBranch);

/** The six WCT lower bounds of Table 1, for one superblock. */
struct WctBounds
{
    double cp = 0.0; //!< critical path (dependence only)
    double hu = 0.0; //!< Hu deadline counting
    double rj = 0.0; //!< Rim & Jain relaxation
    double lc = 0.0; //!< Langevin & Cerny recursive bound
    double pw = 0.0; //!< Pairwise superblock bound (Theorem 3)
    double tw = 0.0; //!< Triplewise superblock bound

    /** @return the maximum (tightest) of the six bounds. */
    double tightest() const;
};

/** Configuration for the bound ladder and BoundsToolkit. */
struct BoundConfig
{
    LcOptions lc;
    PairwiseOptions pairwise;
    TriplewiseOptions triplewise;
    bool computePairwise = true;
    bool computeTriplewise = true;
};

/** Optional per-algorithm cost accounting (Table 2). */
struct BoundCounterSet
{
    BoundCounters cp;
    BoundCounters hu;
    BoundCounters rj;
    BoundCounters lc;
    BoundCounters lcReverse;
    BoundCounters pw;
    BoundCounters tw;
};

/**
 * Everything the Balance scheduler needs from Section 4, computed
 * once per (superblock, machine): EarlyRC per operation, LateRC per
 * branch, and the pairwise tradeoff points.
 */
class BoundsToolkit
{
  public:
    /**
     * @param ctx Analysis context (must outlive the toolkit).
     * @param machine Resource widths (must outlive the toolkit).
     * @param config Algorithm options.
     * @param counters Optional per-algorithm cost accounting.
     * @param scratch Optional worker-private working storage reused
     *        across calls; a private one is created when needed.
     */
    BoundsToolkit(const GraphContext &ctx, const MachineModel &machine,
                  const BoundConfig &config = {},
                  BoundCounterSet *counters = nullptr,
                  BoundScratch *scratch = nullptr);

    /** @return the analysis context. */
    const GraphContext &ctx() const { return *context; }

    /** @return EarlyRC for every operation. */
    const std::vector<int> &earlyRC() const { return earlyRCPerOp; }

    /** @return LateRC for branch index @p branchIdx. */
    const std::vector<int> &lateRC(int branchIdx) const;

    /** @return all per-branch LateRC vectors, in branch order. */
    const std::vector<std::vector<int>> &
    lateRCAll() const
    {
        return lateRCPerBranch;
    }

    /** @return pairwise bounds (null when disabled in config). */
    const PairwiseBounds *pairwise() const { return pw.get(); }

  private:
    const GraphContext *context;
    std::vector<int> earlyRCPerOp;
    std::vector<std::vector<int>> lateRCPerBranch;
    std::unique_ptr<PairwiseBounds> pw;
};

} // namespace balance

#endif // BALANCE_BOUNDS_SUPERBLOCK_BOUNDS_HH
