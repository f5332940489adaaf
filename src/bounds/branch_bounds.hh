/**
 * @file
 * Per-branch and per-operation lower bounds from Section 4.1:
 *
 *  - cpEarly:  dependence critical path (EarlyDC at each branch);
 *  - huEarly:  Hu's deadline-counting resource bound;
 *  - rjEarly:  the Rim & Jain relaxation bound per branch;
 *  - lcEarlyRC: the Langevin & Cerny recursive bound EarlyRC for
 *    every operation, with the Theorem 1 (trivial bound recursion)
 *    shortcut that skips ~30% of the expensive recomputations;
 *  - lateRC:   resource-aware late times per branch, computed by
 *    running LC on the reversed predecessor subgraph.
 */

#ifndef BALANCE_BOUNDS_BRANCH_BOUNDS_HH
#define BALANCE_BOUNDS_BRANCH_BOUNDS_HH

#include <vector>

#include "bounds/counters.hh"
#include "bounds/relaxation.hh"
#include "graph/analysis.hh"
#include "machine/machine_model.hh"

namespace balance
{

/**
 * Dependence-only bound: earliest issue of each branch is EarlyDC.
 *
 * @return one entry per branch, in branch order.
 */
std::vector<int> cpEarly(const GraphContext &ctx);

/**
 * CP's Table 2 cost. cpEarly() reads the context's cached heights, so
 * its cost is the dependence analysis itself: one trip per
 * (op + edge, branch) pair.
 */
long long cpTrips(const Superblock &sb);

/**
 * Hu's bound per branch: EarlyDC[b] plus the largest deadline
 * violation over all Elementary Resource Constraints computed from
 * dependence late times (the static form of Section 5.1, Step 2).
 *
 * @return one entry per branch, in branch order.
 */
std::vector<int> huEarly(const GraphContext &ctx,
                         const MachineModel &machine,
                         BoundCounters *counters = nullptr);

/**
 * Rim & Jain bound per branch: solve the relaxation over the
 * subgraph rooted at the branch with EarlyDC/LateDC windows.
 *
 * @return one entry per branch, in branch order.
 */
std::vector<int> rjEarly(const GraphContext &ctx,
                         const MachineModel &machine,
                         BoundCounters *counters = nullptr);

/** Options for the Langevin & Cerny computation. */
struct LcOptions
{
    /**
     * Apply Theorem 1: when an operation has a unique direct
     * predecessor and a positive edge latency, copy the
     * predecessor's bound plus the latency instead of re-solving the
     * relaxation. Disable to reproduce the paper's "LC-original"
     * cost row in Table 2 (the bound values are identical).
     */
    bool useTheorem1 = true;
};

/**
 * Langevin & Cerny EarlyRC for every node of @p dag, in topological
 * order: each node's bound is the RJ relaxation of its predecessor
 * closure using the already-computed EarlyRC values as early times.
 *
 * @return EarlyRC per node.
 */
std::vector<int> lcEarlyRC(const Dag &dag, const MachineModel &machine,
                           const LcOptions &opts = {},
                           BoundCounters *counters = nullptr);

/**
 * Convenience wrapper: EarlyRC for every operation of a superblock.
 */
std::vector<int> lcEarlyRCForSuperblock(const GraphContext &ctx,
                                        const MachineModel &machine,
                                        const LcOptions &opts = {},
                                        BoundCounters *counters = nullptr);

/**
 * Resource-aware late times for one branch (Section 4.1, last
 * paragraph): run LC on the reversed predecessor subgraph G' of
 * branch b; then LateRC_b[v] = EarlyRC[b] - EarlyRC_G'[v].
 *
 * @param ctx Analysis context.
 * @param machine Resource widths.
 * @param branchIdx Position of b in ctx.sb().branches().
 * @param earlyRC EarlyRC for all operations (forward direction).
 * @param counters Optional cost accounting (the paper's LC-reverse).
 * @return LateRC per operation; lateUnconstrained for operations
 *         outside closure(b).
 */
std::vector<int> lateRCFor(const GraphContext &ctx,
                           const MachineModel &machine, int branchIdx,
                           const std::vector<int> &earlyRC,
                           BoundCounters *counters = nullptr);

} // namespace balance

#endif // BALANCE_BOUNDS_BRANCH_BOUNDS_HH
