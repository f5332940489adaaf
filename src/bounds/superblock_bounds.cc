#include "bounds/superblock_bounds.hh"

#include <algorithm>

#include "support/diagnostics.hh"

namespace balance
{

double
wctFromBranchEarly(const Superblock &sb,
                   const std::vector<int> &earlyPerBranch)
{
    bsAssert(int(earlyPerBranch.size()) == sb.numBranches(),
             "per-branch bound size mismatch");
    double wct = 0.0;
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        OpId b = sb.branches()[std::size_t(bi)];
        wct += sb.exitProb(b) *
               (earlyPerBranch[std::size_t(bi)] + sb.op(b).latency);
    }
    return wct;
}

double
WctBounds::tightest() const
{
    return std::max({cp, hu, rj, lc, pw, tw});
}

BoundsToolkit::BoundsToolkit(const GraphContext &ctx,
                             const MachineModel &machine,
                             const BoundConfig &config,
                             BoundCounterSet *counters,
                             BoundScratch *scratch)
    : context(&ctx)
{
    earlyRCPerOp = lcEarlyRCForSuperblock(
        ctx, machine, config.lc, counters ? &counters->lc : nullptr);

    const Superblock &sb = ctx.sb();
    lateRCPerBranch.reserve(std::size_t(sb.numBranches()));
    for (int bi = 0; bi < sb.numBranches(); ++bi) {
        lateRCPerBranch.push_back(
            lateRCFor(ctx, machine, bi, earlyRCPerOp,
                      counters ? &counters->lcReverse : nullptr));
    }

    if (config.computePairwise) {
        pw = std::make_unique<PairwiseBounds>(
            ctx, machine, earlyRCPerOp, lateRCPerBranch, config.pairwise,
            counters ? &counters->pw : nullptr, scratch);
    }
}

const std::vector<int> &
BoundsToolkit::lateRC(int branchIdx) const
{
    bsAssert(branchIdx >= 0 &&
                 branchIdx < int(lateRCPerBranch.size()),
             "branch index out of range: ", branchIdx);
    return lateRCPerBranch[std::size_t(branchIdx)];
}

} // namespace balance
