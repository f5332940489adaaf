#include "bounds/pair_sweep.hh"

#include <algorithm>
#include <limits>

#include "support/diagnostics.hh"
#include "support/simd_kernels.hh"

namespace balance
{

namespace detail
{

void
SinkSkeleton::build(const GraphContext &ctx,
                    const std::vector<int> &earlyRC,
                    const std::vector<int> &lateRC, int branchIdx)
{
    const Superblock &sb = ctx.sb();
    const std::vector<OpId> &members = ctx.closureOps(branchIdx);
    const std::vector<int> &height = ctx.heightToBranch(branchIdx);

    branch = branchIdx;
    sink = sb.branches()[std::size_t(branchIdx)];
    sinkEarly = earlyRC[std::size_t(sink)];
    n = int(members.size());
    ops = members.data();

    cls.resize(std::size_t(n));
    early.resize(std::size_t(n));
    hSink.resize(std::size_t(n));
    relLate.resize(std::size_t(n));
    cpSink = sinkEarly;
    for (int m = 0; m < n; ++m) {
        OpId x = members[std::size_t(m)];
        cls[std::size_t(m)] = sb.op(x).cls;
        early[std::size_t(m)] = earlyRC[std::size_t(x)];
        hSink[std::size_t(m)] = height[std::size_t(x)];
        cpSink = std::max(cpSink, early[std::size_t(m)] +
                                      hSink[std::size_t(m)]);
        int lrc = lateRC[std::size_t(x)];
        relLate[std::size_t(m)] =
            lrc == lateUnconstrained ? lateUnconstrained : lrc - sinkEarly;
    }

    // Members are in ascending op order, so a stable sort by EarlyRC
    // leaves ties in op order: the permutation realizes the
    // (early, op) tail of the canonical (late, early, op) key.
    orderByEarly.resize(std::size_t(n));
    for (int m = 0; m < n; ++m)
        orderByEarly[std::size_t(m)] = m;
    std::stable_sort(orderByEarly.begin(), orderByEarly.end(),
                     [this](int a, int b) {
                         return early[std::size_t(a)] <
                                early[std::size_t(b)];
                     });
}

int
SinkSkeleton::relax(const MachineModel &machine, BoundScratch &scratch,
                    int cp, int minKey, int maxKey,
                    BoundCounters *counters) const
{
    const std::vector<int> &keys = scratch.keys;
    std::vector<std::int32_t> &perm = scratch.perm;
    perm.resize(std::size_t(n));

    long long range = (long long)(maxKey) - minKey;
    if (range <= 4LL * n + 64) {
        // Stable bucket pass: counts by late key, then scatter in
        // the precomputed (early, op) order. Stability makes this a
        // counting sort by (late, early, op) — the unique greedy
        // order, identical to what std::sort would produce. Only the
        // 4-byte member indices move; the greedy reads the member
        // data straight from the skeleton's SoA arrays.
        std::vector<int> &start = scratch.counts;
        start.assign(std::size_t(range) + 1, 0);
        for (int m = 0; m < n; ++m)
            ++start[std::size_t(keys[std::size_t(m)] - minKey)];
        int run = 0;
        for (int &s : start) {
            int c = s;
            s = run;
            run += c;
        }
        for (int m : orderByEarly) {
            int key = keys[std::size_t(m)] - minKey;
            perm[std::size_t(start[std::size_t(key)]++)] =
                std::int32_t(m);
        }
    } else {
        // Degenerate late spread: fall back to a comparison sort
        // (same unique order, just not worth the bucket memory).
        // Members are in ascending op order, so the index tail m
        // realizes the op tie-break.
        for (int m = 0; m < n; ++m)
            perm[std::size_t(m)] = std::int32_t(m);
        std::sort(perm.begin(), perm.end(),
                  [&](std::int32_t a, std::int32_t b) {
                      if (keys[std::size_t(a)] != keys[std::size_t(b)])
                          return keys[std::size_t(a)] <
                                 keys[std::size_t(b)];
                      if (early[std::size_t(a)] !=
                          early[std::size_t(b)])
                          return early[std::size_t(a)] <
                                 early[std::size_t(b)];
                      return a < b;
                  });
    }

    return rjMaxTardinessPermuted(machine, perm, cls.data(),
                                  early.data(), keys.data(), cp,
                                  scratch.table, counters);
}

SkeletonTable::SkeletonTable(
    const GraphContext &ctx, const std::vector<int> &earlyRC,
    const std::vector<std::vector<int>> &lateRCPerBranch)
    : ctx(ctx), earlyRC(earlyRC), lateRCPerBranch(lateRCPerBranch),
      perBranch(std::size_t(ctx.sb().numBranches()))
{
    bsAssert(int(lateRCPerBranch.size()) == ctx.sb().numBranches(),
             "need one LateRC vector per branch");
}

const SinkSkeleton &
SkeletonTable::get(int branchIdx, long long &hits, long long &misses)
{
    bsAssert(branchIdx >= 0 && branchIdx < ctx.sb().numBranches(),
             "bad sink branch ", branchIdx);
    std::unique_ptr<SinkSkeleton> &slot =
        perBranch[std::size_t(branchIdx)];
    if (!slot) {
        ++misses;
        slot = std::make_unique<SinkSkeleton>();
        slot->build(ctx, earlyRC,
                    lateRCPerBranch[std::size_t(branchIdx)], branchIdx);
    } else {
        ++hits;
    }
    return *slot;
}

} // namespace detail

PairSweepCache::PairSweepCache(
    const GraphContext &ctx, const MachineModel &machine,
    const std::vector<int> &earlyRC,
    const std::vector<std::vector<int>> &lateRCPerBranch,
    BoundScratch &scratch)
    : ctx(ctx), machine(machine), earlyRC(earlyRC), scratch(scratch),
      skeletons(ctx, earlyRC, lateRCPerBranch)
{
}

void
PairSweepCache::bindSink(int bj)
{
    sk = &skeletons.get(bj, scratch.stats.pairSkeletonHits,
                        scratch.stats.pairSkeletonMisses);
    ejVal = sk->sinkEarly;
    lMaxVal = ejVal + 1;
    scratch.arena.reset();
    hiBuf = scratch.arena.alloc<int>(std::size_t(sk->n));
}

void
PairSweepCache::bindPair(int bi)
{
    bsAssert(sk, "bindSink first");
    const Superblock &sb = ctx.sb();
    OpId i = sb.branches()[std::size_t(bi)];
    eiVal = earlyRC[std::size_t(i)];
    lMinVal = sb.op(i).latency;
    const std::vector<int> &heightI = ctx.heightToBranch(bi);
    for (int m = 0; m < sk->n; ++m)
        hiBuf[std::size_t(m)] = heightI[std::size_t(sk->ops[m])];
}

PairPoint
PairSweepCache::eval(int latency, BoundCounters *counters)
{
    std::vector<int> &keys = scratch.keys;
    keys.resize(std::size_t(sk->n));

    // Composed critical path: any path through the new i -> j edge
    // reaches i first, so H[x] = max(height_j[x], height_i[x] + l).
    // The kernel runs the composition over the skeleton's SoA arrays
    // eight members per vector step; the min/max/cp reductions are
    // associative, so results match the scalar pass exactly. One tick
    // per member as before — the trip count is the member count, so
    // one bulk tick reconstructs it. The relative late key
    // min(-H, relLate) is cp-independent, so the same pass computes
    // the bucket range (0 included, matching the naive init of
    // min/max late to cp).
    ComposeResult r = simdKernels().pairCompose(
        sk->hSink.data(), hiBuf.data(), sk->early.data(),
        sk->relLate.data(), keys.data(), sk->n, latency, ejVal);
    tick(counters, sk->n);

    int tard = sk->relax(machine, scratch, r.cp, r.minKey, r.maxKey,
                         counters);
    int cp = r.cp;

    PairPoint pt;
    pt.y = composeBound(cp, tard);
    // Clamping x up to EarlyRC[i] is required for the sweep's
    // early-termination coverage argument (see DESIGN.md).
    pt.x = std::max(pt.y - latency, eiVal);
    return pt;
}

PairPoint
computePairBound(PairSweepCache &cache, int bi, double wi, double wj,
                 const PairwiseOptions &opts, BoundCounters *counters)
{
    cache.bindPair(bi);
    int ei = cache.ei();
    int ej = cache.ej();
    int lMin = cache.lMin();
    int lMax = cache.lMax();

    std::vector<PairPoint> &recorded = cache.recorded;
    recorded.clear();
    auto eval = [&](int l) {
        PairPoint pt = cache.eval(l, counters);
        recorded.push_back(pt);
        return pt;
    };

    int l0 = std::clamp(ej - ei, lMin, lMax);
    PairPoint first = eval(l0);

    if (first.x == ei && first.y == ej) {
        // Both branches achieve their individual bounds at once:
        // there is no tradeoff and no better pair exists.
        return first;
    }

    // Walk down until j reaches its individual bound.
    if (first.y != ej) {
        int steps = 0;
        bool reached = false;
        for (int l = l0 - 1; l >= lMin; --l) {
            if (++steps > opts.maxSweepSteps)
                break;
            PairPoint pt = eval(l);
            if (pt.y == ej) {
                reached = true;
                break;
            }
        }
        if (!reached && l0 - 1 >= lMin && steps > opts.maxSweepSteps) {
            // Truncated sweep: separations below the last evaluated
            // point are no longer covered by the termination
            // argument; fall back to the always-valid naive point.
            recorded.push_back({ei, ej});
        }
    }

    // Walk up until i reaches its individual bound.
    {
        int steps = 0;
        bool reached = first.x == ei;
        if (!reached) {
            for (int l = l0 + 1; l <= lMax; ++l) {
                if (++steps > opts.maxSweepSteps)
                    break;
                PairPoint pt = eval(l);
                if (pt.x == ei) {
                    reached = true;
                    break;
                }
            }
        }
        if (!reached) {
            // Separations above the last evaluated point: any such
            // schedule has x' >= EarlyRC[i] and y' >= x' + l >
            // EarlyRC[i] + lMax, so this safety pair is dominated.
            recorded.push_back({ei, std::max(ej, ei + lMax)});
        }
    }

    PairPoint best = recorded.front();
    double bestCost = wi * best.x + wj * best.y;
    for (const PairPoint &pt : recorded) {
        double cost = wi * pt.x + wj * pt.y;
        if (cost < bestCost) {
            bestCost = cost;
            best = pt;
        }
    }
    return best;
}

TripleSweepCache::TripleSweepCache(const GraphContext &ctx,
                                   const MachineModel &machine,
                                   const std::vector<int> &earlyRC,
                                   BoundScratch &scratch)
    : ctx(ctx), machine(machine), earlyRC(earlyRC), scratch(scratch)
{
}

void
TripleSweepCache::bindSink(const detail::SinkSkeleton &sink)
{
    sk = &sink;
    ekVal = sk->sinkEarly;
    scratch.arena.reset();
    hiBuf = scratch.arena.alloc<int>(std::size_t(sk->n));
    hjBuf = scratch.arena.alloc<int>(std::size_t(sk->n));
}

void
TripleSweepCache::bindTriple(int bi, int bj)
{
    bsAssert(sk, "bindSink first");
    const Superblock &sb = ctx.sb();
    OpId i = sb.branches()[std::size_t(bi)];
    OpId j = sb.branches()[std::size_t(bj)];
    eiVal = earlyRC[std::size_t(i)];
    ejVal = earlyRC[std::size_t(j)];

    // The gather also takes the critical-path terms of i and j: the
    // members with a path to a branch (height >= 0) are exactly the
    // ones the composition routes through it.
    const std::vector<int> &heightI = ctx.heightToBranch(bi);
    const std::vector<int> &heightJ = ctx.heightToBranch(bj);
    const long long noPath = std::numeric_limits<long long>::min() / 2;
    cI = cJ = noPath;
    for (int m = 0; m < sk->n; ++m) {
        OpId x = sk->ops[m];
        int hi = heightI[std::size_t(x)];
        int hj = heightJ[std::size_t(x)];
        hiBuf[std::size_t(m)] = hi;
        hjBuf[std::size_t(m)] = hj;
        long long e = sk->early[std::size_t(m)];
        if (hi >= 0)
            cI = std::max(cI, e + hi);
        if (hj >= 0)
            cJ = std::max(cJ, e + hj);
    }

    // Height of j within the sink's subgraph, for the funnel term.
    hKj = ctx.heightToBranch(sk->branch)[std::size_t(j)];
}

long long
TripleSweepCache::criticalPath(int a, int b) const
{
    // A member reaching i reaches k through the new edges with height
    // hi + a + t; one reaching only j, hj + t; every member keeps its
    // own height to k. The maxima separate by term.
    long long t = std::max(b, hKj);
    return std::max({(long long)sk->cpSink, cJ + t, cI + a + t});
}

TriplePoint
TripleSweepCache::eval(int a, int b, BoundCounters *counters)
{
    std::vector<int> &keys = scratch.keys;
    keys.resize(std::size_t(sk->n));

    // Heights compose through the funnel at j: any path using the
    // new edges reaches j before k, so
    //   HjNew[x] = max(height_j[x], height_i[x] + a)
    //   H[x]     = max(height_k[x], HjNew[x] + max(b, height_k[j])).
    // Vectorized like the pair composition; one (bulk) tick per
    // member as before.
    int jToK = std::max(b, hKj);
    ComposeResult r = simdKernels().tripleCompose(
        sk->hSink.data(), hiBuf.data(), hjBuf.data(),
        sk->early.data(), sk->relLate.data(), keys.data(), sk->n, a,
        jToK, ekVal);
    tick(counters, sk->n);

    int tard = sk->relax(machine, scratch, r.cp, r.minKey, r.maxKey,
                         counters);
    lastCp = r.cp;

    TriplePoint pt;
    pt.z = composeBound(r.cp, tard);
    pt.y = std::max(pt.z - b, ejVal);
    pt.x = std::max(pt.y - a, eiVal);
    return pt;
}

} // namespace balance
