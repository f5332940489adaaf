#include "sched/list_scheduler.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "sched/sched_scratch.hh"
#include "support/diagnostics.hh"
#include "support/perf_counters.hh"
#include "support/simd_kernels.hh"

namespace balance
{

namespace
{

/**
 * The allocation-free greedy core. Equivalent to the pre-overhaul
 * scheduler (frozen in sched/reference) but driven by the rank
 * permutation: the ready set is a bitset indexed by rank, so
 * iterating its set bits ascending *is* the per-cycle
 * (priority desc, id asc) order the old code re-sorted for, and the
 * whole working set comes from the scratch arena. Resources reduce
 * to per-pool free counters for the current cycle because forward
 * list scheduling never reserves in any other cycle.
 *
 * The pending set (dependence-complete, latency unmet) is
 * structure-of-arrays — rank and ready-at cycle in separate spans —
 * so each cycle's promotion check is one vectorized compare
 * producing a promotion bitmask. The ready-at value is final when an
 * operation is pushed (its last predecessor just issued), so the
 * compare sees exactly what the old per-entry walk saw, and bits are
 * ORed into the ready set in a different order only — set-bit order
 * is invisible.
 *
 * Stats accounting is kept cycle-for-cycle identical: ++cycles and
 * readySum per while-iteration, ++loopTrips per ready operation
 * examined, ++decisions per placement. Promotion never ticked and
 * still doesn't.
 *
 * @p opOfRank holds exactly the scheduled population, sorted;
 * @p inSubset filters dependence edges, as before.
 */
template <typename Filter>
std::span<int>
rankedCore(const Superblock &sb, const MachineModel &machine,
           std::span<const std::int32_t> opOfRank, Filter inSubset,
           SchedulerStats *stats, SchedScratch &scratch)
{
    PerfRegion perf(PerfPhase::ListSched);
    const int v = sb.numOps();
    const int total = int(opOfRank.size());
    const int numPools = machine.numResources();
    ScratchArena &arena = scratch.runArena();
    const SimdKernels &kern = simdKernels();

    std::span<int> issue = arena.alloc<int>(std::size_t(v));
    std::span<int> predsLeft = arena.alloc<int>(std::size_t(v));
    std::span<int> readyAt = arena.alloc<int>(std::size_t(v));
    std::span<std::int32_t> rankOf =
        arena.alloc<std::int32_t>(std::size_t(v));
    const std::size_t words = (std::size_t(total) + 63) / 64;
    std::span<std::uint64_t> ready = arena.alloc<std::uint64_t>(words);
    std::span<std::int32_t> pendingRank =
        arena.alloc<std::int32_t>(std::size_t(total));
    std::span<int> pendingReadyAt =
        arena.alloc<int>(std::size_t(total));
    std::span<std::uint64_t> promoted =
        arena.alloc<std::uint64_t>(words + 1);
    std::span<int> freeNow = arena.alloc<int>(std::size_t(numPools));

    std::fill(issue.begin(), issue.end(), -1);
    std::fill(ready.begin(), ready.end(), 0);
    for (int r = 0; r < total; ++r) {
        OpId id = opOfRank[std::size_t(r)];
        rankOf[std::size_t(id)] = std::int32_t(r);
        readyAt[std::size_t(id)] = 0;
        int preds = 0;
        for (const Adjacent &e : sb.preds(id)) {
            if (inSubset(e.op))
                ++preds;
        }
        predsLeft[std::size_t(id)] = preds;
        if (preds == 0)
            ready[std::size_t(r) >> 6] |= std::uint64_t(1) << (r & 63);
    }

    int scheduled = 0;
    int cycle = 0;
    std::size_t pendingCount = 0; // dependence-complete, latency unmet

    while (scheduled < total) {
        // Promote pending ops whose latency has elapsed. The SoA
        // ready-at lane scans sequentially — no gather through op
        // ids — and pending sets on paper-sized blocks are a handful
        // of entries, so the direct scan-and-compact wins there. The
        // vectorized compare kernel takes over past one mask word,
        // where its 8-wide compares amortize the indirect call.
        if (pendingCount > 64) {
            kern.maskLE(pendingReadyAt.data(), cycle, promoted.data(),
                        int(pendingCount));
            std::size_t keep = 0;
            const std::size_t mWords = (pendingCount + 63) / 64;
            for (std::size_t w = 0; w < mWords; ++w) {
                std::uint64_t hit = promoted[w];
                std::uint64_t bits = hit;
                while (bits) {
                    int b = std::countr_zero(bits);
                    bits &= bits - 1;
                    std::int32_t r = pendingRank[w * 64 +
                                                 std::size_t(b)];
                    ready[std::size_t(r) >> 6] |= std::uint64_t(1)
                                                  << (r & 63);
                }
                std::uint64_t kept = ~hit;
                if (w == mWords - 1 && (pendingCount & 63))
                    kept &= (std::uint64_t(1) << (pendingCount & 63)) -
                            1;
                while (kept) {
                    int b = std::countr_zero(kept);
                    kept &= kept - 1;
                    std::size_t from = w * 64 + std::size_t(b);
                    pendingRank[keep] = pendingRank[from];
                    pendingReadyAt[keep] = pendingReadyAt[from];
                    ++keep;
                }
            }
            pendingCount = keep;
        } else if (pendingCount > 0) {
            std::size_t keep = 0;
            for (std::size_t i = 0; i < pendingCount; ++i) {
                if (pendingReadyAt[i] <= cycle) {
                    std::int32_t r = pendingRank[i];
                    ready[std::size_t(r) >> 6] |= std::uint64_t(1)
                                                  << (r & 63);
                } else {
                    pendingRank[keep] = pendingRank[i];
                    pendingReadyAt[keep] = pendingReadyAt[i];
                    ++keep;
                }
            }
            pendingCount = keep;
        }

        if (stats) {
            ++stats->cycles;
            long long count = 0;
            for (std::size_t w = 0; w < words; ++w)
                count += std::popcount(ready[w]);
            stats->readySum += count;
        }

        for (int r = 0; r < numPools; ++r)
            freeNow[std::size_t(r)] = machine.width(r);

        // One pass over the ready set in rank (= priority) order:
        // place what fits this cycle, leave the rest set.
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits = ready[w];
            while (bits) {
                int bit = std::countr_zero(bits);
                bits &= bits - 1;
                std::int32_t r = std::int32_t(w * 64) + bit;
                OpId id = opOfRank[std::size_t(r)];
                if (stats)
                    ++stats->loopTrips;
                ResourceId pool = machine.poolOf(sb.op(id).cls);
                if (freeNow[std::size_t(pool)] <= 0)
                    continue;
                --freeNow[std::size_t(pool)];
                ready[w] &= ~(std::uint64_t(1) << bit);
                issue[std::size_t(id)] = cycle;
                ++scheduled;
                if (stats)
                    ++stats->decisions;
                for (const Adjacent &e : sb.succs(id)) {
                    if (!inSubset(e.op))
                        continue;
                    readyAt[std::size_t(e.op)] =
                        std::max(readyAt[std::size_t(e.op)],
                                 cycle + e.latency);
                    if (--predsLeft[std::size_t(e.op)] == 0) {
                        // Last predecessor placed: the ready-at value
                        // is final, snapshot it into the SoA lanes.
                        pendingRank[pendingCount] =
                            rankOf[std::size_t(e.op)];
                        pendingReadyAt[pendingCount] =
                            readyAt[std::size_t(e.op)];
                        ++pendingCount;
                    }
                }
            }
        }
        ++cycle;
    }
    return issue;
}

/** One rank with its sort key; moved whole so the sort never gathers. */
struct PackedRank
{
    std::uint64_t key; //!< descending-order priority key
    std::int32_t id;   //!< operation id
};

/** Below this size a comparison sort beats the radix passes. */
constexpr std::size_t radixMinSize = 128;

/**
 * Sort @p ranks by (keyOf[id] asc, id asc) == (priority desc, id
 * asc). Below radixMinSize the ids are sorted in place with a
 * key-gather comparator — the keys fit one or two cache lines, so
 * packing them next to the ids would cost more in setup than the
 * gathers do. At radixMinSize and above, keys are packed next to
 * their ids once and a stable LSD radix takes over (8-bit digits,
 * one histogram pass for all eight, uniform digits skipped); ties
 * preserve the input order, which both callers provide id-ascending,
 * so both paths produce the same unique total order the old gather
 * comparator produced — bit for bit.
 */
void
sortRanks(std::span<std::int32_t> ranks, const std::uint64_t *keyOf,
          ScratchArena &arena)
{
    const std::size_t n = ranks.size();
    if (n < radixMinSize) {
        std::sort(ranks.begin(), ranks.end(),
                  [keyOf](std::int32_t a, std::int32_t b) {
                      if (keyOf[a] != keyOf[b])
                          return keyOf[a] < keyOf[b];
                      return a < b;
                  });
        return;
    }

    std::span<PackedRank> packed = arena.alloc<PackedRank>(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::int32_t id = ranks[i];
        packed[i] = {keyOf[id], id};
    }

    const PackedRank *sorted = packed.data();
    {
        std::span<PackedRank> tmp = arena.alloc<PackedRank>(n);
        std::uint32_t hist[8][256] = {};
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t k = packed[i].key;
            for (int d = 0; d < 8; ++d)
                ++hist[d][(k >> (8 * d)) & 0xff];
        }
        PackedRank *src = packed.data();
        PackedRank *dst = tmp.data();
        for (int d = 0; d < 8; ++d) {
            const std::uint32_t *h = hist[d];
            // A digit every key shares permutes nothing: skip it.
            if (h[(src[0].key >> (8 * d)) & 0xff] == n)
                continue;
            std::uint32_t offs[256];
            std::uint32_t run = 0;
            for (int b = 0; b < 256; ++b) {
                offs[b] = run;
                run += h[b];
            }
            for (std::size_t i = 0; i < n; ++i)
                dst[offs[(src[i].key >> (8 * d)) & 0xff]++] = src[i];
            std::swap(src, dst);
        }
        sorted = src;
    }

    for (std::size_t i = 0; i < n; ++i)
        ranks[i] = sorted[i].id;
}

/** Insertion shifts a repair may spend per operation (see below). */
constexpr std::size_t repairShiftsPerOp = 4;

/**
 * Insertion-sort the permutation @p ranks by (keyOf[id] asc, id asc)
 * in place — the order sortRanks produces, reached from wherever
 * @p ranks starts, because the pair is a strict total order. Cheap
 * when @p ranks is nearly sorted (a neighbouring grid point's order);
 * gives up once the elements have moved more than @p budget places
 * in total, leaving some permutation behind.
 *
 * @return true when @p ranks is sorted.
 */
bool
repairRanks(std::span<std::int32_t> ranks, const std::uint64_t *keyOf,
            std::size_t budget)
{
    std::size_t shifts = 0;
    for (std::size_t i = 1; i < ranks.size(); ++i) {
        std::int32_t id = ranks[i];
        std::uint64_t key = keyOf[id];
        std::size_t j = i;
        for (; j > 0; --j) {
            std::int32_t prev = ranks[j - 1];
            if (keyOf[prev] < key || (keyOf[prev] == key && prev < id))
                break;
            ranks[j] = prev;
        }
        ranks[j] = id;
        shifts += i - j;
        if (shifts > budget)
            return false;
    }
    return true;
}

/**
 * Sort @p ids by (pri[id] desc, id asc) with a direct gather
 * comparator — the small-block path, where even one key-mapping
 * pass over the priority table costs more than the whole sort.
 * The u64 key order the mapped paths sort by is the same total
 * order: orderKeyDesc is a strictly decreasing monotone map of the
 * double, and the zeros it canonicalizes already compare equal
 * here. Which path runs is therefore invisible in the result.
 */
void
sortIdsByPriorityDesc(std::span<std::int32_t> ids, const double *pri)
{
    std::sort(ids.begin(), ids.end(),
              [pri](std::int32_t a, std::int32_t b) {
                  if (pri[a] != pri[b])
                      return pri[a] > pri[b];
                  return a < b;
              });
}

} // namespace

std::span<const std::int32_t>
priorityRankOrder(const Superblock &sb,
                  const std::vector<double> &priority,
                  SchedScratch &scratch)
{
    bsAssert(int(priority.size()) == sb.numOps(),
             "priority vector size mismatch");
    ScratchArena &arena = scratch.runArena();
    arena.reset();
    const std::size_t n = std::size_t(sb.numOps());
    std::span<std::int32_t> ranks = arena.alloc<std::int32_t>(n);
    for (OpId id = 0; id < sb.numOps(); ++id)
        ranks[std::size_t(id)] = id;
    if (n < radixMinSize) {
        sortIdsByPriorityDesc(ranks, priority.data());
        return ranks;
    }
    std::span<std::uint64_t> keys = arena.alloc<std::uint64_t>(n);
    simdKernels().mapKeysDesc(priority.data(), keys.data(), int(n));
    sortRanks(ranks, keys.data(), arena);
    return ranks;
}

std::span<const std::int32_t>
priorityRankOrderBlended(const Superblock &sb, double a,
                         const std::vector<double> &cp, double b,
                         const std::vector<double> &sr, double c,
                         const std::vector<double> &dh,
                         std::vector<std::int32_t> &order,
                         SchedScratch &scratch)
{
    bsAssert(int(cp.size()) == sb.numOps() && cp.size() == sr.size() &&
                 sr.size() == dh.size(),
             "priority table size mismatch");
    ScratchArena &arena = scratch.runArena();
    arena.reset();
    const std::size_t n = std::size_t(sb.numOps());
    std::span<std::uint64_t> keys = arena.alloc<std::uint64_t>(n);
    simdKernels().blendMapKeysDesc(a, cp.data(), b, sr.data(), c,
                                   dh.data(), keys.data(), int(n));
    if (order.size() == n &&
        repairRanks(order, keys.data(), repairShiftsPerOp * n))
        return order;
    // No earlier order, or too far from this one: sort from the
    // identity (sortRanks' radix path needs ties id-ascending).
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    sortRanks(order, keys.data(), arena);
    return order;
}

std::span<const int>
listScheduleRanked(const Superblock &sb, const MachineModel &machine,
                   std::span<const std::int32_t> opOfRank,
                   SchedulerStats *stats, SchedScratch &scratch)
{
    return rankedCore(
        sb, machine, opOfRank, [](OpId) { return true; }, stats,
        scratch);
}

Schedule
listSchedule(const Superblock &sb, const MachineModel &machine,
             const std::vector<double> &priority, SchedulerStats *stats,
             SchedScratch *scratch)
{
    SchedScratch &scr = scratch ? *scratch : threadLocalSchedScratch();
    std::span<const std::int32_t> ranks =
        priorityRankOrder(sb, priority, scr);
    std::span<const int> issue =
        listScheduleRanked(sb, machine, ranks, stats, scr);
    Schedule out(sb.numOps());
    for (OpId id = 0; id < sb.numOps(); ++id)
        out.setIssue(id, issue[std::size_t(id)]);
    return out;
}

std::vector<int>
listScheduleSubset(const Superblock &sb, const MachineModel &machine,
                   const DynBitset &subset,
                   const std::vector<double> &priority,
                   SchedulerStats *stats, SchedScratch *scratch)
{
    bsAssert(subset.size() == std::size_t(sb.numOps()),
             "subset universe mismatch");
    bsAssert(int(priority.size()) == sb.numOps(),
             "priority vector size mismatch");

    SchedScratch &scr = scratch ? *scratch : threadLocalSchedScratch();
    ScratchArena &arena = scr.runArena();
    arena.reset();
    std::span<std::int32_t> members =
        arena.alloc<std::int32_t>(subset.count());
    std::size_t n = 0;
    subset.forEach(
        [&](std::size_t id) { members[n++] = std::int32_t(id); });
    if (n < radixMinSize) {
        sortIdsByPriorityDesc(members, priority.data());
    } else {
        std::span<std::uint64_t> keys =
            arena.alloc<std::uint64_t>(std::size_t(sb.numOps()));
        simdKernels().mapKeysDesc(priority.data(), keys.data(),
                                  sb.numOps());
        sortRanks(members, keys.data(), arena);
    }

    std::span<const int> issue = rankedCore(
        sb, machine, members,
        [&](OpId id) { return subset.test(std::size_t(id)); }, stats,
        scr);
    return {issue.begin(), issue.end()};
}

} // namespace balance
