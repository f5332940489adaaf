/**
 * @file
 * The engine's data-parallel kernels behind one dispatch table.
 *
 * Every SIMD-accelerated inner loop in the bound and scheduler
 * engines goes through a SimdKernels function pointer: the pair and
 * triple sweep compositions, the priority-key mapping and blending
 * of the Best combo grid, and the pending-promotion compare of the
 * greedy core. The
 * scalar table below is the reference semantics — plain loops,
 * always compiled — and the AVX2/NEON tables (built per
 * cmake/enable_intrinsics.cmake) must match it bit for bit on every
 * input; tests/support/simd_test.cc and the golden engine tests pin
 * that.
 *
 * Determinism contract (docs/PERFORMANCE.md, "SIMD kernels"):
 *  - integer kernels are min/max/add/compare sweeps whose reductions
 *    are associative, so lane order cannot change results;
 *  - floating-point kernels are purely elementwise with a fixed
 *    association order, (a*cp + b*sr) + c*dh, and the build disables
 *    FP contraction globally, so no path fuses a mul/add pair the
 *    others keep separate;
 *  - the double -> u64 sort-key map is strictly monotone (descending)
 *    after canonicalizing -0.0 via x + 0.0, so sorting the mapped
 *    keys ascending is exactly the (priority desc, id asc) order the
 *    old gather comparator produced. NaN priorities are excluded by
 *    construction (keys are finite sums of finite tables).
 *
 * Dispatch: simdKernels() resolves once per process — the widest
 * table the CPU supports, unless the BALANCE_SIMD environment
 * variable ("scalar", "off", or "0") or forceScalarSimdKernels()
 * demands the scalar fallback. Hot loops fetch the table once per
 * call, not per element.
 */

#ifndef BALANCE_SUPPORT_SIMD_KERNELS_HH
#define BALANCE_SUPPORT_SIMD_KERNELS_HH

#include <bit>
#include <cstdint>

namespace balance
{

/** Which kernel table is active (telemetry / test assertions). */
enum class SimdLevel
{
    Scalar = 0,
    Avx2,
    Neon,
};

/** Reductions of one pair/triple composition pass. */
struct ComposeResult
{
    int cp = 0;     //!< composed critical path
    int minKey = 0; //!< min over emitted keys and 0
    int maxKey = 0; //!< max over emitted keys and 0
};

/**
 * The kernel table. All pointers are non-null in every table; the
 * scalar table is the semantic reference for each entry.
 */
struct SimdKernels
{
    SimdLevel level = SimdLevel::Scalar;
    const char *name = "scalar";

    /**
     * Pair-sweep composition (PairSweepCache::eval): per member m,
     *   h      = hi[m] >= 0 ? max(hSink[m], hi[m] + latency) : hSink[m]
     *   keys[m] = min(-h, relLate[m])
     * reducing cp = max(cp0, max_m early[m] + h) and the min/max of
     * keys[m] against 0.
     */
    ComposeResult (*pairCompose)(const int *hSink, const int *hi,
                                 const int *early, const int *relLate,
                                 int *keys, int n, int latency, int cp0);

    /**
     * Triple-sweep composition (TripleSweepCache::eval): per member,
     *   hjNew = hi[m] >= 0 ? max(hj[m], hi[m] + a) : hj[m]
     *   h     = hjNew >= 0 ? max(hSink[m], hjNew + jToK) : hSink[m]
     * then keys/cp/min/max as pairCompose.
     */
    ComposeResult (*tripleCompose)(const int *hSink, const int *hi,
                                   const int *hj, const int *early,
                                   const int *relLate, int *keys, int n,
                                   int a, int jToK, int cp0);

    /** Blend the grid keys: out[i] = (a*cp[i] + b*sr[i]) + c*dh[i]. */
    void (*blendKeys)(double a, const double *cp, double b,
                      const double *sr, double c, const double *dh,
                      double *out, int n);

    /** Map priorities to descending-order u64 sort keys. */
    void (*mapKeysDesc)(const double *pri, std::uint64_t *out, int n);

    /** Fused blendKeys + mapKeysDesc (the grid's per-point pass). */
    void (*blendMapKeysDesc)(double a, const double *cp, double b,
                             const double *sr, double c,
                             const double *dh, std::uint64_t *out,
                             int n);

    /**
     * Pending-promotion compare (rankedCore): set bit i of words iff
     * vals[i] <= threshold; clear all tail bits up to the word
     * boundary. words has (n + 63) / 64 entries.
     */
    void (*maskLE)(const int *vals, int threshold,
                   std::uint64_t *words, int n);
};

namespace detail
{

/**
 * The double -> u64 descending order map shared by every table:
 * strictly monotone (x < y implies key(x) > key(y)) over all finite
 * doubles and infinities, with -0.0 canonicalized to +0.0 by the
 * x + 0.0 (exact for every other value). Sorting keys ascending
 * therefore equals sorting priorities descending, with exactly the
 * same tie classes as operator== on the doubles.
 */
inline std::uint64_t
orderKeyDesc(double x)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(x + 0.0);
    std::uint64_t asc = (bits & (std::uint64_t(1) << 63))
                            ? ~bits
                            : bits | (std::uint64_t(1) << 63);
    return ~asc;
}

/** Scalar pairCompose body for one member (shared tail code). */
inline int
pairComposeOne(int hSink, int hi, int latency)
{
    int h = hSink;
    if (hi >= 0)
        h = h > hi + latency ? h : hi + latency;
    return h;
}

/** Scalar tripleCompose body for one member (shared tail code). */
inline int
tripleComposeOne(int hSink, int hi, int hj, int a, int jToK)
{
    int hjNew = hj;
    if (hi >= 0)
        hjNew = hjNew > hi + a ? hjNew : hi + a;
    int h = hSink;
    if (hjNew >= 0)
        h = h > hjNew + jToK ? h : hjNew + jToK;
    return h;
}

} // namespace detail

/** The portable reference table (plain loops, always compiled). */
const SimdKernels &scalarSimdKernels();

/**
 * The table every engine loop should use: the widest implementation
 * this process may run, resolved once (CPUID + BALANCE_SIMD
 * environment override + forceScalarSimdKernels).
 */
const SimdKernels &simdKernels();

/**
 * Test/tool hook: pin dispatch to the scalar table (true) or return
 * to automatic resolution (false). Takes effect on the next
 * simdKernels() call; not meant to be raced against running kernels.
 */
void forceScalarSimdKernels(bool on);

} // namespace balance

#endif // BALANCE_SUPPORT_SIMD_KERNELS_HH
