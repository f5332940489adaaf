/**
 * @file
 * The vector kernel bodies, written once against the portable shim
 * (support/simd.hh) and included by each vector translation unit
 * (simd_kernels_avx2.cc under -mavx2, simd_kernels_neon.cc on
 * AArch64). The TU's compile flags decide the codegen; the source —
 * and therefore the semantics — is identical everywhere.
 *
 * Bitwise-identity notes, kernel by kernel:
 *  - pair/tripleCompose: the main loop runs 8 members per iteration
 *    with masked selects that mirror the scalar branches exactly;
 *    cp/min/max accumulate per lane and reduce horizontally at the
 *    end, which is safe because integer min/max are associative and
 *    commutative. The tail reuses the scalar per-member helpers.
 *  - blend/map: purely elementwise; the blend keeps the scalar's
 *    (a*cp + b*sr) + c*dh association and the build compiles every
 *    path with -ffp-contract=off, so no FMA fusion can diverge.
 *
 * This header must only be included from a TU that defines
 * BALANCE_SIMD_TABLE_LEVEL / BALANCE_SIMD_TABLE_NAME /
 * BALANCE_SIMD_TABLE_FUNC before the include.
 */

#include <algorithm>
#include <climits>

#include "support/simd.hh"
#include "support/simd_kernels.hh"

namespace balance
{

namespace
{

using simd::F64x4;
using simd::I32x8;
using simd::I64x4;
using simd::U64x4;

ComposeResult
pairComposeVec(const int *hSink, const int *hi, const int *early,
               const int *relLate, int *keys, int n, int latency,
               int cp0)
{
    ComposeResult r;
    r.cp = cp0;

    const I32x8 vLat = simd::splatI32(latency);
    const I32x8 vZero = simd::splatI32(0);
    I32x8 vCp = simd::splatI32(INT_MIN);
    I32x8 vMin = vZero;
    I32x8 vMax = vZero;

    int m = 0;
    for (; m + simd::i32Lanes <= n; m += simd::i32Lanes) {
        I32x8 h = simd::load<I32x8>(hSink + m);
        I32x8 vhi = simd::load<I32x8>(hi + m);
        I32x8 live = vhi >= vZero;
        h = simd::select(live, simd::max(h, vhi + vLat), h);
        vCp = simd::max(vCp, simd::load<I32x8>(early + m) + h);
        I32x8 key = simd::min(-h, simd::load<I32x8>(relLate + m));
        simd::store(keys + m, key);
        vMin = simd::min(vMin, key);
        vMax = simd::max(vMax, key);
    }
    for (; m < n; ++m) {
        int h = detail::pairComposeOne(hSink[m], hi[m], latency);
        r.cp = std::max(r.cp, early[m] + h);
        int key = std::min(-h, relLate[m]);
        keys[m] = key;
        r.minKey = std::min(r.minKey, key);
        r.maxKey = std::max(r.maxKey, key);
    }

    r.cp = std::max(r.cp, simd::hmax(vCp));
    r.minKey = std::min(r.minKey, simd::hmin(vMin));
    r.maxKey = std::max(r.maxKey, simd::hmax(vMax));
    return r;
}

ComposeResult
tripleComposeVec(const int *hSink, const int *hi, const int *hj,
                 const int *early, const int *relLate, int *keys,
                 int n, int a, int jToK, int cp0)
{
    ComposeResult r;
    r.cp = cp0;

    const I32x8 vA = simd::splatI32(a);
    const I32x8 vFun = simd::splatI32(jToK);
    const I32x8 vZero = simd::splatI32(0);
    I32x8 vCp = simd::splatI32(INT_MIN);
    I32x8 vMin = vZero;
    I32x8 vMax = vZero;

    int m = 0;
    for (; m + simd::i32Lanes <= n; m += simd::i32Lanes) {
        I32x8 vhi = simd::load<I32x8>(hi + m);
        I32x8 hjNew = simd::load<I32x8>(hj + m);
        I32x8 liveI = vhi >= vZero;
        hjNew = simd::select(liveI, simd::max(hjNew, vhi + vA), hjNew);
        I32x8 h = simd::load<I32x8>(hSink + m);
        I32x8 liveJ = hjNew >= vZero;
        h = simd::select(liveJ, simd::max(h, hjNew + vFun), h);
        vCp = simd::max(vCp, simd::load<I32x8>(early + m) + h);
        I32x8 key = simd::min(-h, simd::load<I32x8>(relLate + m));
        simd::store(keys + m, key);
        vMin = simd::min(vMin, key);
        vMax = simd::max(vMax, key);
    }
    for (; m < n; ++m) {
        int h = detail::tripleComposeOne(hSink[m], hi[m], hj[m], a,
                                         jToK);
        r.cp = std::max(r.cp, early[m] + h);
        int key = std::min(-h, relLate[m]);
        keys[m] = key;
        r.minKey = std::min(r.minKey, key);
        r.maxKey = std::max(r.maxKey, key);
    }

    r.cp = std::max(r.cp, simd::hmax(vCp));
    r.minKey = std::min(r.minKey, simd::hmin(vMin));
    r.maxKey = std::max(r.maxKey, simd::hmax(vMax));
    return r;
}

void
blendKeysVec(double a, const double *cp, double b, const double *sr,
             double c, const double *dh, double *out, int n)
{
    const F64x4 vA = simd::splatF64(a);
    const F64x4 vB = simd::splatF64(b);
    const F64x4 vC = simd::splatF64(c);
    int i = 0;
    for (; i + simd::f64Lanes <= n; i += simd::f64Lanes) {
        F64x4 v = (vA * simd::load<F64x4>(cp + i) +
                   vB * simd::load<F64x4>(sr + i)) +
                  vC * simd::load<F64x4>(dh + i);
        simd::store(out + i, v);
    }
    for (; i < n; ++i)
        out[i] = a * cp[i] + b * sr[i] + c * dh[i];
}

/** Vector form of detail::orderKeyDesc, lane for lane. */
inline U64x4
orderKeyDescVec(F64x4 v)
{
    const U64x4 vSign = U64x4{1, 1, 1, 1} << 63;
    v = v + simd::splatF64(0.0); // canonicalize -0.0
    U64x4 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    I64x4 neg = I64x4(bits) < I64x4{0, 0, 0, 0};
    U64x4 asc = neg ? ~bits : bits | vSign;
    return ~asc;
}

void
mapKeysDescVec(const double *pri, std::uint64_t *out, int n)
{
    int i = 0;
    for (; i + simd::f64Lanes <= n; i += simd::f64Lanes) {
        U64x4 k = orderKeyDescVec(simd::load<F64x4>(pri + i));
        simd::store(out + i, k);
    }
    for (; i < n; ++i)
        out[i] = detail::orderKeyDesc(pri[i]);
}

void
blendMapKeysDescVec(double a, const double *cp, double b,
                    const double *sr, double c, const double *dh,
                    std::uint64_t *out, int n)
{
    const F64x4 vA = simd::splatF64(a);
    const F64x4 vB = simd::splatF64(b);
    const F64x4 vC = simd::splatF64(c);
    int i = 0;
    for (; i + simd::f64Lanes <= n; i += simd::f64Lanes) {
        F64x4 v = (vA * simd::load<F64x4>(cp + i) +
                   vB * simd::load<F64x4>(sr + i)) +
                  vC * simd::load<F64x4>(dh + i);
        simd::store(out + i, orderKeyDescVec(v));
    }
    for (; i < n; ++i)
        out[i] = detail::orderKeyDesc(a * cp[i] + b * sr[i] +
                                      c * dh[i]);
}

void
maskLEVec(const int *vals, int threshold, std::uint64_t *words, int n)
{
    const I32x8 vThr = simd::splatI32(threshold);
    const int numWords = (n + 63) / 64;
    for (int w = 0; w < numWords; ++w)
        words[w] = 0;
    int i = 0;
    for (; i + simd::i32Lanes <= n; i += simd::i32Lanes) {
        I32x8 le = simd::load<I32x8>(vals + i) <= vThr;
        std::uint64_t bits = simd::mask8(le);
        words[i >> 6] |= bits << (i & 63);
    }
    for (; i < n; ++i) {
        if (vals[i] <= threshold)
            words[i >> 6] |= std::uint64_t(1) << (i & 63);
    }
}

} // namespace

const SimdKernels &
BALANCE_SIMD_TABLE_FUNC()
{
    static const SimdKernels table = {
        BALANCE_SIMD_TABLE_LEVEL,
        BALANCE_SIMD_TABLE_NAME,
        &pairComposeVec,
        &tripleComposeVec,
        &blendKeysVec,
        &mapKeysDescVec,
        &blendMapKeysDescVec,
        &maskLEVec,
    };
    return table;
}

} // namespace balance
