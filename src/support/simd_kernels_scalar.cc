/**
 * @file
 * The portable scalar kernel table: the reference semantics every
 * vector table must reproduce bit for bit. Plain loops, no vector
 * types, compiled with the project's baseline flags on every target
 * — this is also the table the BALANCE_SIMD=scalar override and the
 * -DBALANCE_SIMD=OFF build select.
 */

#include "support/simd_kernels.hh"

#include <algorithm>

namespace balance
{

namespace
{

ComposeResult
pairComposeScalar(const int *hSink, const int *hi, const int *early,
                  const int *relLate, int *keys, int n, int latency,
                  int cp0)
{
    ComposeResult r;
    r.cp = cp0;
    for (int m = 0; m < n; ++m) {
        int h = detail::pairComposeOne(hSink[m], hi[m], latency);
        r.cp = std::max(r.cp, early[m] + h);
        int key = std::min(-h, relLate[m]);
        keys[m] = key;
        r.minKey = std::min(r.minKey, key);
        r.maxKey = std::max(r.maxKey, key);
    }
    return r;
}

ComposeResult
tripleComposeScalar(const int *hSink, const int *hi, const int *hj,
                    const int *early, const int *relLate, int *keys,
                    int n, int a, int jToK, int cp0)
{
    ComposeResult r;
    r.cp = cp0;
    for (int m = 0; m < n; ++m) {
        int h = detail::tripleComposeOne(hSink[m], hi[m], hj[m], a,
                                         jToK);
        r.cp = std::max(r.cp, early[m] + h);
        int key = std::min(-h, relLate[m]);
        keys[m] = key;
        r.minKey = std::min(r.minKey, key);
        r.maxKey = std::max(r.maxKey, key);
    }
    return r;
}

void
blendKeysScalar(double a, const double *cp, double b, const double *sr,
                double c, const double *dh, double *out, int n)
{
    for (int i = 0; i < n; ++i)
        out[i] = a * cp[i] + b * sr[i] + c * dh[i];
}

void
mapKeysDescScalar(const double *pri, std::uint64_t *out, int n)
{
    for (int i = 0; i < n; ++i)
        out[i] = detail::orderKeyDesc(pri[i]);
}

void
blendMapKeysDescScalar(double a, const double *cp, double b,
                       const double *sr, double c, const double *dh,
                       std::uint64_t *out, int n)
{
    for (int i = 0; i < n; ++i)
        out[i] = detail::orderKeyDesc(a * cp[i] + b * sr[i] +
                                      c * dh[i]);
}

void
maskLEScalar(const int *vals, int threshold, std::uint64_t *words,
             int n)
{
    const int numWords = (n + 63) / 64;
    for (int w = 0; w < numWords; ++w)
        words[w] = 0;
    for (int i = 0; i < n; ++i) {
        if (vals[i] <= threshold)
            words[i >> 6] |= std::uint64_t(1) << (i & 63);
    }
}

} // namespace

const SimdKernels &
scalarSimdKernels()
{
    static const SimdKernels table = {
        SimdLevel::Scalar,
        "scalar",
        &pairComposeScalar,
        &tripleComposeScalar,
        &blendKeysScalar,
        &mapKeysDescScalar,
        &blendMapKeysDescScalar,
        &maskLEScalar,
    };
    return table;
}

} // namespace balance
