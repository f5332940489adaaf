/**
 * @file
 * The SIMD shim and kernel tables: lane ops behave as specified,
 * every compiled table matches the scalar reference bit for bit on
 * adversarial lengths (0, 1, width-1, width, width+1, and longer),
 * and masked tails never write or read past n.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "support/simd.hh"
#include "support/simd_kernels.hh"

namespace balance
{
namespace
{

using simd::F64x4;
using simd::I32x8;

// Lengths straddling both vector widths (8 x i32, 4 x f64): empty,
// single, width +/- 1, multiples, and a long non-multiple.
const std::vector<int> lengths = {0, 1, 3, 4, 5, 7, 8, 9, 16, 17, 63,
                                  64, 65, 200};

TEST(SimdShim, LaneMinMaxSelect)
{
    I32x8 a = {5, -3, 7, 0, -8, 2, 100, -1};
    I32x8 b = {4, -2, 7, 1, -9, 3, -100, -1};
    I32x8 mn = simd::min(a, b);
    I32x8 mx = simd::max(a, b);
    for (int i = 0; i < simd::i32Lanes; ++i) {
        EXPECT_EQ(mn[i], std::min(a[i], b[i]));
        EXPECT_EQ(mx[i], std::max(a[i], b[i]));
    }
    I32x8 mask = a > b; // lanes 0-indexed: {1,0,0,0,1,0,1,0} true
    I32x8 sel = simd::select(mask, a, b);
    for (int i = 0; i < simd::i32Lanes; ++i)
        EXPECT_EQ(sel[i], a[i] > b[i] ? a[i] : b[i]);
}

TEST(SimdShim, Mask8PacksSignBits)
{
    I32x8 m = {-1, 0, -1, -1, 0, 0, 0, -1};
    EXPECT_EQ(simd::mask8(m), 0b10001101u);
    EXPECT_EQ(simd::mask8(simd::splatI32(0)), 0u);
    EXPECT_EQ(simd::mask8(simd::splatI32(-1)), 0xffu);
}

TEST(SimdShim, HorizontalReductions)
{
    I32x8 v = {9, -4, 17, 0, -4, 23, 5, 9};
    EXPECT_EQ(simd::hmin(v), -4);
    EXPECT_EQ(simd::hmax(v), 23);
}

TEST(SimdShim, UnalignedLoadStore)
{
    // Arena spans and vector buffers carry no 32-byte alignment
    // promise; loads must work from any int boundary.
    std::vector<int> buf(simd::i32Lanes + 1);
    for (int i = 0; i < int(buf.size()); ++i)
        buf[std::size_t(i)] = i * 3 - 7;
    I32x8 v = simd::load<I32x8>(buf.data() + 1);
    for (int i = 0; i < simd::i32Lanes; ++i)
        EXPECT_EQ(v[i], buf[std::size_t(i) + 1]);
}

/** Deterministic fuzz data in a small range (heights, slacks). */
std::vector<int>
randInts(std::mt19937 &rng, int n, int lo, int hi)
{
    std::uniform_int_distribution<int> d(lo, hi);
    std::vector<int> v(static_cast<std::size_t>(n));
    for (int &x : v)
        x = d(rng);
    return v;
}

std::vector<double>
randDoubles(std::mt19937 &rng, int n)
{
    std::uniform_real_distribution<double> d(-4.0, 4.0);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double &x : v)
        x = d(rng);
    return v;
}

TEST(SimdKernelsParity, PairCompose)
{
    const SimdKernels &vec = simdKernels();
    const SimdKernels &ref = scalarSimdKernels();
    std::mt19937 rng(7);
    for (int n : lengths) {
        std::vector<int> hSink = randInts(rng, n, 0, 40);
        std::vector<int> hi = randInts(rng, n, -1, 40);
        std::vector<int> early = randInts(rng, n, 0, 30);
        std::vector<int> relLate = randInts(rng, n, -20, 50);
        std::vector<int> keysV(std::size_t(n) + 1, 12345);
        std::vector<int> keysS(std::size_t(n) + 1, 12345);
        ComposeResult rv = vec.pairCompose(
            hSink.data(), hi.data(), early.data(), relLate.data(),
            keysV.data(), n, 2, 11);
        ComposeResult rs = ref.pairCompose(
            hSink.data(), hi.data(), early.data(), relLate.data(),
            keysS.data(), n, 2, 11);
        EXPECT_EQ(rv.cp, rs.cp) << "n=" << n;
        EXPECT_EQ(rv.minKey, rs.minKey) << "n=" << n;
        EXPECT_EQ(rv.maxKey, rs.maxKey) << "n=" << n;
        EXPECT_EQ(keysV, keysS) << "n=" << n;
        // The guard slot past n must be untouched (masked tail).
        EXPECT_EQ(keysV[std::size_t(n)], 12345);
    }
}

TEST(SimdKernelsParity, TripleCompose)
{
    const SimdKernels &vec = simdKernels();
    const SimdKernels &ref = scalarSimdKernels();
    std::mt19937 rng(13);
    for (int n : lengths) {
        std::vector<int> hSink = randInts(rng, n, 0, 40);
        std::vector<int> hi = randInts(rng, n, -1, 40);
        std::vector<int> hj = randInts(rng, n, -1, 40);
        std::vector<int> early = randInts(rng, n, 0, 30);
        std::vector<int> relLate = randInts(rng, n, -20, 50);
        std::vector<int> keysV(std::size_t(n) + 1, 777);
        std::vector<int> keysS(std::size_t(n) + 1, 777);
        ComposeResult rv = vec.tripleCompose(
            hSink.data(), hi.data(), hj.data(), early.data(),
            relLate.data(), keysV.data(), n, 3, 1, 9);
        ComposeResult rs = ref.tripleCompose(
            hSink.data(), hi.data(), hj.data(), early.data(),
            relLate.data(), keysS.data(), n, 3, 1, 9);
        EXPECT_EQ(rv.cp, rs.cp) << "n=" << n;
        EXPECT_EQ(rv.minKey, rs.minKey) << "n=" << n;
        EXPECT_EQ(rv.maxKey, rs.maxKey) << "n=" << n;
        EXPECT_EQ(keysV, keysS) << "n=" << n;
        EXPECT_EQ(keysV[std::size_t(n)], 777);
    }
}

TEST(SimdKernelsParity, BlendAndMapKeys)
{
    const SimdKernels &vec = simdKernels();
    const SimdKernels &ref = scalarSimdKernels();
    std::mt19937 rng(23);
    for (int n : lengths) {
        std::vector<double> cp = randDoubles(rng, n);
        std::vector<double> sr = randDoubles(rng, n);
        std::vector<double> dh = randDoubles(rng, n);
        if (n > 0) {
            cp[0] = 0.0;
            sr[0] = -0.5; // 0*(-0.5) terms can produce -0.0 blends
            dh[0] = 0.0;
        }
        const std::size_t un = static_cast<std::size_t>(n);
        std::vector<double> outV(un), outS(un);
        vec.blendKeys(0.3, cp.data(), 0.0, sr.data(), 0.7, dh.data(),
                      outV.data(), n);
        ref.blendKeys(0.3, cp.data(), 0.0, sr.data(), 0.7, dh.data(),
                      outS.data(), n);
        EXPECT_EQ(outV, outS) << "n=" << n;

        std::vector<std::uint64_t> kV(un), kS(un), kF(un);
        vec.mapKeysDesc(outV.data(), kV.data(), n);
        ref.mapKeysDesc(outS.data(), kS.data(), n);
        EXPECT_EQ(kV, kS) << "n=" << n;

        // Fused kernel == blend then map.
        vec.blendMapKeysDesc(0.3, cp.data(), 0.0, sr.data(), 0.7,
                             dh.data(), kF.data(), n);
        EXPECT_EQ(kF, kS) << "n=" << n;
    }
}

TEST(SimdKernels, OrderKeyDescIsStrictlyMonotone)
{
    const std::vector<double> ordered = {
        -1e308, -5.0, -1.0, -1e-300, -0.0, 0.0,
        1e-300, 0.5,  1.0,  7.25,    1e308};
    for (std::size_t i = 1; i < ordered.size(); ++i) {
        std::uint64_t hi = detail::orderKeyDesc(ordered[i - 1]);
        std::uint64_t lo = detail::orderKeyDesc(ordered[i]);
        if (ordered[i - 1] == ordered[i])
            EXPECT_EQ(hi, lo); // -0.0 and +0.0 share a key
        else
            EXPECT_GT(hi, lo); // larger priority -> smaller key
    }
}

TEST(SimdKernelsParity, MaskLE)
{
    const SimdKernels &vec = simdKernels();
    const SimdKernels &ref = scalarSimdKernels();
    std::mt19937 rng(29);
    for (int n : lengths) {
        std::vector<int> vals = randInts(rng, n, 0, 10);
        std::size_t words = std::size_t(n + 63) / 64;
        // Poisoned output buffers: the kernel must zero tail bits.
        std::vector<std::uint64_t> wV(words + 1, ~std::uint64_t(0));
        std::vector<std::uint64_t> wS(words + 1, ~std::uint64_t(0));
        vec.maskLE(vals.data(), 5, wV.data(), n);
        ref.maskLE(vals.data(), 5, wS.data(), n);
        for (std::size_t w = 0; w < words; ++w)
            EXPECT_EQ(wV[w], wS[w]) << "n=" << n << " word=" << w;
        // Guard word past the mask is untouched.
        EXPECT_EQ(wV[words], ~std::uint64_t(0));
        for (int i = 0; i < n; ++i) {
            bool bit =
                (wV[std::size_t(i) >> 6] >>
                 (std::size_t(i) & 63)) & 1;
            EXPECT_EQ(bit, vals[std::size_t(i)] <= 5);
        }
        // Bits between n and the word boundary must be zero.
        if (n & 63) {
            std::uint64_t tail = wV[words - 1] >> (n & 63);
            EXPECT_EQ(tail, 0u);
        }
    }
}

TEST(SimdDispatch, ForceScalarSwitchesTables)
{
    const SimdKernels &resolved = simdKernels();
    forceScalarSimdKernels(true);
    EXPECT_EQ(simdKernels().level, SimdLevel::Scalar);
    EXPECT_STREQ(simdKernels().name, "scalar");
    forceScalarSimdKernels(false);
    EXPECT_EQ(&simdKernels(), &resolved);
}

} // namespace
} // namespace balance
