/**
 * @file
 * Portable fixed-width vector shim for the engine's SIMD kernels.
 *
 * The types are GCC/Clang vector extensions at a fixed 256-bit width
 * (8 x i32, 4 x f64) on every target. The compiler lowers them to
 * AVX2 registers when the translation unit is built with -mavx2, to
 * pairs of NEON registers on AArch64, and to scalar code everywhere
 * else — so the *same* kernel source yields every codegen flavor,
 * and lane semantics (hence results) never depend on the target.
 *
 * Only the kernel translation units and their tests include this
 * header. Engine code talks to the kernels through the dispatch
 * table in simd_kernels.hh and never sees a vector type.
 *
 * Conventions:
 *  - loads/stores are unaligned (memcpy-based): callers pass plain
 *    vector<int>/arena spans with no alignment contract;
 *  - comparison results are lane masks (-1 = true, 0 = false), the
 *    vector-extension convention, consumed by select() or mask8();
 *  - horizontal reductions are lane loops: they run once per kernel
 *    call, and integer min/max are associative, so the reduction
 *    order cannot change results.
 */

#ifndef BALANCE_SUPPORT_SIMD_HH
#define BALANCE_SUPPORT_SIMD_HH

#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace balance::simd
{

inline constexpr int i32Lanes = 8; //!< lanes per I32x8
inline constexpr int f64Lanes = 4; //!< lanes per F64x4 / U64x4

typedef std::int32_t I32x8 __attribute__((vector_size(32)));
typedef double F64x4 __attribute__((vector_size(32)));
typedef std::int64_t I64x4 __attribute__((vector_size(32)));
typedef std::uint64_t U64x4 __attribute__((vector_size(32)));

inline I32x8
splatI32(std::int32_t x)
{
    return I32x8{x, x, x, x, x, x, x, x};
}

inline F64x4
splatF64(double x)
{
    return F64x4{x, x, x, x};
}

template <typename V>
inline V
load(const void *p)
{
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
}

template <typename V>
inline void
store(void *p, V v)
{
    std::memcpy(p, &v, sizeof(V));
}

/** Lane-wise a < b ? a : b. */
inline I32x8
min(I32x8 a, I32x8 b)
{
    return a < b ? a : b;
}

/** Lane-wise a > b ? a : b. */
inline I32x8
max(I32x8 a, I32x8 b)
{
    return a > b ? a : b;
}

/** Lane-wise mask ? a : b (mask lanes are -1/0). */
inline I32x8
select(I32x8 mask, I32x8 a, I32x8 b)
{
    return mask ? a : b;
}

/**
 * Pack the sign bit of each i32 lane into bits [0,8) — the AVX2
 * movemask, with a portable fallback for generic lowering.
 */
inline unsigned
mask8(I32x8 m)
{
#if defined(__AVX2__)
    __m256 f;
    std::memcpy(&f, &m, sizeof(f));
    return unsigned(_mm256_movemask_ps(f));
#else
    unsigned bits = 0;
    for (int i = 0; i < i32Lanes; ++i)
        bits |= unsigned(m[i] < 0) << i;
    return bits;
#endif
}

/** Horizontal minimum of all 8 lanes. */
inline std::int32_t
hmin(I32x8 v)
{
    std::int32_t r = v[0];
    for (int i = 1; i < i32Lanes; ++i)
        r = v[i] < r ? v[i] : r;
    return r;
}

/** Horizontal maximum of all 8 lanes. */
inline std::int32_t
hmax(I32x8 v)
{
    std::int32_t r = v[0];
    for (int i = 1; i < i32Lanes; ++i)
        r = v[i] > r ? v[i] : r;
    return r;
}

} // namespace balance::simd

#endif // BALANCE_SUPPORT_SIMD_HH
