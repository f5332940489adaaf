/**
 * @file
 * A rewindable scratch arena for hot loops that would otherwise
 * allocate fresh std::vectors per iteration.
 *
 * ScratchArena hands out uninitialized, properly aligned spans of
 * trivial types from geometrically growing blocks. reset() rewinds
 * every block to empty without releasing memory, so a computation
 * that is re-run thousands of times (the bound sweeps) performs
 * allocations only while the arena grows to its high-water mark.
 *
 * The arena is intentionally NOT thread-safe: each worker owns one
 * (the per-thread/per-task BoundScratch pattern used by the bound
 * engine — see bounds/bound_scratch.hh and docs/PERFORMANCE.md).
 */

#ifndef BALANCE_SUPPORT_ARENA_HH
#define BALANCE_SUPPORT_ARENA_HH

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace balance
{

/** Bump allocator over reusable blocks (see file comment). */
class ScratchArena
{
  public:
    /** @param firstBlockBytes Size of the first block on demand. */
    explicit ScratchArena(std::size_t firstBlockBytes = 1 << 14)
        : firstSize(firstBlockBytes < 64 ? 64 : firstBlockBytes)
    {
    }

    /** Rewind all blocks; keeps every byte of capacity. */
    void
    reset()
    {
        if (liveBytes > highWater)
            highWater = liveBytes;
        liveBytes = 0;
        for (Block &b : blocks)
            b.used = 0;
        cur = 0;
    }

    /**
     * Allocate an uninitialized span of @p n elements of trivial
     * type T, aligned for T. Spans stay valid until reset().
     */
    template <typename T>
    std::span<T>
    alloc(std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          std::is_trivially_destructible_v<T>,
                      "arena spans are never constructed or destroyed");
        if (n == 0)
            return {};
        std::size_t bytes = n * sizeof(T);
        void *p = allocBytes(bytes, alignof(T));
        return {static_cast<T *>(p), n};
    }

    /** @return total bytes currently held across all blocks. */
    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Block &b : blocks)
            total += b.cap;
        return total;
    }

    /**
     * @return the largest number of payload bytes ever live at once
     *         (alignment slack excluded), including the current
     *         not-yet-reset allocations. Telemetry only.
     */
    std::size_t
    highWaterBytes() const
    {
        return liveBytes > highWater ? liveBytes : highWater;
    }

    /**
     * Raise the high-water mark to at least @p bytes, folding another
     * arena's mark into this one's. Telemetry only.
     */
    void
    raiseHighWater(std::size_t bytes)
    {
        if (bytes > highWater)
            highWater = bytes;
    }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t cap = 0;
        std::size_t used = 0;
    };

    void *
    allocBytes(std::size_t bytes, std::size_t align)
    {
        liveBytes += bytes;
        while (cur < blocks.size()) {
            Block &b = blocks[cur];
            std::size_t at = alignUp(b.used, align);
            if (at + bytes <= b.cap) {
                b.used = at + bytes;
                return b.data.get() + at;
            }
            ++cur;
        }
        // New block: geometric growth, but never smaller than the
        // request (plus alignment slack, as operator new only
        // guarantees max_align_t).
        std::size_t cap = blocks.empty() ? firstSize : blocks.back().cap * 2;
        if (cap < bytes + align)
            cap = bytes + align;
        Block b;
        b.data = std::make_unique<std::byte[]>(cap);
        b.cap = cap;
        std::size_t at =
            alignUp(std::size_t(reinterpret_cast<std::uintptr_t>(
                        b.data.get())),
                    align) -
            std::size_t(reinterpret_cast<std::uintptr_t>(b.data.get()));
        b.used = at + bytes;
        blocks.push_back(std::move(b));
        cur = blocks.size() - 1;
        return blocks.back().data.get() + at;
    }

    static std::size_t
    alignUp(std::size_t v, std::size_t align)
    {
        return (v + align - 1) & ~(align - 1);
    }

    std::vector<Block> blocks;
    std::size_t cur = 0;
    std::size_t firstSize;
    /** Payload bytes allocated since the last reset(). */
    std::size_t liveBytes = 0;
    /** Largest liveBytes value any completed reset cycle reached. */
    std::size_t highWater = 0;
};

} // namespace balance

#endif // BALANCE_SUPPORT_ARENA_HH
