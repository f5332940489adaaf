/**
 * @file
 * Deterministic parallel iteration on top of the work-stealing pool.
 *
 * parallelFor(n, fn, threads) runs fn(0) … fn(n-1) with dynamic
 * load balancing: `threads` self-scheduling loop tasks share an
 * atomic cursor, so a worker that drew a cheap index immediately
 * takes the next one. The *execution* order is nondeterministic,
 * but callers obtain bitwise-deterministic results by making fn(i)
 * a pure function that writes only into its own pre-sized slot i
 * and reducing the slots in index order afterwards — the pattern
 * every eval driver in this library follows. With threads == 1 (or
 * n <= 1) the loop runs inline on the caller, which is the identity
 * the determinism tests pin: any thread count must reproduce the
 * single-thread bytes.
 *
 * parallelForLanes is the same loop for callers that keep working
 * storage per loop task (a lane): fn(i, lane) learns which lane runs
 * index i, and a lane runs its indices one after another on one
 * thread, so lane-indexed state needs no lock.
 */

#ifndef BALANCE_SUPPORT_PARALLEL_FOR_HH
#define BALANCE_SUPPORT_PARALLEL_FOR_HH

#include <atomic>
#include <cstddef>
#include <memory>

#include "support/thread_pool.hh"

namespace balance
{

/**
 * @return how many loop tasks (lanes) a loop over @p n indices with
 *         concurrency cap @p threads runs: min(threads, n), at least
 *         1; 1 means inline on the caller.
 */
inline int
parallelLanes(std::size_t n, int threads)
{
    if (threads <= 0)
        threads = ThreadPool::hardwareThreads();
    if (std::size_t(threads) > n)
        threads = int(n);
    return threads < 1 ? 1 : threads;
}

/**
 * Apply @p fn(i, lane) to every index i in [0, n), on
 * parallelLanes(n, threads) lanes numbered from 0.
 *
 * @param n Iteration count.
 * @param fn Callable taking a std::size_t index and an int lane. Must
 *        not touch shared mutable state except through its own slot
 *        and its lane's state.
 * @param threads Concurrency cap; 0 = hardware, 1 = inline serial.
 * @param pool Pool to run on; nullptr = ThreadPool::global() (or a
 *        dedicated pool when @p threads exceeds the global size).
 *
 * Exceptions thrown by @p fn propagate to the caller (first one
 * wins); remaining indices may or may not run.
 */
template <typename Fn>
void
parallelForLanes(std::size_t n, Fn &&fn, int threads = 0,
                 ThreadPool *pool = nullptr)
{
    const int lanes = parallelLanes(n, threads);
    if (lanes <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i, 0);
        return;
    }

    std::unique_ptr<ThreadPool> owned;
    if (!pool) {
        if (lanes <= ThreadPool::global().numThreads()) {
            pool = &ThreadPool::global();
        } else {
            owned = std::make_unique<ThreadPool>(lanes);
            pool = owned.get();
        }
    }

    std::atomic<std::size_t> next{0};
    TaskGroup group(*pool);
    for (int t = 0; t < lanes; ++t) {
        group.run([&, t] {
            for (std::size_t i;
                 (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
                fn(i, t);
        });
    }
    group.wait();
}

/**
 * Apply @p fn to every index in [0, n), using up to @p threads
 * concurrent executors (0 means ThreadPool::hardwareThreads()).
 * Parameters and exceptions as parallelForLanes, with @p fn taking
 * the index alone.
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn, int threads = 0,
            ThreadPool *pool = nullptr)
{
    parallelForLanes(
        n, [&fn](std::size_t i, int) { fn(i); }, threads, pool);
}

} // namespace balance

#endif // BALANCE_SUPPORT_PARALLEL_FOR_HH
