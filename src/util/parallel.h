#ifndef SNOR_UTIL_PARALLEL_H_
#define SNOR_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace snor {

/// Number of worker threads to use by default (hardware concurrency,
/// at least 1). Also the size of the process-wide ParallelFor pool.
int DefaultThreadCount();

/// Runs `fn(i)` for every i in [0, n) using dynamic (atomic-counter)
/// scheduling. `fn` must be safe to call concurrently for distinct
/// indices; results must be written to per-index slots, so output is
/// bit-identical regardless of thread count.
///
/// Execution: one process-wide pool of `DefaultThreadCount()` persistent
/// workers, created on first use and never torn down, runs the items.
/// A call posts one job, wakes only the workers it uses — at most
/// `n_threads` (<= 0 means `DefaultThreadCount()`), at most `n` — and
/// waits; the calling thread runs no items. A call runs inline on the
/// calling thread, one index after another, when `n == 1`, when
/// `n_threads <= 1`, or when it is issued from inside a pool worker (so
/// nested calls never wait on the pool they occupy). Calls from several
/// threads at once are fine: their jobs share the pool.
///
/// Every item's thread runs under the caller's `obs::TraceContext`, and
/// `MaybeInjectDelay()` runs once before every item.
///
/// Fault tolerance: if an item throws, no new indices are handed out and
/// the *first* captured exception is rethrown on the calling thread once
/// every worker has left the job (the process is never terminated).
/// Indices already claimed by other workers may still complete.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int n_threads = 0);

}  // namespace snor

#endif  // SNOR_UTIL_PARALLEL_H_
