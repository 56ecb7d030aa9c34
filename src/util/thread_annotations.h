#ifndef SNOR_UTIL_THREAD_ANNOTATIONS_H_
#define SNOR_UTIL_THREAD_ANNOTATIONS_H_

/// Locking-discipline annotations understood by tools/analyze
/// (snor_analyze) and, where noted, by clang's -Wthread-safety.
///
/// The project uses *comment* annotations so that the conventions work
/// with any compiler and never change codegen:
///
///   // GUARDED_BY(m)    on a member/local declaration line: the value
///                       is protected by mutex `m`. Special guards:
///                       `caller` (serialized by the caller, never
///                       touched from worker lambdas), `atomic` (the
///                       field is std::atomic), `per_worker_slot`
///                       (workers may write only their own subscript).
///   // LOCK_RANK(n)     on a std::mutex declaration line: assigns the
///                       mutex a global acquisition rank. Lower rank =
///                       acquired first (outer lock); every nested
///                       acquisition must be of a strictly higher rank.
///                       snor_analyze builds the whole-program
///                       acquisition graph and reports rank inversions
///                       and cycles as `lock-order-cycle`.
///
/// Current rank table (keep sorted; pick a free gap for a new mutex):
///
///   10  RequestQueue::mutex_        (src/serve/request_queue.h)
///   15  IntrospectServer::mutex_    (src/obs/introspect.h) — guards the
///       handler map only; handlers are copied out and invoked unlocked,
///       so whatever a handler itself locks (trace store, metrics) ranks
///       higher.
///   20  TraceRecorder::registry_mutex_ (src/obs/trace.h)
///   25  RequestTraceStore::mutex_   (src/obs/trace.h) — taken by Offer
///       while a span records; may take MetricsRegistry (40) but never
///       a buffer or queue lock.
///   30  TraceRecorder::ThreadBuffer::mutex (src/obs/trace.cc) —
///       acquired under registry_mutex_ during Export/Reset.
///   35  SloMonitor::mutex_          (src/obs/slo.h) — leaf ring update;
///       callers (RecognitionService) hold no lock when recording.
///   40  MetricsRegistry::mutex_     (src/obs/metrics.h)
///   50  WorkerPool::mutex_          (src/util/parallel.cc) — leaf:
///       guards the pool's job list and per-job bookkeeping; items run
///       unlocked, so whatever an item locks is never nested under it.
///
/// How to annotate a new mutex:
///   1. Decide where it sits in the nesting order relative to the table
///      above (what can be held when it is taken, and what it may take
///      while held). Unrelated mutexes still get distinct ranks — the
///      rank order only binds pairs that actually nest.
///   2. Append `// LOCK_RANK(n)` to its declaration line, update the
///      table here, and re-run `tools/run_checks.sh` (the
///      snor_analyze_tree ctest fails on any inversion or cycle).
///
/// Borrowed-view lifetime annotations (read by the snor_analyze borrow
/// pass — see tools/analyze/borrow_checks.h; DESIGN.md §16):
///
///   SNOR_LIFETIME_BOUND  on (or the line above) a function returning a
///                       view — raw pointer, std::span, string_view or
///                       iterator into owned storage. Declares the
///                       contract "the return value borrows from this
///                       object and dies with it / at the next
///                       generation boundary". Without it, view-shaped
///                       returns are reported as `view-return`
///                       (span/string_view anywhere; pointer/iterator
///                       on OWNS_VIEWS classes).
///   SNOR_OWNS_VIEWS      two roles: on a class-head line it marks the
///                       class as an owner that legitimately hands out
///                       views of its storage (so its pointer/iterator
///                       accessors are held to the LIFETIME_BOUND
///                       contract); on a member declaration line it
///                       sanctions that member as generation-managed
///                       view storage, so stores into it are not
///                       `view-escape` findings. Sanctioned members
///                       carry the burden of generation discipline:
///                       they must be re-derived, not retained, across
///                       any swap/reset/Load* of the data they view.
///
/// Both also work in comment form (`// SNOR_LIFETIME_BOUND`) for
/// declarations where a macro cannot appear (e.g. inside a doc block).
/// The analyzer's kill set — what ends a view's validity — is:
/// swap()/reset()/Load*() on the owner, owner reassignment, std::swap
/// of the owner, any helper in the cross-TU kills-closure, and mutating
/// container methods (push_back/resize/clear/…) for `view-invalidation`.
///
/// The macros below additionally light up clang's static thread-safety
/// analysis (`run_checks.sh --thread-safety`) when the attribute is
/// available; elsewhere they compile away. They are optional — the
/// comment form is what snor_analyze reads.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SNOR_GUARDED_BY(x) __attribute__((guarded_by(x)))
#else
#define SNOR_GUARDED_BY(x)
#endif
#if __has_attribute(acquired_after)
#define SNOR_ACQUIRED_AFTER(...) __attribute__((acquired_after(__VA_ARGS__)))
#else
#define SNOR_ACQUIRED_AFTER(...)
#endif
#else
#define SNOR_GUARDED_BY(x)
#define SNOR_ACQUIRED_AFTER(...)
#endif

// Borrowed-view vocabulary. SNOR_LIFETIME_BOUND maps to clang's
// [[clang::lifetimebound]] where available so the compiler's own
// dangling-reference diagnostics see the same contract snor_analyze
// enforces; SNOR_OWNS_VIEWS is a pure marker (the analyzer reads the
// token, codegen never changes).
#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::lifetimebound)
#define SNOR_LIFETIME_BOUND [[clang::lifetimebound]]
#else
#define SNOR_LIFETIME_BOUND
#endif
#else
#define SNOR_LIFETIME_BOUND
#endif
#define SNOR_OWNS_VIEWS

#endif  // SNOR_UTIL_THREAD_ANNOTATIONS_H_
