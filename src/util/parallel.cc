#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace snor {
namespace {

// True on pool threads: a ParallelFor issued from inside an item runs
// inline, so a nested call never waits for the workers it occupies.
thread_local bool tls_pool_worker = false;

/// One ParallelFor call. It lives in the caller's frame, which waits
/// until no worker holds it any more.
struct Job {
  Job(std::size_t n_in, const std::function<void(std::size_t)>& fn_in,
      int helpers)
      : fn(fn_in),
        n(n_in),
        context(obs::CurrentTraceContext()),
        posted(std::chrono::steady_clock::now()),
        open_slots(helpers) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  // Workers inherit the caller's request scope so spans they record stay
  // on the request's causal chain across the thread hop (per-index work
  // may still install a more specific context of its own).
  const obs::TraceContext context;
  const std::chrono::steady_clock::time_point posted;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Workers that may still join.
  int open_slots;  // GUARDED_BY(WorkerPool::mutex_)
  // Workers that joined and have not yet left.
  int running = 0;  // GUARDED_BY(WorkerPool::mutex_)
  std::exception_ptr first_error;  // GUARDED_BY(WorkerPool::mutex_)
  std::condition_variable finished;
};

class WorkerPool {
 public:
  /// The process-wide pool, created on first use and never destroyed:
  /// its workers stay parked on `work_available_` until the process
  /// exits, so no static destructor may tear that down under them.
  static WorkerPool& Global() {
    // NOLINTNEXTLINE(raw-new-delete): intentional leaky singleton.
    static WorkerPool* const pool = new WorkerPool(DefaultThreadCount());
    return *pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Posts `job`, wakes `helpers` workers, and waits until every worker
  /// that joined has left it. Rethrows the job's first exception.
  void Run(Job& job, int helpers) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_jobs_.push_back(&job);
    }
    // One wake per wanted helper: a busy worker re-checks open_jobs_
    // before it parks again, so a wake that finds nobody idle is not lost.
    for (int k = 0; k < helpers; ++k) work_available_.notify_one();
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job.finished.wait(lock, [&job] {
        return job.open_slots == 0 && job.running == 0;
      });
      error = job.first_error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  explicit WorkerPool(int n_threads) {
    threads_.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) {
      try {
        threads_.emplace_back([this] { WorkerLoop(); });
      } catch (const std::system_error&) {
        break;  // Out of threads: serve with those started (0 = inline).
      }
    }
  }

  void WorkerLoop() {
    tls_pool_worker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_available_.wait(lock, [this] { return !open_jobs_.empty(); });
      Job& job = *open_jobs_.front();
      if (--job.open_slots == 0) open_jobs_.pop_front();
      ++job.running;
      lock.unlock();
      const std::exception_ptr error = RunItems(job);
      lock.lock();
      if (error && !job.first_error) job.first_error = error;
      // RunItems returns only once every index is handed out (or the job
      // failed), so a worker joining later would find nothing to do.
      if (job.open_slots > 0) {
        job.open_slots = 0;
        open_jobs_.erase(
            std::find(open_jobs_.begin(), open_jobs_.end(), &job));
      }
      // Notified under the lock: once the caller sees the job finished
      // it returns and destroys it, condvar included.
      if (--job.running == 0) job.finished.notify_one();
    }
  }

  /// Claims and runs indices until none are left or one throws; returns
  /// the exception, if any. A throwing item must not terminate the
  /// process, so it is captured and new indices stop being handed out.
  static std::exception_ptr RunItems(Job& job) {
    static obs::Histogram& queue_wait_us =
        obs::MetricsRegistry::Global().histogram(
            "util.parallel.queue_wait_us");
    // Time from the job's posting to this worker picking it up: the
    // wake-up latency of the pool.
    queue_wait_us.Record(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - job.posted)
                             .count());
    obs::ScopedTraceContext worker_context(job.context);
    SNOR_TRACE_SPAN("util.parallel.worker");
    for (;;) {
      if (job.failed.load(std::memory_order_acquire)) return nullptr;
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return nullptr;
      try {
        MaybeInjectDelay();
        job.fn(i);
      } catch (...) {
        job.failed.store(true, std::memory_order_release);
        // Drain the remaining indices so peers leave promptly.
        job.next.store(job.n, std::memory_order_relaxed);
        return std::current_exception();
      }
    }
  }

  std::mutex mutex_;  // LOCK_RANK(50): leaf, never nests another lock.
  std::condition_variable work_available_;
  // Jobs some worker may still join, oldest first.
  std::deque<Job*> open_jobs_;  // GUARDED_BY(mutex_)
  // Declared last: workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int n_threads) {
  if (n == 0) return;
  SNOR_TRACE_SPAN("util.parallel.for");
  static obs::Counter& items_counter =
      obs::MetricsRegistry::Global().counter("util.parallel.items");
  items_counter.Increment(n);
  if (n_threads <= 0) n_threads = DefaultThreadCount();
  int helpers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(n_threads), n));
  // The pool is created only by a call that can use it.
  if (helpers > 1 && !tls_pool_worker) {
    helpers = std::min(helpers, WorkerPool::Global().size());
  }

  if (helpers <= 1 || tls_pool_worker) {
    // Inline on the caller: identical results, and exceptions propagate
    // to the caller directly.
    for (std::size_t i = 0; i < n; ++i) {
      MaybeInjectDelay();
      fn(i);
    }
    return;
  }

  static obs::Gauge& workers_gauge =
      obs::MetricsRegistry::Global().gauge("util.parallel.workers");
  workers_gauge.Set(static_cast<double>(helpers));
  Job job(n, fn, helpers);
  WorkerPool::Global().Run(job, helpers);
}

}  // namespace snor
