// Work-stealing thread pool — the parallel execution substrate for the
// offline-heavy paths (deadline-table builds, experiment batches, sweep
// points).  Design goals, in order:
//
//  1. Deterministic call sites: the pool itself schedules nondeterministically
//     (that is the point), so every user partitions work into
//     index-addressable units and merges results in index order.  The pool
//     offers `parallel_for` for exactly that shape.
//  2. Exception safety: a task that throws never takes a worker down; the
//     exception is rethrown at the submitting call site (`future::get` or the
//     `parallel_for` caller).
//  3. No oversubscription: nested `parallel_for` calls from inside a worker
//     run inline on the calling thread instead of deadlocking on the pool.
//
// Each worker owns a deque; the owner pushes/pops at the back (LIFO, cache
// warm) while idle workers steal from the front (FIFO, oldest first) —
// the classic work-stealing discipline, here with per-deque mutexes rather
// than a lock-free Chase-Lev deque since tasks in this codebase are
// milliseconds, not nanoseconds.
//
// Sleep/wake contract: `pending_` counts queued-but-unclaimed tasks.  A
// producer bumps it before pushing, then passes through `sleep_mutex_`
// (empty critical section) before notifying — that fence makes the
// increment visible to any worker that just evaluated the wait predicate
// and is committing to sleep, so wakeups cannot be lost.  The predicate
// itself is a single atomic load: workers never scan queues (or take queue
// mutexes) while deciding whether to sleep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace seo {

/// Monotonic utilization counters for one pool, snapshotted by `stats()`.
/// Maintained with relaxed atomics: each field is individually exact, but a
/// snapshot taken while tasks are in flight may be internally torn by a
/// task or two — fine for the reporting/diagnosis it exists for.
struct ThreadPoolStats {
  std::uint64_t submitted = 0;   ///< tasks pushed into the pool
  std::uint64_t executed = 0;    ///< tasks run to completion (any thread)
  std::uint64_t steals = 0;      ///< executed tasks taken from a sibling queue
  std::uint64_t inline_runs = 0; ///< executed tasks run by a helping caller
  std::uint64_t max_queue_depth = 0;  ///< high-water mark of pending tasks
  double busy_s = 0.0;           ///< summed wall time spent inside tasks

  /// Fraction of `window_s * workers` spent inside tasks; the utilization
  /// number the CLIs print.  Clamped to [0, 1].
  double busy_fraction(double window_s, std::size_t workers) const;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result.  Exceptions thrown
  /// by `fn` surface at `future::get()`.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Splits [begin, end) into chunks of at most `grain` indices and runs
  /// `fn(chunk_begin, chunk_end)` across the pool, blocking until every
  /// chunk is done.  The first exception thrown by any chunk is rethrown
  /// here.  Called from inside a pool worker (nested parallelism) or with a
  /// single-chunk range, it runs inline on the calling thread.  All chunks
  /// are published with one bulk enqueue (single wake broadcast) rather
  /// than per-chunk lock/notify cycles.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// parallel_for with at most `max_concurrency` chunks — the mechanism
  /// behind every user-facing `threads` knob: tasks submitted round-robin
  /// occupy at most one worker per chunk, so the knob caps effective
  /// concurrency even when the shared pool is larger.  `max_concurrency`
  /// of 0 or 1 runs the whole range inline on the calling thread.
  void parallel_for_capped(
      std::size_t begin, std::size_t end, std::size_t max_concurrency,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// The entry point behind every user-facing `threads` knob: runs the
  /// whole range inline — without instantiating the global pool — when
  /// `max_concurrency` <= 1, otherwise fans out on the global pool via
  /// parallel_for_capped.  Serial callers therefore never pay for idle
  /// worker threads.
  static void run_capped(std::size_t begin, std::size_t end,
                         std::size_t max_concurrency,
                         const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  static bool on_worker_thread();

  /// Process-wide pool, lazily created with `hardware_threads()` workers.
  static ThreadPool& global();

  /// `std::thread::hardware_concurrency()` with a floor of 1.
  static std::size_t hardware_threads();

  /// Maps a user-facing thread knob to a worker count: values >= 1 are taken
  /// literally, 0 (or negative) means "all hardware threads".
  static std::size_t resolve_threads(int requested);

  /// Snapshot of the utilization counters since construction (or the last
  /// `reset_stats()`).
  ThreadPoolStats stats() const;

  /// Zeroes the utilization counters (e.g. at the start of a timed run so
  /// the report covers exactly that run).
  void reset_stats();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  /// Pushes `count` tasks produced by `make(c)` round-robin across the
  /// worker queues, then wakes everyone once.
  void enqueue_bulk(std::size_t count,
                    const std::function<std::function<void()>(std::size_t)>& make);
  void worker_loop(std::size_t worker_index);
  bool try_pop(std::size_t worker_index, std::function<void()>& task);
  void note_submitted(std::size_t count);
  void run_task(std::function<void()>& task, bool inline_help);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> next_queue_{0};  ///< round-robin cursor for submits
  std::atomic<std::size_t> pending_{0};     ///< queued-but-unclaimed tasks
  std::atomic<bool> stop_{false};

  // Utilization counters (relaxed; see ThreadPoolStats).
  std::atomic<std::uint64_t> stat_submitted_{0};
  std::atomic<std::uint64_t> stat_executed_{0};
  std::atomic<std::uint64_t> stat_steals_{0};
  std::atomic<std::uint64_t> stat_inline_runs_{0};
  std::atomic<std::uint64_t> stat_max_depth_{0};
  std::atomic<std::uint64_t> stat_busy_ns_{0};
};

}  // namespace seo
