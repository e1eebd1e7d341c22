// Thread pool — the parallel execution substrate for the offline-heavy
// paths (sweep runners, fleet episode slots, deadline-table slabs).
//
// Every fan-out is one `run_capped(begin, end, k, fn)` call that splits the
// range into at most k contiguous chunks, so tasks are few and long
// (milliseconds to seconds).  At that size a fixed set of workers draining
// one FIFO queue under one mutex and one condition variable is all the
// scheduling the codebase needs.  Contract:
//
//  1. Deterministic call sites: chunks run in no fixed order or thread, so
//     every caller writes index-addressed results and merges them in index
//     order.
//  2. Exception safety: a chunk that throws never takes a worker down; the
//     first exception is rethrown at the run_capped caller once every chunk
//     of that call has finished.
//  3. No oversubscription and no self-deadlock: a run_capped from inside a
//     running chunk runs inline, and a waiting caller runs queued chunks
//     (its own or another caller's) instead of idling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace seo {

/// Utilization counters for one pool, snapshotted by `stats()`.  Only
/// queued chunks count; a range run inline is not a task.  Every counter of
/// a call is recorded before its run_capped returns.
struct ThreadPoolStats {
  std::uint64_t submitted = 0;   ///< chunks pushed onto the queue
  std::uint64_t executed = 0;    ///< queued chunks run to completion
  std::uint64_t steals = 0;      ///< always 0: one shared queue
  std::uint64_t inline_runs = 0; ///< queued chunks run by a waiting caller
  std::uint64_t max_queue_depth = 0;  ///< high-water mark of queued chunks
  double busy_s = 0.0;           ///< summed wall time spent inside chunks

  /// Fraction of `window_s * workers` spent inside chunks; the utilization
  /// number the CLIs print.  Clamped to [0, 1].
  double busy_fraction(double window_s, std::size_t workers) const;
};

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The entry point behind every user-facing `threads` knob: splits
  /// [begin, end) into at most `max_concurrency` contiguous chunks of
  /// ceil(count / max_concurrency) indices, runs `fn(chunk_begin,
  /// chunk_end)` for each on the global pool and blocks until all are done,
  /// rethrowing the first exception any chunk threw.  Runs the whole range
  /// inline on the calling thread when `max_concurrency` <= 1, the range is
  /// one chunk, the caller is already running a pool chunk, or the pool has
  /// one worker; the first two never create the global pool.
  static void run_capped(std::size_t begin, std::size_t end,
                         std::size_t max_concurrency, const RangeFn& fn);

  /// Process-wide pool, lazily created with `hardware_threads()` workers.
  static ThreadPool& global();

  /// `std::thread::hardware_concurrency()` with a floor of 1.
  static std::size_t hardware_threads();

  /// Maps a user-facing thread knob to a worker count: 0 means "all
  /// hardware threads", n >= 1 is taken literally.  A negative knob is a
  /// contract violation.
  static std::size_t resolve_threads(int requested);

  /// Snapshot of the utilization counters since construction (or the last
  /// `reset_stats()`).
  ThreadPoolStats stats() const;

  /// Zeroes the utilization counters (e.g. at the start of a timed run so
  /// the report covers exactly that run).
  void reset_stats();

 private:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Queues the chunks of [begin, end) of `grain` indices each and helps
  /// run queued chunks until all of them have finished.
  void fan_out(std::size_t begin, std::size_t end, std::size_t grain,
               const RangeFn& fn);
  void worker_loop();

  mutable std::mutex mutex_;
  /// Signalled when chunks are queued, when a fan_out's last chunk
  /// finishes, and on shutdown.
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  ThreadPoolStats stats_;                    // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
  std::vector<std::thread> workers_;  // last: workers use the members above
};

}  // namespace seo
