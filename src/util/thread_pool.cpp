#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/expect.hpp"

namespace seo {

namespace {
/// Set while a thread runs a pool chunk; a run_capped from inside one runs
/// inline (queueing would wait on the pool from within the pool).
thread_local bool t_in_chunk = false;
}  // namespace

double ThreadPoolStats::busy_fraction(double window_s,
                                      std::size_t workers) const {
  if (window_s <= 0.0 || workers == 0) return 0.0;
  const double capacity = window_s * static_cast<double>(workers);
  return std::clamp(busy_s / capacity, 0.0, 1.0);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(threads, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

void ThreadPool::fan_out(std::size_t begin, std::size_t end, std::size_t grain,
                         const RangeFn& fn) {
  // Completion state of this call, guarded by mutex_.  It lives on this
  // frame: the wait below returns only once `remaining` is 0, and a chunk
  // touches it last under the lock that decrement is made in.
  struct Join {
    std::size_t remaining = 0;
    std::exception_ptr error;
  } join;

  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t lo = begin; lo < end;) {
    const std::size_t hi = lo + std::min(grain, end - lo);
    queue_.push_back([this, &join, &fn, lo, hi] {
      const auto t0 = std::chrono::steady_clock::now();
      std::exception_ptr error;
      t_in_chunk = true;
      try {
        fn(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      t_in_chunk = false;
      const std::chrono::duration<double> busy =
          std::chrono::steady_clock::now() - t0;
      bool joined = false;
      {
        std::lock_guard<std::mutex> chunk_lock(mutex_);
        ++stats_.executed;
        stats_.busy_s += busy.count();
        if (error && !join.error) join.error = error;
        joined = --join.remaining == 0;
      }
      if (joined) wake_.notify_all();
    });
    ++join.remaining;
    lo = hi;
  }
  stats_.submitted += join.remaining;
  stats_.max_queue_depth =
      std::max<std::uint64_t>(stats_.max_queue_depth, queue_.size());
  lock.unlock();
  wake_.notify_all();

  // Help while waiting: run whatever is queued, this call's chunks or
  // another caller's, so the caller works instead of idling.
  lock.lock();
  for (;;) {
    wake_.wait(lock, [&] { return join.remaining == 0 || !queue_.empty(); });
    if (join.remaining == 0) break;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.inline_runs;
    lock.unlock();
    task();
    lock.lock();
  }
  if (join.error) std::rethrow_exception(join.error);
}

void ThreadPool::run_capped(std::size_t begin, std::size_t end,
                            std::size_t max_concurrency, const RangeFn& fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t chunks = std::min(count, max_concurrency);
  if (chunks <= 1 || t_in_chunk || global().size() <= 1) {
    fn(begin, end);
    return;
  }
  global().fan_out(begin, end, (count + chunks - 1) / chunks, fn);
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ThreadPool::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = ThreadPoolStats{};
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t ThreadPool::resolve_threads(int requested) {
  SEO_EXPECT(requested >= 0);
  if (requested == 0) return hardware_threads();
  return static_cast<std::size_t>(requested);
}

}  // namespace seo
