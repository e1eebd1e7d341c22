// Edge-server compute model with queueing.
//
// The paper treats server response time as part of the stochastic
// round-trip; this module makes the server side explicit: a small pool of
// workers with deterministic per-inference service time and a bounded FIFO
// queue.  Burst arrivals (multiple pipelines offloading in the same base
// period) serialize on the workers, which is the mechanism behind
// response-time inflation at scale — and a second reason (besides fading)
// why the delta-hat estimator must stay conservative.
//
// This is the one queueing server in the tree: OffloadLink submits single
// inferences to it, and EdgeCluster (edge_cluster.hpp) holds a rack of them
// and admits each batched inference as one job with its own service time.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace seo {

struct EdgeServerParams {
  double service_time_s = 0.005;  ///< per-inference time on the server GPU
  int parallelism = 2;            ///< concurrent inference workers
  std::size_t queue_capacity = 32;  ///< pending jobs beyond the workers
};

/// Deterministic multi-worker queueing model.  Jobs are admitted in
/// submission order; each runs on the earliest-available worker.
/// Admission fails (overload shedding) when, at the instant of arrival, all
/// workers are busy and `queue_capacity` jobs are already waiting.
/// Arrivals need not be monotone (OffloadLink submits uplink ends, which
/// reorder under random transmit times).
///
/// Boundary tie-break (locked by tests/test_net and tests/test_edge_cluster):
/// service intervals are half-open [start, completion).  A worker whose
/// busy interval ends exactly at the arrival instant is therefore free —
/// the job starts immediately with zero queue delay and consumes no queue
/// slot — and a job starting exactly at time t is running, not queued, so
/// backlog(t) excludes it.  Both checks use the same strict comparison, so
/// a request landing exactly on a service-completion boundary can never be
/// shed while a worker sits idle.
class EdgeServer {
 public:
  /// Where an admitted job runs.
  struct Slot {
    double start = 0.0;
    double completion = 0.0;
  };

  explicit EdgeServer(EdgeServerParams params = {});

  const EdgeServerParams& params() const { return params_; }

  /// Admits a job arriving at `arrival_s` that occupies one worker for
  /// `service_s`; returns its slot, or nullopt if the queue is full.
  std::optional<Slot> admit(double arrival_s, double service_s);

  /// `admit` with the configured service time; returns the completion
  /// time, or nullopt if the queue is full (the client must fall back
  /// locally).
  std::optional<double> submit(double arrival_time);

  /// Jobs admitted / rejected so far.
  std::size_t admitted() const { return admitted_; }
  std::size_t rejected() const { return rejected_; }

  /// Number of jobs that would be queued (not yet started) at `time`.
  /// A job starting exactly at `time` is running, not queued.
  std::size_t backlog(double time) const;

  /// Instant the earliest worker frees up.
  double earliest_free() const;

  /// Worst queueing delay (start - arrival) observed so far.
  double max_queue_delay() const { return max_queue_delay_; }

 private:
  EdgeServerParams params_;
  std::vector<double> worker_busy_until_;
  std::vector<double> start_times_;  ///< admitted jobs' starts, sorted
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  double max_queue_delay_ = 0.0;
};

}  // namespace seo
