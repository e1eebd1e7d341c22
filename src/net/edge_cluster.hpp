// Fleet-scale edge cluster: N queueing servers behind one dispatcher.
//
// The single-EdgeServer model (edge_server.hpp) explains response-time
// inflation for one vehicle's burst arrivals; a deployment serves a whole
// fleet from a rack of servers, and two new mechanisms dominate there:
// dispatch policy (which server absorbs a request) and batching (the
// dispatcher holds requests for a short window and runs them as one batched
// inference, amortizing per-invocation overhead at the price of waiting).
//
// The cluster is an offline discrete-event simulation: the caller collects
// an arrival-ordered request trace (the fleet experiment merges every
// vehicle's uplink stream) and `process` resolves batch composition, server
// assignment, queueing and shedding for the whole trace deterministically.
// Offline processing is what makes batching well-defined — a batch's
// composition depends on arrivals later than its first member, so a
// per-request online API could not return completion times at submit.
//
// Boundary tie-breaks (locked by tests/test_edge_cluster.cpp):
//  - A request arriving exactly at the instant a batch window closes joins
//    that closing batch (the window is closed at both ends).
//  - A worker whose busy interval ends exactly at dispatch time is
//    available: the batch starts immediately with zero queue delay, and a
//    batch starting exactly at time t is not part of the backlog at t.
//    Each batch is one EdgeServer::admit call, so this is EdgeServer's
//    rule (edge_server.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/edge_server.hpp"

namespace seo {

/// How the dispatcher maps a ready batch to a server.
enum class DispatchPolicy {
  kRoundRobin,     ///< rotate through servers, ignoring load
  kLeastLoaded,    ///< server whose earliest worker frees first (tie: lowest
                   ///< index), minimizing the batch's start time
  kEarliestSlack,  ///< deadline-aware: the dispatcher gathers the whole
                   ///< batch window, orders pending requests by absolute
                   ///< deadline (earliest slack first) and dispatches them
                   ///< in max_batch chunks — urgent requests get the batch
                   ///< that starts soonest, loose ones queue behind it (or
                   ///< shed first under overload)
};

const char* to_string(DispatchPolicy policy);
/// Parses "round_robin" | "least_loaded" | "earliest_slack"; throws
/// ContractViolation otherwise.
DispatchPolicy dispatch_policy_from_string(const std::string& name);

struct EdgeClusterParams {
  int servers = 4;                  ///< identical servers behind the dispatcher
  EdgeServerParams server{};        ///< per-server workers / service / queue
  DispatchPolicy dispatch = DispatchPolicy::kLeastLoaded;
  /// The dispatcher holds the first pending request up to this long while
  /// later arrivals join the batch.  0 dispatches every request alone
  /// (bit-identical to a no-batching cluster; see tests).
  double batch_window_s = 0.0;
  /// Largest batched inference.  FIFO policies flush early the moment a
  /// batch fills; kEarliestSlack waits for the window close (it must see
  /// the whole window to order by slack) and drains in chunks of this size.
  int max_batch = 8;
  /// Marginal cost of each additional request in a batch, as a fraction of
  /// `server.service_time_s`: a batch of k occupies one worker for
  /// service * (1 + (k-1) * batch_marginal_cost).  1 = no amortization,
  /// 0 = perfect batching.
  double batch_marginal_cost = 0.35;
};

/// One offload request entering the dispatcher (uplink already complete).
struct ClusterRequest {
  std::uint64_t id = 0;        ///< caller-assigned, unique within a trace
  std::size_t vehicle = 0;     ///< originating client (stats / diagnostics)
  double arrival_s = 0.0;      ///< arrival at the dispatcher
  double deadline_s = 1e18;    ///< absolute response deadline (slack policy)
};

/// Resolved fate of one request.
struct ClusterOutcome {
  std::uint64_t id = 0;
  std::size_t vehicle = 0;
  bool admitted = false;       ///< false: shed at the target server's queue
  int server = -1;
  std::size_t batch_size = 0;  ///< admitted co-batch size (incl. this one)
  double arrival_s = 0.0;
  double start_s = 0.0;        ///< batch start on the assigned worker
  double completion_s = 0.0;   ///< batch completion (shared by the batch)
  /// Dispatcher wait + server queueing: start - arrival.
  double queue_delay_s() const { return start_s - arrival_s; }
};

/// Cluster-level aggregates over one processed trace.
struct ClusterStats {
  std::size_t requests = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t batches = 0;          ///< dispatched (non-empty after shedding)
  std::size_t max_batch_seen = 0;
  double max_queue_delay_s = 0.0;
  double makespan_s = 0.0;          ///< last completion (worst round)
  /// Total observed time: one trace's makespan, summed across merges, so
  /// utilization stays a fraction when rounds accumulate.
  double horizon_s = 0.0;
  int workers_per_server = 1;
  std::vector<double> server_busy_s;  ///< per-server total service time

  double mean_batch_size() const {
    return batches > 0 ? static_cast<double>(admitted) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  /// Busy fraction of every worker in the cluster over the observed
  /// horizon (sum of per-trace makespans).
  double utilization() const;
  /// Merges another trace's stats (fleet rounds are independent traces).
  void merge(const ClusterStats& other);
};

/// Deterministic multi-server dispatch/batching simulator over a rack of
/// EdgeServers: the dispatcher decides batch composition and the target
/// server; the server's own admission rule decides start, completion and
/// shedding.  One instance processes one trace; construct fresh per trace.
class EdgeCluster {
 public:
  explicit EdgeCluster(EdgeClusterParams params);

  const EdgeClusterParams& params() const { return params_; }

  /// Resolves the whole trace.  `requests` must be sorted by
  /// nondecreasing `arrival_s` (ties in any order — the caller's order is
  /// preserved and is part of the deterministic contract).  Outcomes are
  /// returned in input order.  Throws ContractViolation on out-of-order
  /// arrivals or duplicate ids.
  std::vector<ClusterOutcome> process(
      const std::vector<ClusterRequest>& requests);

  /// Stats of the last `process` call.
  const ClusterStats& stats() const { return stats_; }

 private:
  int pick_server() const;
  /// Drains the whole pending set (indices into `requests`) at
  /// `ready_time`: policy-ordered, then dispatched in max_batch chunks.
  void flush_pending(const std::vector<ClusterRequest>& requests,
                     std::vector<std::size_t>& pending, double ready_time,
                     std::vector<ClusterOutcome>& outcomes);
  /// Places one batch on a server, writing each member's outcome slot.
  void dispatch_batch(const std::vector<std::size_t>& batch,
                      double ready_time,
                      std::vector<ClusterOutcome>& outcomes);

  EdgeClusterParams params_;
  std::vector<EdgeServer> servers_;
  std::size_t round_robin_next_ = 0;
  bool processed_ = false;
  ClusterStats stats_;
};

}  // namespace seo
