#include "net/edge_cluster.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "util/expect.hpp"

namespace seo {

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round_robin";
    case DispatchPolicy::kLeastLoaded: return "least_loaded";
    case DispatchPolicy::kEarliestSlack: return "earliest_slack";
  }
  SEO_ASSERT(false);
  return "?";
}

DispatchPolicy dispatch_policy_from_string(const std::string& name) {
  if (name == "round_robin") return DispatchPolicy::kRoundRobin;
  if (name == "least_loaded") return DispatchPolicy::kLeastLoaded;
  if (name == "earliest_slack") return DispatchPolicy::kEarliestSlack;
  throw ContractViolation("unknown dispatch policy: " + name +
                          " (round_robin|least_loaded|earliest_slack)");
}

double ClusterStats::utilization() const {
  if (horizon_s <= 0.0 || server_busy_s.empty()) return 0.0;
  double busy = 0.0;
  for (const double b : server_busy_s) busy += b;
  return busy / (static_cast<double>(server_busy_s.size()) *
                 static_cast<double>(workers_per_server) * horizon_s);
}

void ClusterStats::merge(const ClusterStats& other) {
  requests += other.requests;
  admitted += other.admitted;
  shed += other.shed;
  batches += other.batches;
  max_batch_seen = std::max(max_batch_seen, other.max_batch_seen);
  max_queue_delay_s = std::max(max_queue_delay_s, other.max_queue_delay_s);
  makespan_s = std::max(makespan_s, other.makespan_s);
  horizon_s += other.horizon_s;  // traces observe disjoint time
  workers_per_server = std::max(workers_per_server, other.workers_per_server);
  if (server_busy_s.size() < other.server_busy_s.size())
    server_busy_s.resize(other.server_busy_s.size(), 0.0);
  for (std::size_t i = 0; i < other.server_busy_s.size(); ++i)
    server_busy_s[i] += other.server_busy_s[i];
}

EdgeCluster::EdgeCluster(EdgeClusterParams params) : params_(params) {
  SEO_EXPECT(params_.servers >= 1);
  SEO_EXPECT(params_.batch_window_s >= 0.0);
  SEO_EXPECT(params_.max_batch >= 1);
  SEO_EXPECT(params_.batch_marginal_cost >= 0.0 &&
             params_.batch_marginal_cost <= 1.0);
  servers_.assign(static_cast<std::size_t>(params_.servers),
                  EdgeServer(params_.server));
  stats_.server_busy_s.assign(static_cast<std::size_t>(params_.servers), 0.0);
  stats_.workers_per_server = params_.server.parallelism;
}

int EdgeCluster::pick_server() const {
  if (params_.dispatch == DispatchPolicy::kRoundRobin) {
    return static_cast<int>(round_robin_next_ % servers_.size());
  }
  // kLeastLoaded and kEarliestSlack both place the batch where it starts
  // soonest: the server whose earliest worker frees first (ties break to
  // the lowest index, keeping the choice deterministic).
  std::size_t best = 0;
  double best_free = servers_[0].earliest_free();
  for (std::size_t s = 1; s < servers_.size(); ++s) {
    const double free_at = servers_[s].earliest_free();
    if (free_at < best_free) {
      best_free = free_at;
      best = s;
    }
  }
  return static_cast<int>(best);
}

void EdgeCluster::flush_pending(const std::vector<ClusterRequest>& requests,
                                std::vector<std::size_t>& pending,
                                double ready_time,
                                std::vector<ClusterOutcome>& outcomes) {
  SEO_ASSERT(!pending.empty());

  // Deadline-aware dispatch serves the pending set earliest-slack-first:
  // the most urgent requests form the first chunk (which starts soonest),
  // the loosest deadlines fall into later chunks that queue behind it — or
  // shed when the rack is full, which is exactly the right thing to drop.
  // stable_sort keeps equal deadlines in arrival order, so the reordering
  // is deterministic.
  if (params_.dispatch == DispatchPolicy::kEarliestSlack) {
    std::stable_sort(pending.begin(), pending.end(),
                     [&](std::size_t a, std::size_t b) {
                       return requests[a].deadline_s < requests[b].deadline_s;
                     });
  }

  // Dispatch chunks of at most max_batch back-to-back at ready_time; FIFO
  // policies arrive here with at most max_batch pending (they flush on
  // fill), the slack policy may drain several chunks at one window close.
  std::vector<std::size_t> batch;
  while (!pending.empty()) {
    const std::size_t take = std::min(
        pending.size(), static_cast<std::size_t>(params_.max_batch));
    batch.assign(pending.begin(),
                 pending.begin() + static_cast<std::ptrdiff_t>(take));
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(take));
    dispatch_batch(batch, ready_time, outcomes);
  }
}

void EdgeCluster::dispatch_batch(const std::vector<std::size_t>& batch,
                                 double ready_time,
                                 std::vector<ClusterOutcome>& outcomes) {
  SEO_ASSERT(!batch.empty());
  const int server_index = pick_server();
  if (params_.dispatch == DispatchPolicy::kRoundRobin) ++round_robin_next_;

  // A batch is one batched inference job, admitted or shed whole by the
  // target server's own admission rule (queue_capacity counts queued
  // batches).  With batch_window 0 and one server the cluster is therefore
  // exactly the EdgeServer model (locked by tests/test_edge_cluster.cpp).
  const double service =
      params_.server.service_time_s *
      (1.0 + static_cast<double>(batch.size() - 1) *
                 params_.batch_marginal_cost);
  const std::optional<EdgeServer::Slot> slot =
      servers_[static_cast<std::size_t>(server_index)].admit(ready_time,
                                                            service);
  if (!slot) {  // outcomes start not admitted
    for (const std::size_t i : batch) outcomes[i].server = server_index;
    stats_.shed += batch.size();
    return;
  }

  stats_.admitted += batch.size();
  ++stats_.batches;
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, batch.size());
  stats_.makespan_s = std::max(stats_.makespan_s, slot->completion);
  stats_.server_busy_s[static_cast<std::size_t>(server_index)] += service;
  for (const std::size_t i : batch) {
    ClusterOutcome& out = outcomes[i];
    out.admitted = true;
    out.server = server_index;
    out.batch_size = batch.size();
    out.start_s = slot->start;
    out.completion_s = slot->completion;
    stats_.max_queue_delay_s =
        std::max(stats_.max_queue_delay_s, slot->start - out.arrival_s);
  }
}

std::vector<ClusterOutcome> EdgeCluster::process(
    const std::vector<ClusterRequest>& requests) {
  SEO_EXPECT(!processed_);  // one trace per instance: construct fresh
  processed_ = true;

  std::unordered_set<std::uint64_t> ids;
  ids.reserve(requests.size());
  double last_arrival = 0.0;
  for (const auto& r : requests) {
    SEO_EXPECT(r.arrival_s >= 0.0);
    if (r.arrival_s < last_arrival)
      throw ContractViolation(
          "EdgeCluster::process requires arrival-ordered requests");
    last_arrival = r.arrival_s;
    if (!ids.insert(r.id).second)
      throw ContractViolation("duplicate ClusterRequest id");
  }

  std::vector<ClusterOutcome> outcomes(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    outcomes[i].id = requests[i].id;
    outcomes[i].vehicle = requests[i].vehicle;
    outcomes[i].arrival_s = requests[i].arrival_s;
  }
  stats_.requests = requests.size();

  // FIFO policies flush a batch the moment it fills; the deadline-aware
  // policy must see the whole window before it can order by slack, so it
  // only flushes at window close (and then drains in max_batch chunks).
  const bool flush_on_fill =
      params_.dispatch != DispatchPolicy::kEarliestSlack;

  std::vector<std::size_t> pending;
  double window_close = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ClusterRequest& r = requests[i];
    // A pending batch flushes at its window close; a request arriving
    // exactly at the close instant still joins it (closed window — the
    // documented tie-break).
    if (!pending.empty() && r.arrival_s > window_close)
      flush_pending(requests, pending, window_close, outcomes);
    if (pending.empty()) window_close = r.arrival_s + params_.batch_window_s;
    pending.push_back(i);
    // Window 0 means "no batching": every request dispatches alone at its
    // own arrival, even when another request lands at the same instant.
    if (params_.batch_window_s == 0.0 ||
        (flush_on_fill &&
         pending.size() >= static_cast<std::size_t>(params_.max_batch)))
      flush_pending(requests, pending, r.arrival_s, outcomes);
  }
  if (!pending.empty())
    flush_pending(requests, pending, window_close, outcomes);
  stats_.horizon_s = stats_.makespan_s;  // one trace: horizon == makespan
  return outcomes;
}

}  // namespace seo
