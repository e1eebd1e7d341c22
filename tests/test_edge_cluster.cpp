// EdgeCluster tests: dispatch policies, batching semantics (including the
// window-close tie-break and the window=0 == no-batching guarantee),
// admission/shedding, and determinism.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "net/edge_cluster.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

EdgeClusterParams small_cluster() {
  EdgeClusterParams params;
  params.servers = 2;
  params.server.service_time_s = 0.010;
  params.server.parallelism = 1;
  params.server.queue_capacity = 4;
  params.dispatch = DispatchPolicy::kLeastLoaded;
  params.batch_window_s = 0.0;
  params.max_batch = 8;
  params.batch_marginal_cost = 0.5;
  return params;
}

ClusterRequest request(std::uint64_t id, double arrival,
                       double deadline = 1e18, std::size_t vehicle = 0) {
  ClusterRequest r;
  r.id = id;
  r.vehicle = vehicle;
  r.arrival_s = arrival;
  r.deadline_s = deadline;
  return r;
}

// --- Policy plumbing --------------------------------------------------------

TEST(DispatchPolicy, StringRoundTrip) {
  for (const DispatchPolicy p :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kEarliestSlack}) {
    EXPECT_EQ(dispatch_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(dispatch_policy_from_string("warp_dispatch"),
               ContractViolation);
}

TEST(EdgeCluster, RejectsBadConfig) {
  EdgeClusterParams params = small_cluster();
  params.servers = 0;
  EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
  params = small_cluster();
  params.batch_window_s = -1.0;
  EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
  params = small_cluster();
  params.max_batch = 0;
  EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
  params = small_cluster();
  params.batch_marginal_cost = 1.5;
  EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
  // Per-server settings are the servers' own contract.
  params = small_cluster();
  params.server.service_time_s = 0.0;
  EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    params = small_cluster();
    params.server.service_time_s = bad;
    EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
  }
  params = small_cluster();
  params.server.parallelism = 0;
  EXPECT_THROW(EdgeCluster cluster(params), ContractViolation);
}

TEST(EdgeCluster, RejectsUnorderedArrivalsAndDuplicateIds) {
  {
    EdgeCluster cluster(small_cluster());
    EXPECT_THROW(cluster.process({request(0, 0.5), request(1, 0.4)}),
                 ContractViolation);
  }
  {
    EdgeCluster cluster(small_cluster());
    EXPECT_THROW(cluster.process({request(7, 0.1), request(7, 0.2)}),
                 ContractViolation);
  }
}

// --- Dispatch policies ------------------------------------------------------

TEST(EdgeCluster, RoundRobinRotatesThroughServers) {
  EdgeClusterParams params = small_cluster();
  params.servers = 3;
  params.dispatch = DispatchPolicy::kRoundRobin;
  EdgeCluster cluster(params);
  const auto outcomes = cluster.process(
      {request(0, 0.0), request(1, 0.0), request(2, 0.0), request(3, 0.0)});
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].server, 0);
  EXPECT_EQ(outcomes[1].server, 1);
  EXPECT_EQ(outcomes[2].server, 2);
  EXPECT_EQ(outcomes[3].server, 0);  // wraps, stacking load blindly
  // The wrapped request queues behind request 0 on server 0.
  EXPECT_DOUBLE_EQ(outcomes[3].start_s, outcomes[0].completion_s);
}

TEST(EdgeCluster, LeastLoadedPicksEarliestFreeWorkerTieLowestIndex) {
  EdgeCluster cluster(small_cluster());  // 2 idle servers
  const auto outcomes = cluster.process(
      {request(0, 0.0), request(1, 0.0), request(2, 0.0)});
  // Idle tie breaks to server 0; the second request lands on idle server 1;
  // the third queues on whichever frees first (tie again -> server 0).
  EXPECT_EQ(outcomes[0].server, 0);
  EXPECT_EQ(outcomes[1].server, 1);
  EXPECT_EQ(outcomes[2].server, 0);
  EXPECT_DOUBLE_EQ(outcomes[2].start_s, outcomes[0].completion_s);
}

TEST(EdgeCluster, EarliestSlackOrdersBatchByDeadline) {
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.dispatch = DispatchPolicy::kEarliestSlack;
  params.batch_window_s = 0.005;
  params.max_batch = 2;  // splits the three requests into two batches
  EdgeCluster cluster(params);
  // Request 2 has the tightest deadline but arrives last in the window; the
  // slack-aware dispatcher moves it into the first (earlier) batch.
  const auto outcomes = cluster.process({request(0, 0.000, /*deadline=*/0.9),
                                         request(1, 0.001, /*deadline=*/0.5),
                                         request(2, 0.002, /*deadline=*/0.1)});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[2].batch_size, 2u);  // urgent request made the batch
  EXPECT_EQ(outcomes[1].batch_size, 2u);
  EXPECT_EQ(outcomes[0].batch_size, 1u);  // loosest deadline overflowed
  EXPECT_LT(outcomes[2].completion_s, outcomes[0].completion_s);
}

TEST(EdgeCluster, PoliciesProduceIdenticalRunsForIdenticalInput) {
  for (const DispatchPolicy policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kEarliestSlack}) {
    EdgeClusterParams params = small_cluster();
    params.dispatch = policy;
    params.batch_window_s = 0.003;
    std::vector<ClusterRequest> trace;
    for (int i = 0; i < 40; ++i)
      trace.push_back(request(static_cast<std::uint64_t>(i), 0.001 * i,
                              0.001 * i + 0.05, static_cast<std::size_t>(i % 5)));
    EdgeCluster a(params), b(params);
    const auto ra = a.process(trace);
    const auto rb = b.process(trace);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].server, rb[i].server) << to_string(policy);
      EXPECT_EQ(ra[i].admitted, rb[i].admitted);
      EXPECT_EQ(ra[i].batch_size, rb[i].batch_size);
      EXPECT_EQ(ra[i].start_s, rb[i].start_s);          // bit-identical
      EXPECT_EQ(ra[i].completion_s, rb[i].completion_s);
    }
    EXPECT_EQ(a.stats().batches, b.stats().batches);
    EXPECT_EQ(a.stats().shed, b.stats().shed);
  }
}

// --- Batching ---------------------------------------------------------------

TEST(EdgeCluster, WindowCollectsRequestsIntoOneAmortizedBatch) {
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.batch_window_s = 0.005;
  params.batch_marginal_cost = 0.5;
  EdgeCluster cluster(params);
  const auto outcomes = cluster.process(
      {request(0, 0.000), request(1, 0.002), request(2, 0.004)});
  // One batch of 3, dispatched at window close (0.005): service is
  // 10 ms * (1 + 2 * 0.5) = 20 ms, not 3 x 10 ms.
  for (const auto& out : outcomes) {
    EXPECT_TRUE(out.admitted);
    EXPECT_EQ(out.batch_size, 3u);
    EXPECT_DOUBLE_EQ(out.start_s, 0.005);
    EXPECT_DOUBLE_EQ(out.completion_s, 0.025);
  }
  EXPECT_EQ(cluster.stats().batches, 1u);
  EXPECT_DOUBLE_EQ(cluster.stats().mean_batch_size(), 3.0);
  // Queue delay includes the dispatcher wait: first request waited 5 ms.
  EXPECT_DOUBLE_EQ(cluster.stats().max_queue_delay_s, 0.005);
}

TEST(EdgeCluster, ArrivalExactlyAtWindowCloseJoinsTheBatch) {
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.batch_window_s = 0.005;
  {
    EdgeCluster cluster(params);
    // 0.005 == window close of the batch opened at 0: joins (closed window).
    const auto outcomes =
        cluster.process({request(0, 0.0), request(1, 0.005)});
    EXPECT_EQ(outcomes[0].batch_size, 2u);
    EXPECT_EQ(outcomes[1].batch_size, 2u);
    EXPECT_EQ(cluster.stats().batches, 1u);
  }
  {
    EdgeCluster cluster(params);
    // Epsilon past the close: the batch flushes first, alone.
    const auto outcomes =
        cluster.process({request(0, 0.0), request(1, 0.005 + 1e-9)});
    EXPECT_EQ(outcomes[0].batch_size, 1u);
    EXPECT_EQ(outcomes[1].batch_size, 1u);
    EXPECT_EQ(cluster.stats().batches, 2u);
  }
}

TEST(EdgeCluster, MaxBatchFlushesEarly) {
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.batch_window_s = 0.010;
  params.max_batch = 2;
  EdgeCluster cluster(params);
  const auto outcomes = cluster.process(
      {request(0, 0.000), request(1, 0.001), request(2, 0.002)});
  // The first two flush at 0.001 (batch full); the third opens a new batch.
  EXPECT_EQ(outcomes[0].batch_size, 2u);
  EXPECT_DOUBLE_EQ(outcomes[0].start_s, 0.001);
  EXPECT_EQ(outcomes[2].batch_size, 1u);
  EXPECT_EQ(cluster.stats().batches, 2u);
}

TEST(EdgeCluster, ZeroWindowEqualsNoBatchingEvenForSimultaneousArrivals) {
  // window=0 must dispatch every request alone — including two requests
  // landing at the same instant — and therefore match a max_batch=1
  // cluster outcome-for-outcome, bit for bit.
  std::vector<ClusterRequest> trace;
  for (int i = 0; i < 30; ++i)
    trace.push_back(request(static_cast<std::uint64_t>(i),
                            0.0015 * (i / 2),  // pairs share an arrival
                            0.0015 * (i / 2) + 0.04));
  EdgeClusterParams zero_window = small_cluster();
  zero_window.batch_window_s = 0.0;
  zero_window.max_batch = 8;
  EdgeClusterParams single = small_cluster();
  single.batch_window_s = 0.010;  // window present, but batches capped at 1
  single.max_batch = 1;

  EdgeCluster a(zero_window), b(single);
  const auto ra = a.process(trace);
  const auto rb = b.process(trace);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].admitted, rb[i].admitted);
    if (ra[i].admitted) EXPECT_EQ(ra[i].batch_size, 1u);
    EXPECT_EQ(ra[i].server, rb[i].server);
    EXPECT_EQ(ra[i].start_s, rb[i].start_s);
    EXPECT_EQ(ra[i].completion_s, rb[i].completion_s);
  }
  EXPECT_EQ(a.stats().batches, b.stats().batches);
  EXPECT_EQ(a.stats().shed, b.stats().shed);
}

TEST(EdgeCluster, SingleServerZeroWindowMatchesEdgeServerModel) {
  // With one server and no batching the cluster must reduce to the plain
  // EdgeServer queueing model, tie-breaks and shedding included.
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.server.parallelism = 2;
  params.server.queue_capacity = 1;
  params.batch_window_s = 0.0;

  const double arrivals[] = {0.0, 0.001, 0.002, 0.003, 0.010, 0.020};
  EdgeCluster cluster(params);
  std::vector<ClusterRequest> trace;
  for (std::size_t i = 0; i < std::size(arrivals); ++i)
    trace.push_back(request(static_cast<std::uint64_t>(i), arrivals[i]));
  const auto outcomes = cluster.process(trace);

  EdgeServer reference(params.server);
  for (std::size_t i = 0; i < std::size(arrivals); ++i) {
    const auto completion = reference.submit(arrivals[i]);
    EXPECT_EQ(outcomes[i].admitted, completion.has_value()) << i;
    if (completion.has_value())
      EXPECT_DOUBLE_EQ(outcomes[i].completion_s, *completion) << i;
  }
  EXPECT_EQ(cluster.stats().shed, reference.rejected());
}

// --- Admission / shedding ---------------------------------------------------

TEST(EdgeCluster, ShedsWholeBatchWhenTargetQueueIsFull) {
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.server.parallelism = 1;
  params.server.queue_capacity = 1;
  params.batch_window_s = 0.0;
  EdgeCluster cluster(params);
  const auto outcomes = cluster.process(
      {request(0, 0.0), request(1, 0.001), request(2, 0.002)});
  EXPECT_TRUE(outcomes[0].admitted);   // running
  EXPECT_TRUE(outcomes[1].admitted);   // queued (capacity 1)
  EXPECT_FALSE(outcomes[2].admitted);  // shed
  EXPECT_EQ(outcomes[2].server, 0);    // the server it was headed for
  EXPECT_EQ(cluster.stats().shed, 1u);
  EXPECT_EQ(cluster.stats().admitted, 2u);
}

TEST(EdgeCluster, BatchStartingAtDispatchInstantIsNotBacklog) {
  // Request 1 queues and starts at 0.010, the instant request 2 arrives.
  // It is running then, not queued, so the one queue slot is free and
  // request 2 queues behind it instead of being shed.
  EdgeClusterParams params = small_cluster();
  params.servers = 1;
  params.server.queue_capacity = 1;
  EdgeCluster cluster(params);
  const auto outcomes = cluster.process(
      {request(0, 0.0), request(1, 0.001), request(2, 0.010)});
  EXPECT_EQ(outcomes[1].start_s, 0.010);
  ASSERT_TRUE(outcomes[2].admitted);
  EXPECT_EQ(outcomes[2].start_s, 0.020);
  EXPECT_EQ(cluster.stats().shed, 0u);
}

TEST(EdgeCluster, UtilizationAndMakespanReflectBusyTime) {
  EdgeClusterParams params = small_cluster();
  params.servers = 2;
  params.server.parallelism = 1;
  params.batch_window_s = 0.0;
  EdgeCluster cluster(params);
  cluster.process({request(0, 0.0), request(1, 0.0)});
  // Both servers ran one 10 ms job starting at 0: busy 20 ms of 2 x 10 ms.
  EXPECT_DOUBLE_EQ(cluster.stats().makespan_s, 0.010);
  EXPECT_DOUBLE_EQ(cluster.stats().utilization(), 1.0);
  ASSERT_EQ(cluster.stats().server_busy_s.size(), 2u);
  EXPECT_DOUBLE_EQ(cluster.stats().server_busy_s[0], 0.010);
  EXPECT_DOUBLE_EQ(cluster.stats().server_busy_s[1], 0.010);
}

TEST(ClusterStats, MergeAccumulatesRounds) {
  ClusterStats a;
  a.requests = 10;
  a.admitted = 8;
  a.shed = 2;
  a.batches = 4;
  a.max_batch_seen = 3;
  a.max_queue_delay_s = 0.02;
  a.makespan_s = 1.0;
  a.horizon_s = 1.0;
  a.workers_per_server = 2;
  a.server_busy_s = {0.5, 0.25};
  ClusterStats b = a;
  b.max_batch_seen = 2;
  b.max_queue_delay_s = 0.05;
  a.merge(b);
  EXPECT_EQ(a.requests, 20u);
  EXPECT_EQ(a.admitted, 16u);
  EXPECT_EQ(a.shed, 4u);
  EXPECT_EQ(a.batches, 8u);
  EXPECT_EQ(a.max_batch_seen, 3u);
  EXPECT_DOUBLE_EQ(a.max_queue_delay_s, 0.05);
  EXPECT_DOUBLE_EQ(a.server_busy_s[0], 1.0);
  EXPECT_DOUBLE_EQ(a.server_busy_s[1], 0.5);
  // Horizon accumulates (disjoint traces) while makespan keeps the worst
  // round, so merged utilization stays a true fraction: 1.5 busy over
  // 2 servers x 2 workers x 2 s observed.
  EXPECT_DOUBLE_EQ(a.makespan_s, 1.0);
  EXPECT_DOUBLE_EQ(a.horizon_s, 2.0);
  EXPECT_DOUBLE_EQ(a.utilization(), 1.5 / 8.0);
}

}  // namespace
}  // namespace seo
