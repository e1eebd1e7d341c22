// Unit tests for the wireless offloading substrate: channel models, the
// offload link's timing/energy accounting, and the delta-hat estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "net/channel.hpp"
#include "net/edge_server.hpp"
#include "net/offload_link.hpp"
#include "net/response_estimator.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace seo {
namespace {

TEST(RayleighChannel, MeanRateMatchesScale) {
  RayleighChannel channel(units::mbps(20.0));
  Rng rng(3);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(channel.sample_rate_bps(rng));
  EXPECT_NEAR(s.mean(), units::mbps(20.0) * std::sqrt(std::numbers::pi / 2.0),
              units::mbps(0.3));
}

TEST(RayleighChannel, FloorPreventsZeroRates) {
  RayleighChannel channel(units::mbps(1.0), /*floor=*/units::mbps(0.5));
  Rng rng(4);
  for (int i = 0; i < 50000; ++i)
    EXPECT_GE(channel.sample_rate_bps(rng), units::mbps(0.5));
}

TEST(RayleighChannel, RejectsBadConfig) {
  EXPECT_THROW(RayleighChannel(0.0), ContractViolation);
  EXPECT_THROW(RayleighChannel(1e6, 2e6), ContractViolation);
}

TEST(FixedChannel, DeterministicRate) {
  FixedChannel channel(units::mbps(10.0));
  Rng rng(5);
  EXPECT_DOUBLE_EQ(channel.sample_rate_bps(rng), 1e7);
  EXPECT_THROW(FixedChannel(0.0), ContractViolation);
}

TEST(OffloadLink, ResponseTimingIsUplinkPlusServerPlusDownlink) {
  FixedChannel channel(units::mbps(16.0));  // 2 MB/s
  OffloadLinkParams params;
  params.server_latency_s = 0.005;
  params.downlink_latency_s = 0.001;
  OffloadLink link(params, channel, Rng(6));

  // 32 KiB at 16 Mbps: 262144 bits / 16e6 = 16.384 ms uplink.
  const auto tx = link.submit(0, units::kib(32.0), /*frame_time=*/1.0,
                              /*now=*/2.0);
  EXPECT_NEAR(tx.tx_time_s, 0.016384, 1e-9);
  EXPECT_NEAR(tx.response_time, 2.0 + 0.016384 + 0.006, 1e-9);
  EXPECT_DOUBLE_EQ(tx.frame_time, 1.0);
  EXPECT_EQ(link.in_flight(), 1u);
}

TEST(OffloadLink, CollectArrivalsRespectsTimeAndOrders) {
  FixedChannel channel(units::mbps(16.0));
  OffloadLink link(OffloadLinkParams{}, channel, Rng(7));
  const auto early = link.submit(0, units::kib(8.0), 0.0, 0.0);
  const auto late = link.submit(1, units::kib(64.0), 0.0, 0.0);
  ASSERT_LT(early.response_time, late.response_time);

  EXPECT_TRUE(link.collect_arrivals(early.response_time - 1e-6).empty());
  const auto first = link.collect_arrivals(early.response_time);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, early.id);
  EXPECT_EQ(link.in_flight(), 1u);

  const auto rest = link.collect_arrivals(1e9);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, late.id);
  EXPECT_EQ(link.in_flight(), 0u);
}

TEST(OffloadLink, RejectsEmptyFrames) {
  FixedChannel channel(units::mbps(8.0));
  OffloadLink link(OffloadLinkParams{}, channel, Rng(10));
  EXPECT_THROW(link.submit(0, 0.0, 0.0, 0.0), ContractViolation);
}

TEST(ResponseEstimator, StartsAtPrior) {
  const ResponseEstimator est(0.02, 0.25, 1.0);
  EXPECT_DOUBLE_EQ(est.mean_s(), 0.02);
  EXPECT_DOUBLE_EQ(est.estimate_s(), 0.02);
  EXPECT_EQ(est.observations(), 0u);
}

TEST(ResponseEstimator, ConvergesToConstantInput) {
  ResponseEstimator est(0.1, 0.25, 1.0);
  for (int i = 0; i < 100; ++i) est.observe(0.02);
  EXPECT_NEAR(est.mean_s(), 0.02, 1e-6);
  EXPECT_EQ(est.observations(), 100u);
}

TEST(ResponseEstimator, SafetyFactorInflatesEstimate) {
  ResponseEstimator est(0.02, 0.25, 1.5);
  EXPECT_DOUBLE_EQ(est.estimate_s(), 0.03);
}

TEST(ResponseEstimator, PeriodsAreCeiling) {
  ResponseEstimator est(0.021, 0.25, 1.0);
  EXPECT_EQ(est.estimate_periods(0.02), 2);   // 21 ms -> 2 periods
  ResponseEstimator exact(0.02, 0.25, 1.0);
  EXPECT_EQ(exact.estimate_periods(0.02), 1);  // 20 ms -> 1 period
}

TEST(ResponseEstimator, Contracts) {
  EXPECT_THROW(ResponseEstimator(0.0), ContractViolation);
  EXPECT_THROW(ResponseEstimator(0.01, 0.0), ContractViolation);
  EXPECT_THROW(ResponseEstimator(0.01, 0.5, 0.9), ContractViolation);
  ResponseEstimator est(0.01);
  EXPECT_THROW(est.observe(0.0), ContractViolation);
  EXPECT_THROW(est.estimate_periods(0.0), ContractViolation);
}

TEST(ResponseEstimator, EwmaWeightsNewestObservation) {
  ResponseEstimator est(0.010, 0.5, 1.0);
  est.observe(0.030);
  EXPECT_NEAR(est.mean_s(), 0.020, 1e-12);
  est.observe(0.040);
  EXPECT_NEAR(est.mean_s(), 0.030, 1e-12);
}

TEST(ResponseEstimator, ObservationEqualToMeanUsesSlowSideWeight) {
  // Documented tie-break: a response exactly at the current mean is "bad
  // news", absorbed at alpha, not alpha_down.  With a == mean the EWMA
  // value cannot move, so the tie-break is observable through a follow-up
  // observation: an estimator whose tie took the fast lane would behave
  // identically here, which is why the contract is locked structurally —
  // equal input must leave the mean bit-identical (no drift either way).
  ResponseEstimator est(0.020, 0.25, 1.0, 0.6);
  est.observe(0.020);
  EXPECT_EQ(est.mean_s(), 0.020);
  EXPECT_EQ(est.observations(), 1u);
  // A batched server answering a run of requests at one completion
  // boundary feeds the same value repeatedly; the estimate must not relax.
  for (int i = 0; i < 10; ++i) est.observe(0.020);
  EXPECT_EQ(est.mean_s(), 0.020);
}

// --- EdgeServer boundary tie-breaks ----------------------------------------

TEST(EdgeServer, ArrivalExactlyAtWorkerFreeInstantStartsImmediately) {
  EdgeServerParams params;
  params.service_time_s = 0.010;
  params.parallelism = 1;
  params.queue_capacity = 0;  // no queue: admission needs a free worker
  EdgeServer server(params);

  const auto first = server.submit(0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(*first, 0.010);

  // The worker's busy interval is [0, 0.010): a job landing exactly at the
  // completion instant finds it free — admitted with zero queue delay even
  // though the queue has no capacity at all.
  const auto boundary = server.submit(0.010);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_DOUBLE_EQ(*boundary, 0.020);
  EXPECT_DOUBLE_EQ(server.max_queue_delay(), 0.0);
  EXPECT_EQ(server.rejected(), 0u);
}

TEST(EdgeServer, ArrivalJustBeforeBoundaryQueuesOrSheds) {
  EdgeServerParams params;
  params.service_time_s = 0.010;
  params.parallelism = 1;
  params.queue_capacity = 0;
  EdgeServer server(params);
  ASSERT_TRUE(server.submit(0.0).has_value());

  // Strictly inside the busy interval the worker is NOT free: with zero
  // queue capacity the job is shed — the complement of the boundary case.
  EXPECT_FALSE(server.submit(0.010 - 1e-9).has_value());
  EXPECT_EQ(server.rejected(), 1u);
}

TEST(EdgeServer, BacklogExcludesJobStartingExactlyAtQueryTime) {
  EdgeServerParams params;
  params.service_time_s = 0.010;
  params.parallelism = 1;
  params.queue_capacity = 4;
  EdgeServer server(params);
  ASSERT_TRUE(server.submit(0.0).has_value());   // runs [0, 0.010)
  ASSERT_TRUE(server.submit(0.001).has_value()); // starts at 0.010

  // At t = 0.010 the queued job starts: it is running, not backlog.
  EXPECT_EQ(server.backlog(0.005), 1u);
  EXPECT_EQ(server.backlog(0.010), 0u);
}

TEST(EdgeServer, QueueDelayAccountsFromArrivalToStart) {
  EdgeServerParams params;
  params.service_time_s = 0.010;
  params.parallelism = 1;
  params.queue_capacity = 4;
  EdgeServer server(params);
  ASSERT_TRUE(server.submit(0.0).has_value());
  const auto queued = server.submit(0.004);
  ASSERT_TRUE(queued.has_value());
  EXPECT_DOUBLE_EQ(*queued, 0.020);  // started at 0.010
  EXPECT_DOUBLE_EQ(server.max_queue_delay(), 0.006);
}

// --- EdgeServer against a reference model --------------------------------

/// The EdgeServer model with an unsorted start list: backlog counts every
/// admitted start, so it is right for any arrival order.  The oracle for
/// the sorted start list's upper_bound count.
class ReferenceEdgeServer {
 public:
  explicit ReferenceEdgeServer(EdgeServerParams params)
      : params_(params),
        busy_until_(static_cast<std::size_t>(params.parallelism), 0.0) {}

  std::optional<double> submit(double arrival) {
    const std::size_t waiting = backlog(arrival);
    const bool all_busy =
        std::all_of(busy_until_.begin(), busy_until_.end(),
                    [&](double t) { return t > arrival; });
    if (all_busy && waiting >= params_.queue_capacity) {
      ++rejected_;
      return std::nullopt;
    }
    auto earliest = std::min_element(busy_until_.begin(), busy_until_.end());
    const double start = std::max(*earliest, arrival);
    const double completion = start + params_.service_time_s;
    *earliest = completion;
    starts_.push_back(start);
    ++admitted_;
    max_queue_delay_ = std::max(max_queue_delay_, start - arrival);
    return completion;
  }

  std::size_t backlog(double time) const {
    return static_cast<std::size_t>(
        std::count_if(starts_.begin(), starts_.end(),
                      [&](double start) { return start > time; }));
  }

  std::size_t admitted() const { return admitted_; }
  std::size_t rejected() const { return rejected_; }
  double max_queue_delay() const { return max_queue_delay_; }

 private:
  EdgeServerParams params_;
  std::vector<double> busy_until_;
  std::vector<double> starts_;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  double max_queue_delay_ = 0.0;
};

TEST(EdgeServer, MatchesReferenceModelUnderOutOfOrderArrivals) {
  // OffloadLink's shape: nondecreasing submit times plus a random uplink
  // time, so arrivals reach the server out of order.  Half the trials put
  // every time on a 1/1024 s grid, where sums are exact and arrivals land
  // on completion boundaries.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const bool on_grid = trial % 2 == 0;
    const auto draw = [&](double lo, double hi) {
      const double v = rng.uniform(lo, hi);
      return on_grid ? std::floor(v * 1024.0) / 1024.0 : v;
    };
    EdgeServerParams params;
    params.parallelism = rng.uniform_int(1, 4);
    params.queue_capacity = static_cast<std::size_t>(rng.uniform_int(0, 6));
    params.service_time_s = std::max(draw(0.001, 0.02), 1.0 / 1024.0);
    EdgeServer server(params);
    ReferenceEdgeServer reference(params);

    double submit_s = 0.0;
    for (int k = 0; k < 120; ++k) {
      if (rng.bernoulli(0.7)) submit_s += draw(0.0, 0.01);
      const double arrival = submit_s + draw(0.0, 0.03);
      const auto got = server.submit(arrival);
      const auto want = reference.submit(arrival);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "trial " << trial << " job " << k;
      if (want) EXPECT_EQ(*got, *want) << "trial " << trial << " job " << k;
      for (int q = 0; q < 3; ++q) {
        const double t = submit_s + draw(-0.01, 0.05);
        EXPECT_EQ(server.backlog(t), reference.backlog(t))
            << "trial " << trial << " job " << k << " t=" << t;
      }
      EXPECT_EQ(server.backlog(arrival), reference.backlog(arrival));
    }
    EXPECT_EQ(server.admitted(), reference.admitted()) << "trial " << trial;
    EXPECT_EQ(server.rejected(), reference.rejected()) << "trial " << trial;
    EXPECT_EQ(server.max_queue_delay(), reference.max_queue_delay())
        << "trial " << trial;
  }
}

TEST(EdgeServer, AdmitReturnsTheSlotAndSubmitItsCompletion) {
  EdgeServerParams params;
  params.service_time_s = 0.010;
  params.parallelism = 1;
  params.queue_capacity = 1;
  EdgeServer server(params);
  const auto first = server.admit(0.0, 0.025);  // caller-chosen service
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->start, 0.0);
  EXPECT_EQ(first->completion, 0.025);
  EXPECT_EQ(server.earliest_free(), 0.025);
  const auto queued = server.submit(0.005);  // configured service
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(*queued, 0.035);
  EXPECT_FALSE(server.admit(0.006, 0.001).has_value());  // queue full
  EXPECT_THROW((void)server.admit(0.006, 0.0), ContractViolation);
}

}  // namespace
}  // namespace seo
