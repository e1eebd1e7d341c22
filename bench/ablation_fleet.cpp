// Ablation A9: fleet contention on a shared edge server.
//
// The paper evaluates one vehicle; real deployments share the roadside
// server.  This ablation drives K abstract SEO clients (each a SeoRuntime
// with two detector pipelines and its own Rayleigh channel) against ONE
// EdgeServer, lock-stepped on the 20 ms base period, and measures how
// round trips inflate and remote-apply rates collapse as the fleet grows.
// Built entirely on the public core/net APIs — no simulator world needed.
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"
#include "net/channel.hpp"
#include "net/offload_link.hpp"
#include "net/response_estimator.hpp"
#include "util/units.hpp"

namespace {

using namespace seo;

constexpr double kTau = 0.02;
constexpr int kCap = 4;
constexpr double kFrameBytes = 24.0 * 1024.0;

/// One abstract vehicle: runtime + link + estimators + freshness state.
struct Client {
  std::unique_ptr<SeoRuntime> runtime;
  std::unique_ptr<OffloadLink> link;
  std::vector<ResponseEstimator> estimators;
  std::vector<double> last_arrival;
  std::vector<double> last_frame_time;
  double now = 0.0;
  double interval_start = 0.0;
  std::uint64_t applied = 0, fallbacks = 0, submitted = 0;
};

}  // namespace

int main() {
  bench::print_banner(
      "ablation_fleet", "extends paper V-A to shared infrastructure",
      "K clients x 2 pipelines, one EdgeServer (2 workers, 5 ms service), "
      "unconstrained streaming, 30 s lock-step at tau=20 ms");

  TextTable table("Offloading vs. fleet size on one shared edge server");
  table.set_header({"clients", "submitted", "applied", "fallbacks",
                    "apply rate", "server shed", "max queue delay [ms]"});

  for (const int fleet : {1, 2, 4, 8, 16}) {
    EdgeServer server(EdgeServerParams{0.005, 2, 16});
    RayleighChannel channel(units::mbps(20.0));
    Rng master(4242);

    std::vector<Client> clients(static_cast<std::size_t>(fleet));
    for (auto& client : clients) {
      client.link = std::make_unique<OffloadLink>(
          OffloadLinkParams{}, channel, master.split(), &server);
      client.estimators.assign(2, ResponseEstimator(0.016));
      client.last_arrival.assign(2, -1.0);
      client.last_frame_time.assign(2, -1.0);

      Client* self = &client;
      SeoRuntime::Hooks hooks;
      hooks.sample_deadline = [] { return DeadlineSample{false, 0.0}; };
      hooks.on_interval_start = [self] {
        self->interval_start = self->now;
      };
      hooks.estimate_periods = [self](std::size_t i) {
        return self->estimators[i].estimate_periods(kTau);
      };
      hooks.remote_fresh = [self](std::size_t i) {
        return self->last_arrival[i] >= self->interval_start &&
               self->now - self->last_frame_time[i] <= kCap * kTau;
      };
      client.runtime = std::make_unique<SeoRuntime>(
          SeoRuntime::Config{TimeBase(kTau), kCap, {1, 2}},
          std::make_unique<OffloadStrategy>(), std::move(hooks));
    }

    const int ticks = static_cast<int>(30.0 / kTau);
    for (int t = 0; t < ticks; ++t) {
      const double now = t * kTau;
      for (auto& client : clients) {
        client.now = now;
        for (const auto& arrival : client.link->collect_arrivals(now)) {
          client.estimators[arrival.pipeline].observe(
              arrival.response_time - arrival.submit_time);
          client.last_arrival[arrival.pipeline] = arrival.response_time;
          client.last_frame_time[arrival.pipeline] = arrival.frame_time;
        }
        const auto report = client.runtime->tick();
        for (const auto& d : report.directives) {
          double tx_j = 0.0;
          if (d.action == FrameAction::kOffload ||
              d.action == FrameAction::kApplyRemote) {
            const auto tx =
                client.link->submit(d.pipeline, kFrameBytes, now, now);
            tx_j = tx.tx_time_s * 1.3;
            ++client.submitted;
          }
          client.runtime->record(d, tx_j);
        }
      }
    }

    std::uint64_t submitted = 0, applied = 0, fallbacks = 0;
    for (auto& client : clients) {
      submitted += client.submitted;
      for (std::size_t i = 0; i < 2; ++i) {
        const BucketCounts counts = client.runtime->tally(i).total();
        applied += counts.remote_applied;
        fallbacks += counts.local_fallback;
      }
    }
    const double apply_rate =
        applied + fallbacks > 0
            ? static_cast<double>(applied) /
                  static_cast<double>(applied + fallbacks)
            : 0.0;
    table.add_row({std::to_string(fleet), std::to_string(submitted),
                   std::to_string(applied), std::to_string(fallbacks),
                   fmt_percent(apply_rate), std::to_string(server.rejected()),
                   fmt_double(server.max_queue_delay() * 1e3, 1)});
  }

  std::cout << table.render() << "\n";
  std::cout << "Expected: apply rate stays high while server capacity "
               "absorbs the fleet, then\ncollapses as queueing delay "
               "crosses the freshness window and shedding begins —\nevery "
               "miss lands as a local fallback, never a deadline breach.\n";
  return 0;
}
