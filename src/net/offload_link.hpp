// Task-offloading link: tracks in-flight offload transactions against an
// edge server and times each one's uplink and round trip.
//
// Round-trip time of one offload = uplink transmission (frame_bits / rate,
// rate drawn per-transmission from the channel) + server inference latency
// + downlink latency for the compact result.  Radio energy = uplink
// transmission time * P_tx, the paper's eq. (7) E_Omega term; the
// simulation charges it per transaction from `tx_time_s`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/channel.hpp"
#include "net/edge_server.hpp"
#include "util/rng.hpp"

namespace seo {

/// Static parameters of the offloading path.
struct OffloadLinkParams {
  double server_latency_s = 0.005;   ///< edge-server inference time
                                     ///< (unqueued model; ignored when an
                                     ///< EdgeServer is attached)
  double downlink_latency_s = 0.001; ///< result return (tiny payload)
  double tx_power_w = 1.3;           ///< radio transmit power P_tx
};

/// Sentinel arrival time for offloads the server shed (never arrives).
inline constexpr double kNeverArrives = 1e18;

/// One in-flight or completed offload.
struct OffloadTransaction {
  std::uint64_t id = 0;
  std::size_t pipeline = 0;     ///< owning pipeline index
  double submit_time = 0.0;
  double frame_time = 0.0;      ///< timestamp of the offloaded sensor frame
  double bytes = 0.0;           ///< uplink payload size
  double tx_time_s = 0.0;       ///< uplink duration (energy = tx_time * P_tx)
  double response_time = 0.0;   ///< absolute arrival time of the result
};

/// Manages offload transactions for all pipelines on one radio.
class OffloadLink {
 public:
  /// `server`: optional queueing model for the compute side; when null,
  /// every offload is served after a fixed `server_latency_s`.
  OffloadLink(OffloadLinkParams params, Channel& channel, Rng rng,
              EdgeServer* server = nullptr);

  const OffloadLinkParams& params() const { return params_; }

  /// Starts an offload of `frame_bytes` captured at `frame_time`.
  /// Returns the transaction (already scheduled for arrival).
  OffloadTransaction submit(std::size_t pipeline, double frame_bytes,
                            double frame_time, double now);

  /// All transactions whose response has arrived by `now`, removed from the
  /// in-flight set (ordered by arrival time).
  std::vector<OffloadTransaction> collect_arrivals(double now);

  std::size_t in_flight() const { return in_flight_.size(); }

  /// Offloads the attached server shed (admission rejected).
  std::size_t shed() const { return shed_; }

 private:
  OffloadLinkParams params_;
  Channel& channel_;
  Rng rng_;
  EdgeServer* server_ = nullptr;
  std::size_t shed_ = 0;
  std::vector<OffloadTransaction> in_flight_;
  std::uint64_t next_id_ = 0;
};

}  // namespace seo
