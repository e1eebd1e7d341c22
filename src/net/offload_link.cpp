#include "net/offload_link.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/units.hpp"

namespace seo {

OffloadLink::OffloadLink(OffloadLinkParams params, Channel& channel, Rng rng,
                         EdgeServer* server)
    : params_(params), channel_(channel), rng_(rng), server_(server) {
  SEO_EXPECT(params_.server_latency_s >= 0.0);
  SEO_EXPECT(params_.downlink_latency_s >= 0.0);
  SEO_EXPECT(params_.tx_power_w > 0.0);
}

OffloadTransaction OffloadLink::submit(std::size_t pipeline,
                                       double frame_bytes, double frame_time,
                                       double now) {
  SEO_EXPECT(frame_bytes > 0.0);
  const double rate_bps = channel_.sample_rate_bps(rng_);
  SEO_ASSERT(rate_bps > 0.0);

  OffloadTransaction tx;
  tx.id = next_id_++;
  tx.pipeline = pipeline;
  tx.submit_time = now;
  tx.frame_time = frame_time;
  tx.bytes = frame_bytes;
  tx.tx_time_s = units::bits(frame_bytes) / rate_bps;
  const double uplink_end = now + tx.tx_time_s;
  if (server_ != nullptr) {
    const std::optional<double> completion = server_->submit(uplink_end);
    if (completion.has_value()) {
      tx.response_time = *completion + params_.downlink_latency_s;
    } else {
      // Admission shed: the uplink energy is spent, the result never comes.
      tx.response_time = kNeverArrives;
      ++shed_;
    }
  } else {
    tx.response_time =
        uplink_end + params_.server_latency_s + params_.downlink_latency_s;
  }

  in_flight_.push_back(tx);
  return tx;
}

std::vector<OffloadTransaction> OffloadLink::collect_arrivals(double now) {
  std::vector<OffloadTransaction> arrived;
  auto it = in_flight_.begin();
  while (it != in_flight_.end()) {
    if (it->response_time <= now) {
      arrived.push_back(*it);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(arrived.begin(), arrived.end(),
            [](const OffloadTransaction& a, const OffloadTransaction& b) {
              return a.response_time < b.response_time;
            });
  return arrived;
}

}  // namespace seo
