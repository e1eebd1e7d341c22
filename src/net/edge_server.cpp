#include "net/edge_server.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace seo {

EdgeServer::EdgeServer(EdgeServerParams params) : params_(params) {
  SEO_EXPECT(std::isfinite(params_.service_time_s) &&
             params_.service_time_s > 0.0);
  SEO_EXPECT(params_.parallelism >= 1);
  worker_busy_until_.assign(static_cast<std::size_t>(params_.parallelism),
                            0.0);
}

std::optional<EdgeServer::Slot> EdgeServer::admit(double arrival_s,
                                                  double service_s) {
  SEO_EXPECT(arrival_s >= 0.0);
  SEO_EXPECT(service_s > 0.0);
  // Strict comparison = the documented boundary tie-break: a worker whose
  // busy interval ends exactly at arrival_s is free, matching the
  // `start = max(busy_until, arrival)` rule below (the job then starts at
  // arrival with zero queue delay) and backlog's strict `start > time`.
  const bool all_busy =
      std::all_of(worker_busy_until_.begin(), worker_busy_until_.end(),
                  [&](double t) { return t > arrival_s; });
  if (all_busy && backlog(arrival_s) >= params_.queue_capacity) {
    ++rejected_;
    return std::nullopt;
  }

  // Earliest-available worker serves the job FIFO.
  auto earliest = std::min_element(worker_busy_until_.begin(),
                                   worker_busy_until_.end());
  const double start = std::max(*earliest, arrival_s);
  const Slot slot{start, start + service_s};
  *earliest = slot.completion;
  // Sorted insert; monotone arrivals (the cluster) append at the end.
  start_times_.insert(std::upper_bound(start_times_.begin(),
                                       start_times_.end(), slot.start),
                      slot.start);
  ++admitted_;
  max_queue_delay_ = std::max(max_queue_delay_, slot.start - arrival_s);
  return slot;
}

std::optional<double> EdgeServer::submit(double arrival_time) {
  const std::optional<Slot> slot = admit(arrival_time, params_.service_time_s);
  if (!slot) return std::nullopt;
  return slot->completion;
}

std::size_t EdgeServer::backlog(double time) const {
  return static_cast<std::size_t>(
      start_times_.end() -
      std::upper_bound(start_times_.begin(), start_times_.end(), time));
}

double EdgeServer::earliest_free() const {
  return *std::min_element(worker_busy_until_.begin(),
                           worker_busy_until_.end());
}

}  // namespace seo
