// Driving policy input — what the paper's controller pi sees at one step:
// the aggregated features Theta (from both model subsets) it maps to a raw
// control action u (control/hybrid_policy).
#pragma once

#include <vector>

#include "dynamics/road.hpp"
#include "dynamics/types.hpp"
#include "sensors/detector.hpp"

namespace seo {

/// Everything the controller sees at one control step: the state estimate
/// from the critical subset (Lambda'') plus the aggregated detector outputs
/// Theta' from the optimizable subset (Lambda'), which may be *stale* when
/// those pipelines are gated or awaiting offload responses — that staleness
/// is precisely the coupling SEO manages.
struct PolicyObservation {
  VehicleState state{};            ///< Lambda'' state estimate
  const Road* road = nullptr;      ///< route geometry
  std::vector<Detection> detections;  ///< union of latest Lambda' outputs
  double detection_age_s = 0.0;    ///< age of the *freshest* detection set
  double time_s = 0.0;
};

}  // namespace seo
