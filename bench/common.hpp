// Shared helpers for the bench harness binaries.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "energy/report.hpp"
#include "sim/sweep.hpp"
#include "util/table.hpp"

namespace seo::bench {

/// Number of successful episodes each experiment aggregates (paper: "the
/// average from 25 test runs in which the agent successfully completed the
/// route").
inline constexpr int kEpisodes = 25;
inline constexpr std::uint64_t kBaseSeed = 7000;

/// The sweep grid a harness runs: `scenarios` (library bases) x `axes`,
/// with `overrides` applied to every point, kEpisodes successful episodes
/// per point from seed kBaseSeed, and the points spread over every
/// hardware thread.  Rows come back in grid order whatever the thread
/// count, so the printed tables are deterministic.
inline SweepConfig grid(
    std::vector<std::string> scenarios,
    std::vector<std::pair<std::string, std::string>> overrides,
    std::vector<SweepAxis> axes, GridMode mode = GridMode::kCartesian) {
  SweepConfig config;
  config.scenarios = std::move(scenarios);
  config.base_overrides = std::move(overrides);
  config.axes = std::move(axes);
  config.grid = mode;
  config.episodes = kEpisodes;
  config.base_seed = kBaseSeed;
  config.threads = 0;
  return config;
}

/// Model-only gain of pipeline `i` (Fig. 5 / Tables I-II metric).
inline double pipeline_gain(const ExperimentResult& r, std::size_t i,
                            const PlatformPowerModel& pm) {
  return r.pipeline_model_energy(i, pm).gain();
}

inline double combined_gain(const ExperimentResult& r,
                            const PlatformPowerModel& pm) {
  return r.combined_model_energy(pm).gain();
}

/// Header line every bench prints so outputs are self-describing.
inline void print_banner(const std::string& id, const std::string& paper_ref,
                         const std::string& setup) {
  std::cout << "=== " << id << " — reproduces " << paper_ref << " ===\n"
            << "setup: " << setup << "\n\n";
}

}  // namespace seo::bench
