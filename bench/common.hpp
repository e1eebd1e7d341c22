// Shared helpers for the bench harness binaries.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "util/table.hpp"

namespace seo::bench {

/// Number of successful episodes each experiment aggregates (paper: "the
/// average from 25 test runs in which the agent successfully completed the
/// route").
inline constexpr int kEpisodes = 25;
inline constexpr std::uint64_t kBaseSeed = 7000;

/// Header line every bench prints so outputs are self-describing.
inline void print_banner(const std::string& id, const std::string& paper_ref,
                         const std::string& setup,
                         std::ostream& out = std::cout) {
  out << "=== " << id << " — reproduces " << paper_ref << " ===\n"
      << "setup: " << setup << "\n\n";
}

}  // namespace seo::bench
