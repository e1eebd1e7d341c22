// The paper harnesses as data: one spec per harness (its banner, sweep
// grid, print function and footer), run by `paper_harness NAME` and read
// by the paper-claims test, which runs the same grids.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace seo::bench {

/// Prints a harness's rows (in grid order) between its banner and footer.
using HarnessPrint =
    std::function<void(const std::vector<SweepRow>&, std::ostream&)>;

/// One paper harness.  Its output is the banner, `print` over the rows of
/// `grid`, then `footer`.
struct Harness {
  std::string name;       ///< the harness's name, also its banner id
  std::string paper_ref;  ///< what it reproduces ("paper Fig. 5")
  std::string setup;      ///< the banner's setup line
  SweepConfig grid;
  HarnessPrint print;
  std::string footer;
};

/// Every harness, in name order.
const std::vector<Harness>& harnesses();

/// The harness called `name`, or nullptr.
const Harness* find_harness(const std::string& name);

/// Runs `harness`'s grid and prints its banner, rows and footer to `out`.
void run_harness(const Harness& harness, std::ostream& out);

}  // namespace seo::bench
