// Integer argument parsing shared by the examples: an argument is parsed
// whole and range-checked, and a bad one prints the usage line and exits 2
// instead of aborting mid-run or silently running with another value.
#pragma once

#include <cstdlib>
#include <iostream>

#include "util/numeric.hpp"

namespace seo::example {

/// argv[index] as an integer in [lo, hi], or `fallback` when it is absent.
inline long long int_arg(int argc, char** argv, int index, long long lo,
                         long long hi, long long fallback, const char* usage) {
  if (index >= argc) return fallback;
  long long v = 0;
  if (parse_int(argv[index], lo, hi, v)) return v;
  std::cerr << "usage: " << usage << "\nargument " << index
            << " expects an integer in [" << lo << ", " << hi << "], got '"
            << argv[index] << "'\n";
  std::exit(2);
}

}  // namespace seo::example
