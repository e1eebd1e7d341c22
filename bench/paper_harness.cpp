// Runs one paper harness by name and prints its report: the banner, the
// tables or charts over its sweep grid, and the paper reference lines.
//
//   paper_harness NAME     print harness NAME's report
//   paper_harness --list   print every harness name, one per line
//
// An unknown name or a misuse prints the usage to stderr and exits 2.
#include <iostream>
#include <string>

#include "harnesses.hpp"

namespace {

int usage() {
  std::cerr << "usage: paper_harness NAME | --list\n"
               "  NAME     run the named harness and print its report\n"
               "  --list   print every harness name\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace seo::bench;
  if (argc != 2) return usage();
  const std::string arg = argv[1];
  if (arg == "--list") {
    for (const Harness& harness : harnesses())
      std::cout << harness.name << "\n";
    return 0;
  }
  const Harness* harness = find_harness(arg);
  if (harness == nullptr) {
    std::cerr << "unknown harness: " << arg << "\n";
    return usage();
  }
  run_harness(*harness, std::cout);
  return 0;
}
