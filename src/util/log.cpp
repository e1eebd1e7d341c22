#include "util/log.hpp"

#include <iostream>
#include <mutex>

namespace seo::detail {

namespace {
std::mutex g_mutex;
}  // namespace

void log_warn_line(const std::string& message) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::cerr << "[warn] " << message << "\n";
}

}  // namespace seo::detail
