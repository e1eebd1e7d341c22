// Minimal warning logger: `log_warn() << ...` emits one "[warn] message"
// line to stderr when the statement ends.  The library warns only about
// degraded runs (an experiment short of episodes, a failed artifact-store
// disk write); report bytes never go through it.
#pragma once

#include <sstream>
#include <string>

namespace seo {

namespace detail {
/// Emits one line "[warn] message" to stderr; lines from concurrent
/// threads never interleave.
void log_warn_line(const std::string& message);

class WarnLine {
 public:
  WarnLine() = default;
  ~WarnLine() { log_warn_line(stream_.str()); }
  WarnLine(const WarnLine&) = delete;
  WarnLine& operator=(const WarnLine&) = delete;

  template <typename T>
  WarnLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::WarnLine log_warn() { return {}; }

}  // namespace seo
