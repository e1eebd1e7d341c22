#include "dynamics/vec2.hpp"

namespace seo {

double wrap_angle_far(double a) {
  constexpr double kPi = 3.14159265358979323846;
  if (!(std::abs(a) <= 8.0 * kPi)) {
    a = std::remainder(a, 2.0 * kPi);  // in [-pi, pi]; NaN for +-inf
    return a <= -kPi ? a + 2.0 * kPi : a;
  }
  while (a > kPi) a -= 2.0 * kPi;
  while (a <= -kPi) a += 2.0 * kPi;
  return a;
}

}  // namespace seo
