// 2-D vector used for positions in the plane.  Value type, constexpr-friendly.
#pragma once

#include <cmath>

namespace seo {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_in, double y_in) : x(x_in), y(y_in) {}

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }

  constexpr double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product (signed area).
  constexpr double cross(const Vec2& o) const { return x * o.y - y * o.x; }
  double norm() const { return std::sqrt(x * x + y * y); }
  constexpr double norm_sq() const { return x * x + y * y; }
  /// Angle of the vector from +x axis, in (-pi, pi].
  double angle() const { return std::atan2(y, x); }

  /// Unit vector in the same direction; returns {1,0} for the zero vector
  /// so callers never divide by zero.
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{1.0, 0.0};
  }

  static Vec2 from_polar(double radius, double angle) {
    return {radius * std::cos(angle), radius * std::sin(angle)};
  }
};

constexpr Vec2 operator*(double s, const Vec2& v) { return v * s; }

inline double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }

/// The rest of wrap_angle once one turn has not sufficed: the subtraction
/// loop within a few turns, else one exact reduction (the loop runs long
/// there and never ends once a - 2 pi == a, |a| > ~7e16, or infinite).
double wrap_angle_far(double a);

/// Wraps an angle to (-pi, pi]; NaN for a NaN or infinite angle.  Inline
/// for the common cases: already in range, or one turn out.
inline double wrap_angle(double a) {
  constexpr double kPi = 3.14159265358979323846;
  if (a > kPi) {
    a -= 2.0 * kPi;
    return a > kPi ? wrap_angle_far(a) : a;
  }
  if (a <= -kPi) {
    a += 2.0 * kPi;
    return a <= -kPi ? wrap_angle_far(a) : a;
  }
  return a;
}

}  // namespace seo
