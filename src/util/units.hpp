// Unit conventions used throughout the library.
//
// Internally everything is SI: seconds, meters, radians, watts, joules,
// bytes, bits-per-second.  These constexpr helpers exist so call sites can
// state values in the units the paper uses (milliseconds, Mbps, KiB)
// without sprinkling magic conversion factors.
#pragma once

namespace seo::units {

/// Milliseconds -> seconds.
constexpr double ms(double v) { return v * 1e-3; }
/// Megabits-per-second -> bits-per-second.
constexpr double mbps(double v) { return v * 1e6; }
/// Kibibytes -> bytes.
constexpr double kib(double v) { return v * 1024.0; }
/// Bytes -> bits.
constexpr double bits(double bytes) { return bytes * 8.0; }

}  // namespace seo::units
