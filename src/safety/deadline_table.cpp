#include "safety/deadline_table.hpp"

#include <algorithm>
#include <cmath>

#include "core/binary_io.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Maps a continuous coordinate into (bin_lo, fraction) for interpolation.
struct GridCoord {
  int lo;
  double frac;
};

GridCoord locate(double value, double min_v, double max_v, int bins) {
  const double clamped = std::clamp(value, min_v, max_v);
  const double pos = (clamped - min_v) / (max_v - min_v) *
                     static_cast<double>(bins - 1);
  int lo = static_cast<int>(pos);
  lo = std::min(lo, bins - 2);
  return GridCoord{lo, pos - static_cast<double>(lo)};
}
}  // namespace

DeadlineTable::DeadlineTable(DeadlineTableConfig config,
                             const SafeIntervalEvaluator& source,
                             double body_radius)
    : config_(config),
      body_radius_(body_radius),
      values_(static_cast<std::size_t>(config.distance_bins) *
              static_cast<std::size_t>(config.bearing_bins) *
              static_cast<std::size_t>(config.speed_bins)) {
  SEO_EXPECT(config_.distance_bins >= 2);
  SEO_EXPECT(config_.bearing_bins >= 2);
  SEO_EXPECT(config_.speed_bins >= 2);
  // Same domain contract decode() enforces, so every buildable table is
  // serializable and reloadable (round-trip integrity by construction).
  SEO_EXPECT(std::isfinite(config_.max_distance) && config_.max_distance > 0.0);
  SEO_EXPECT(std::isfinite(config_.max_speed) && config_.max_speed > 0.0);
  SEO_EXPECT(std::isfinite(config_.obstacle_radius) &&
             config_.obstacle_radius > 0.0);
  SEO_EXPECT(std::isfinite(body_radius_) && body_radius_ > 0.0);

  // Place a virtual obstacle at every reduced coordinate and record the
  // evaluator's Delta_max.  The ego sits at the origin heading +x.  The grid
  // is partitioned into distance slabs; cells are independent and each slab
  // writes a disjoint region of values_, so any thread count produces a
  // bit-identical table.
  //
  // Slabs are dealt to workers *strided* (worker c of C builds di = c,
  // c+C, c+2C, ...), not as contiguous ranges: per-slab cost varies
  // strongly with obstacle distance, so a contiguous 2-way split lands all
  // the expensive near-field slabs on one worker and the build degenerates
  // to nearly serial (the BM_DeadlineTableBuild/threads:2 regression).
  // Striding interleaves the cost profile evenly across workers for any
  // monotone-ish cost curve, and the output is unchanged — each cell is
  // independent and written exactly once.
  const std::size_t distance_bins =
      static_cast<std::size_t>(config_.distance_bins);
  const std::size_t chunks = std::min(
      std::max<std::size_t>(ThreadPool::resolve_threads(config_.threads), 1),
      distance_bins);
  const auto build_slabs = [this, &source, distance_bins, chunks](
                               std::size_t chunk_lo, std::size_t chunk_hi) {
    // One field per slab worker, rebuilt in place per cell: the grid has
    // tens of thousands of cells, and a fresh ObstacleField per cell would
    // make the build allocation-bound.
    ObstacleField field;
    field.reserve(1);
    for (std::size_t c = chunk_lo; c < chunk_hi; ++c)
    for (std::size_t di = c; di < distance_bins; di += chunks) {
      const double d = config_.max_distance * static_cast<double>(di) /
                       static_cast<double>(config_.distance_bins - 1);
      for (int bi = 0; bi < config_.bearing_bins; ++bi) {
        const double chi =
            -kPi + 2.0 * kPi * static_cast<double>(bi) /
                       static_cast<double>(config_.bearing_bins - 1);
        for (int vi = 0; vi < config_.speed_bins; ++vi) {
          const double v = config_.max_speed * static_cast<double>(vi) /
                           static_cast<double>(config_.speed_bins - 1);
          VehicleState state;
          state.position = {0.0, 0.0};
          state.heading = 0.0;
          state.speed = v;
          // Reconstruct the obstacle whose surface clearance is exactly d.
          const double center_dist =
              d + config_.obstacle_radius + body_radius_;
          field.clear();
          field.push_back(Obstacle{Vec2::from_polar(center_dist, chi),
                                   config_.obstacle_radius});
          const SafeInterval si = source.evaluate(state, Control{}, field);
          // Grid points are within the domain by construction, but guard a
          // source that still reports "unconstrained" at the very edge with
          // a bounded large value so interpolation is never poisoned.
          cell(static_cast<int>(di), bi, vi) =
              si.constrained ? si.delta_max_s : 1e3;
        }
      }
    }
  };

  // count == max_concurrency == chunks, so run_capped hands each worker
  // exactly one strided chunk.  chunks == 1 walks di in the same order the
  // serial build always has.
  ThreadPool::run_capped(0, chunks, chunks, build_slabs);
}

DeadlineTable::DeadlineTable(DeadlineTableConfig config, double body_radius,
                             std::vector<double> values)
    : config_(config), body_radius_(body_radius), values_(std::move(values)) {
  SEO_EXPECT(values_.size() ==
             static_cast<std::size_t>(config_.distance_bins) *
                 static_cast<std::size_t>(config_.bearing_bins) *
                 static_cast<std::size_t>(config_.speed_bins));
}

void DeadlineTable::encode(BinaryWriter& out) const {
  out.u32(static_cast<std::uint32_t>(config_.distance_bins));
  out.u32(static_cast<std::uint32_t>(config_.bearing_bins));
  out.u32(static_cast<std::uint32_t>(config_.speed_bins));
  out.f64(config_.max_distance);
  out.f64(config_.max_speed);
  out.f64(config_.obstacle_radius);
  out.f64(body_radius_);
  for (const double v : values_) out.f64(v);
}

DeadlineTable DeadlineTable::decode(BinaryReader& in) {
  DeadlineTableConfig config;
  config.distance_bins = static_cast<int>(in.u32());
  config.bearing_bins = static_cast<int>(in.u32());
  config.speed_bins = static_cast<int>(in.u32());
  config.max_distance = in.f64();
  config.max_speed = in.f64();
  config.obstacle_radius = in.f64();
  const double body_radius = in.f64();
  // A corrupted artifact must fail loudly here, not poison every
  // subsequent episode: domain scalars must be finite and positive, cell
  // values finite.  The shape is validated before it can drive an
  // allocation, and the remaining byte count must be exactly the cell
  // block.
  SEO_EXPECT(config.distance_bins >= 2 && config.distance_bins <= 100000 &&
             config.bearing_bins >= 2 && config.bearing_bins <= 100000 &&
             config.speed_bins >= 2 && config.speed_bins <= 100000);
  SEO_EXPECT(std::isfinite(config.max_distance) && config.max_distance > 0.0);
  SEO_EXPECT(std::isfinite(config.max_speed) && config.max_speed > 0.0);
  SEO_EXPECT(std::isfinite(config.obstacle_radius) &&
             config.obstacle_radius > 0.0);
  SEO_EXPECT(std::isfinite(body_radius) && body_radius > 0.0);
  const std::size_t cells = static_cast<std::size_t>(config.distance_bins) *
                            static_cast<std::size_t>(config.bearing_bins) *
                            static_cast<std::size_t>(config.speed_bins);
  SEO_EXPECT(in.remaining() == cells * sizeof(double));
  std::vector<double> values(cells);
  for (auto& v : values) v = in.f64();
  for (const double v : values) SEO_EXPECT(std::isfinite(v));
  return DeadlineTable(config, body_radius, std::move(values));
}

double& DeadlineTable::cell(int di, int bi, int vi) {
  return values_[(static_cast<std::size_t>(di) *
                      static_cast<std::size_t>(config_.bearing_bins) +
                  static_cast<std::size_t>(bi)) *
                     static_cast<std::size_t>(config_.speed_bins) +
                 static_cast<std::size_t>(vi)];
}

double DeadlineTable::cell(int di, int bi, int vi) const {
  return values_[(static_cast<std::size_t>(di) *
                      static_cast<std::size_t>(config_.bearing_bins) +
                  static_cast<std::size_t>(bi)) *
                     static_cast<std::size_t>(config_.speed_bins) +
                 static_cast<std::size_t>(vi)];
}

double DeadlineTable::sample(double dist, double bearing, double speed) const {
  const GridCoord d = locate(dist, 0.0, config_.max_distance,
                             config_.distance_bins);
  const GridCoord b = locate(wrap_angle(bearing), -kPi, kPi,
                             config_.bearing_bins);
  const GridCoord v = locate(speed, 0.0, config_.max_speed,
                             config_.speed_bins);

  // Trilinear interpolation over the 8 surrounding cells.
  double acc = 0.0;
  for (int dd = 0; dd <= 1; ++dd) {
    const double wd = dd == 0 ? 1.0 - d.frac : d.frac;
    for (int bb = 0; bb <= 1; ++bb) {
      const double wb = bb == 0 ? 1.0 - b.frac : b.frac;
      for (int vv = 0; vv <= 1; ++vv) {
        const double wv = vv == 0 ? 1.0 - v.frac : v.frac;
        acc += wd * wb * wv * cell(d.lo + dd, b.lo + bb, v.lo + vv);
      }
    }
  }
  return acc;
}

SafeInterval DeadlineTable::evaluate(const VehicleState& state,
                                     const Control& /*u*/,
                                     const ObstacleField& field) const {
  const auto nearest = field.nearest(state.position);
  if (!nearest || nearest->surface_distance - body_radius_ >
                      config_.max_distance + 1e-9)
    return SafeInterval{false, 0.0};

  const Vec2 rel = nearest->center - state.position;
  const double bearing = wrap_angle(rel.angle() - state.heading);
  const double clearance = nearest->surface_distance - body_radius_;
  return SafeInterval{true,
                      sample(std::max(clearance, 0.0), bearing, state.speed)};
}

}  // namespace seo
