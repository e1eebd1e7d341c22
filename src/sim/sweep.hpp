// Parameter-grid sweep engine — systematic exploration of the scenario
// space the paper samples only pointwise.  A sweep is (library scenarios) x
// (axes over scenario_io keys), expanded cartesian or paired, with every
// grid point running a full run_experiment — or, for a fleet sweep
// (SweepConfig::rounds >= 1), a run_fleet_experiment.  Runners on the
// ThreadPool pull points one at a time off a cursor over the digest-aware
// schedule — points sharing a deadline-table digest are adjacent so each
// geometry class is built (or disk-loaded) once and its siblings hit warm,
// and a runner that finishes early takes the next point instead of idling
// behind a costlier one.  Results land in index-addressed slots, so they
// are merged in grid order and any thread count (and any schedule)
// reproduces the serial sweep exactly (locked down by tests/test_sweep.cpp
// byte-identity on the reports).  A SweepConfig is the grid only; a run's
// trace sink is an argument of run_sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/scenario_library.hpp"

namespace seo {

/// One swept dimension: a scenario_io key and the values it takes.
/// Values are strings exactly as they would appear in a config file, so an
/// axis can sweep doubles, ints, bools or enum names alike.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// How axes combine: kCartesian takes the full cross product; kPaired zips
/// the axes element-wise (all axes must then share one length).
enum class GridMode { kCartesian, kPaired };

/// One grid point: a scenario base plus the axis assignment to overlay.
struct SweepPoint {
  std::size_t index = 0;     ///< position in grid order (deterministic)
  std::string scenario;      ///< library base name
  std::vector<std::pair<std::string, std::string>> assignment;

  /// "scenario key=value key=value" — stable row label for reports.
  std::string label() const;
};

struct SweepConfig {
  /// Library scenario names forming the outermost grid dimension.
  std::vector<std::string> scenarios = {"paper_default"};
  std::vector<SweepAxis> axes;
  GridMode grid = GridMode::kCartesian;

  /// Overrides applied to every point before its axis assignment (e.g. a
  /// shortened route for smoke grids).  Axis values win on conflicts.
  /// Neither may set `scenario` (use `scenarios`) or `seed` (every episode
  /// runs at base_seed + k).
  std::vector<std::pair<std::string, std::string>> base_overrides;

  // Per-point experiment shape (see ExperimentConfig).
  int episodes = 25;
  int max_attempts = 250;
  std::uint64_t base_seed = 1000;
  bool require_success = true;

  /// The point kind: 0 runs run_experiment per point (the shape above);
  /// >= 1 makes every point a fleet experiment (FleetExperimentConfig) of
  /// this many rounds, which ignores episodes/max_attempts/require_success.
  int rounds = 0;

  /// Parallelism, identical results for every value (1 = serial, 0 = all
  /// hardware threads, n = up to n in flight).  Experiment points: grid
  /// points in flight, each running its experiment serially.  Fleet
  /// points: one point at a time, fanning its rounds x vehicles episodes
  /// over this many threads (see sweep_runners).
  int threads = 1;
};

/// One completed grid point: the resolved scenario (axis overrides applied)
/// and its aggregate — `result` for experiment points, `fleet` for fleet
/// points (the other stays default-constructed).
struct SweepRow {
  SweepPoint point;
  ScenarioConfig scenario;
  ExperimentResult result;
  FleetResult fleet;
};

/// Expands the grid in deterministic order: scenarios outermost, then axes
/// left to right (cartesian) or zipped (paired).  Throws ContractViolation
/// on unknown scenario names, unknown or sweep-owned (`scenario`, `seed`)
/// keys, empty axes, or mismatched paired lengths.
std::vector<SweepPoint> expand_grid(const SweepConfig& config);

/// Resolves one point's full ScenarioConfig (library base + base_overrides
/// + axis assignment, applied via scenario_io).
ScenarioConfig resolve_point(const SweepConfig& config,
                             const SweepPoint& point);

/// Everything deterministic about a sweep before any episode runs: the
/// expanded grid, each point's resolved scenario and deadline-table digest,
/// the digest-grouped execution schedule, and the run digest (every point's
/// table digest mixed in grid order — the trace header's run identity, and
/// what the `--workers` hello checks).  A plan is a pure function of the
/// config, so every process given the same config — the parent and each
/// `--workers` child — computes the identical plan independently.
struct SweepPlan {
  std::vector<SweepPoint> points;        ///< grid order
  std::vector<ScenarioConfig> resolved;  ///< per point (overrides applied)
  std::vector<std::uint64_t> digests;    ///< per point scenario_table_digest
  /// Execution schedule: (digest-group rank, grid index), sorted — points
  /// sharing a table digest are adjacent, so runners pulling in this order
  /// reach a geometry class's siblings right after its first point built
  /// the table.  The order points are claimed in, not who runs them.
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::uint64_t run_digest = 0;

  /// The grid indices in schedule order — the sequence a SweepCursor over
  /// the whole grid hands out.
  std::vector<std::size_t> schedule() const;
};

/// The pull cursor the sweep runners share: hands out a schedule's grid
/// indices one per claim, in order, each exactly once.  Claims are a single
/// atomic increment, so any number of runners may pull concurrently.
class SweepCursor {
 public:
  explicit SweepCursor(std::vector<std::size_t> schedule)
      : schedule_(std::move(schedule)) {}

  /// The next unclaimed grid index, or nullopt once every one is out.
  std::optional<std::size_t> next() {
    const std::size_t at = claimed_.fetch_add(1);
    if (at >= schedule_.size()) return std::nullopt;
    return schedule_[at];
  }
  bool exhausted() const { return claimed_.load() >= schedule_.size(); }

 private:
  std::vector<std::size_t> schedule_;
  std::atomic<std::size_t> claimed_{0};
};

/// Expands and schedules `config` (see SweepPlan).  Throws exactly where
/// expand_grid does.
SweepPlan plan_sweep(const SweepConfig& config);

/// Per-completed-point callback of execute_sweep_points: the grid index,
/// the finished row, and — when tracing was requested — the point's
/// serialized trace block with its episode count.  Invoked concurrently
/// from pool threads; the callee synchronizes.
using SweepEmit = std::function<void(
    std::size_t index, SweepRow&& row, std::string&& trace_block,
    std::uint64_t trace_episodes)>;

/// Where execute_sweep_points' runners claim their points: returns the
/// next grid index to run, or nullopt once none is left.  Called
/// concurrently by every runner (and possibly blocking, as a `--workers`
/// child does while it waits for the parent's next assignment); the source
/// synchronizes.
using SweepPointSource = std::function<std::optional<std::size_t>()>;

/// Grid points one process runs at once, capped at `points`: one for fleet
/// points (each fans its episodes out over config.threads itself, which a
/// point run as a pool chunk could not: run_capped runs inline there),
/// resolve_threads(config.threads) for experiment points.  Shared by the
/// in-process runners and the `--workers` hello, so both size a process
/// alike.
std::size_t sweep_runners(const SweepConfig& config, std::size_t points);

/// Starts `runners` runners on the ThreadPool (inline when <= 1), each
/// pulling points from `next_point` until it is drained and handing every
/// finished point to `emit`.  The execution core under run_sweep and the
/// `--workers` pipe workers — one body, so every
/// mode computes bit-identical rows and trace bytes whoever runs which
/// point.  Trace blocks are produced iff `want_trace`; the caller routes
/// them.
void execute_sweep_points(const SweepConfig& config, const SweepPlan& plan,
                          const SweepPointSource& next_point,
                          std::size_t runners, bool want_trace,
                          const SweepEmit& emit);

/// Runs the `owned` subset (ascending grid indices) of a planned sweep:
/// sweep_runners(config, owned points) runners pull off one SweepCursor
/// over the subset's schedule.
void execute_sweep_points(const SweepConfig& config, const SweepPlan& plan,
                          const std::vector<std::size_t>& owned,
                          bool want_trace, const SweepEmit& emit);

/// Runs every grid point and returns rows in grid order.  Deterministic
/// for a fixed config, independent of `config.threads`.  A `trace_sink`
/// (`sweep --trace-out`) receives every episode as the seo-trace stream,
/// one block per point committed in grid order (the same bytes at any
/// thread count); the caller finishes it after run_sweep returns.
std::vector<SweepRow> run_sweep(const SweepConfig& config,
                                OrderedTraceSink* trace_sink = nullptr);

/// The CI smoke grid: 4 library scenarios x (2 channel scales x 2 deadline
/// caps) on a shortened route — 16 points that finish in seconds.  Shared
/// by `sweep --smoke` and the byte-identity tests so the grid CI compares
/// is exactly the grid the tests lock down.
SweepConfig smoke_sweep();

/// The fleet smoke grid (rounds 1): cluster size x dispatch policy x batch
/// window over the fleet_cluster rig on fleet_short_horizon() — 8 points.
/// Seeded by `sweep --smoke --rounds N` and pinned by tests/test_fleet.cpp.
SweepConfig fleet_smoke_sweep();

}  // namespace seo
