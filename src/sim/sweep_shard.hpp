// Multi-process sweep execution: `sweep --workers N` forks N self-exec
// worker processes and acts as their point cursor — each worker pulls the
// next grid point of the digest-grouped schedule as its runners free up
// and streams results back over a pipe; the parent merges them into the
// same report and trace bytes an in-process run produces.  A worker is a
// plain point executor: it runs what it is assigned and none of the
// parent's startup (no slot number, no `--cache gc` sweep).
//
// ## Wire protocol (version 5)
//
// Two channels per worker, both carrying binary_io frames (append_frame /
// FrameAssembler: u8 type | u64 size | payload | u64 FNV-1a checksum):
// the worker's stdout (worker → parent) and its stdin (parent → worker,
// the assign channel).  Frame payloads, little-endian fixed width
// throughout:
//
//   1 hello   u16 protocol version | u64 run_digest | u64 grid points
//             | u32 runners
//             — sent first; the parent cross-checks its own plan, so a
//             config-drifted worker is rejected before any result lands,
//             then sends `runners` assign frames (fewer if the grid runs
//             out).
//   4 assign  u64 grid index            (parent → worker)
//             — one point to run.  The parent sends one more for every
//             point frame it receives, so a worker always holds one
//             assignment per runner, and closes the assign channel once
//             every point is out; the worker reads that EOF, lets its
//             runners finish, and sends done.
//   2 point   u64 grid index | u32 metric count | f64 metrics (raw IEEE
//             bits, sweep_metric_names(config) order: 18 for experiment
//             points, 23 for fleet points) | u64 trace episodes
//             | u8 has_trace | trace block bytes (rest of payload)
//             — one per completed grid point, in completion order.
//   3 done    u64 points emitted | 9 u64 ArtifactStoreStats fields, in
//             encode_stats order (sweep_shard.cpp)
//             — the worker's table-store stats, summed by the parent so
//             `--stats` reports the whole farm.  EOF *without* a done
//             frame is how a crashed worker is detected and rejected.
//
// Metrics travel as raw double bits and trace blocks as the exact
// append_trace_episode bytes, so the parent's merged report and
// OrderedTraceSink output are bit-identical to `--workers 1` by
// construction — there is no re-encode step that could drift, and which
// worker ran which point never reaches the output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "sim/sweep.hpp"

namespace seo {

inline constexpr std::uint16_t kSweepShardProtocolVersion = 5;

/// Frame types on the worker's channels.
enum class SweepShardFrame : std::uint8_t {
  kHello = 1,
  kPoint = 2,
  kDone = 3,
  kAssign = 4,
};

/// Worker side (`sweep --shard-pipe`): plans the sweep, sends hello to
/// `out_fd`, runs every point the parent assigns on `in_fd` with
/// sweep_runners(config, grid points) runners, and once `in_fd` reaches
/// EOF sends done.  `want_trace` embeds each point's serialized trace block
/// in its point frame.  Returns the process exit code (0 on success);
/// throws on a malformed assignment.
int run_sweep_worker(const SweepConfig& config, bool want_trace, int in_fd,
                     int out_fd);

/// What the parent assembled from a worker farm.
struct SweepWorkersResult {
  /// Per grid point, in grid order: the point's sweep_metrics values,
  /// bit-exact as the worker computed them.
  std::vector<std::vector<double>> metrics;
  /// Table-store stats summed across every worker — the farm-wide view
  /// `--stats` and the CI built-exactly-once assertion read.
  ArtifactStoreStats stats;
  /// The parent's assign ledger: per worker slot, the grid indices it was
  /// handed, in hand-out order — what `--stats` prints as the farm line.
  std::vector<std::vector<std::size_t>> pulled;
};

/// Parent side: spawns min(`workers`, grid points) processes running `exe`
/// with `worker_args` plus `--shard-pipe` (and `--shard-trace` with a
/// sink), hands out the plan's points over each worker's assign channel in
/// schedule order as the worker's runners free up, and merges the frame streams (`config` picks
/// the per-point metric count they carry) — metrics into grid-order
/// slots, trace blocks into `trace_sink` under global grid indices (the
/// sink's ordered flush then reproduces the in-process stream
/// byte-for-byte).  Validates every hello against `plan`, requires every
/// point back exactly once from the worker it was assigned to, and throws
/// std::runtime_error on a worker crash (EOF before done, mid-frame
/// truncation, a closed assign channel, nonzero exit) — a dead worker is
/// loud, never a silent hole or a SIGPIPE.  A worker that closed its
/// channels by exiting 2 (a configuration error raised while it ran a
/// point) throws ContractViolation instead, so the farm fails with the
/// exit code an in-process run gives.
SweepWorkersResult run_sweep_workers(
    const SweepConfig& config, const SweepPlan& plan, const std::string& exe,
    const std::vector<std::string>& worker_args, std::size_t workers,
    OrderedTraceSink* trace_sink);

/// The running binary's path (/proc/self/exe, falling back to `argv0`) —
/// what the parent self-execs workers with.
std::string sweep_self_exe(const char* argv0);

}  // namespace seo
