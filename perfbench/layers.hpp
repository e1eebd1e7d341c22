// The traced per-layer run and the replay self-test.
//
// Layer timings come from the benchmark's own spans around calls into the
// simulator's public functions.  Per-tick layers are timed on replayed
// episodes: each episode is recorded once through run_episode, its World
// is rebuilt from the scenario seed and driven by the recorded controls
// (so every state is bit-exact), and each layer's call is then timed in a
// batch over those exact states.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

/// Replays one episode of every grid point and checks that the rebuilt
/// World reaches every recorded state, and the recorded end state,
/// bit-for-bit, and that the rebuilt table key equals
/// scenario_table_digest.  Prints one line per episode; returns the number
/// of episodes that failed a check.
int replay_self_test(std::uint64_t seed);

/// The traced run: every per-layer metric, whatever the workload.
Outcome run_layer_profile(const Options& options);

}  // namespace perfbench
