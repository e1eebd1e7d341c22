// Multi-process sweep tests: the plan's run identity, the pipe frame
// discipline, the worker side of the assign protocol, and the worker-farm
// failure taxonomy (a dead, stale or babbling worker must fail the sweep
// loudly, never leave a silent hole or kill the parent; a worker that
// exits 2 on a configuration error fails it as that error).
// The end-to-end `sweep --workers N` byte-identity matrix (experiment and
// fleet grids), the farm's size cap and the CLI's usage errors drive the
// real CLI binary when CMake baked its path in (SEO_SWEEP_TOOL).
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/binary_io.hpp"
#include "sim/fleet_experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_report.hpp"
#include "sim/sweep_shard.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

// A 4-point grid over small tables — big enough to shard meaningfully,
// small enough that the multi-run identity tests stay fast.
SweepConfig tiny_sweep() {
  SweepConfig config;
  config.scenarios = {"paper_default"};
  config.axes = {{"channel_mbps", {"8", "12", "16", "20"}}};
  config.base_overrides = {{"road_length", "45"},
                           {"max_episode_s", "12"},
                           {"table_distance_bins", "15"},
                           {"table_bearing_bins", "9"},
                           {"table_speed_bins", "9"}};
  config.episodes = 2;
  config.max_attempts = 8;
  config.require_success = false;
  return config;
}

// The tiny_sweep() config expressed as sweep CLI flags — the two must
// resolve to the identical plan (the hello handshake's run_digest check
// fails the farm tests if they ever drift).
std::vector<std::string> tiny_sweep_args() {
  return {"--scenarios", "paper_default",
          "--axis",      "channel_mbps=8,12,16,20",
          "--set",       "road_length=45",
          "--set",       "max_episode_s=12",
          "--set",       "table_distance_bins=15",
          "--set",       "table_bearing_bins=9",
          "--set",       "table_speed_bins=9",
          "--episodes",  "2",
          "--max-attempts", "8",
          "--allow-failures"};
}

// A 3-point fleet grid (dispatch policies, 2 rounds of 3 vehicles each on
// the short horizon): its rows carry the fleet metrics over the wire.
SweepConfig tiny_fleet_sweep() {
  SweepConfig config;
  config.scenarios = {"fleet_cluster"};
  config.axes = {
      {"cluster.dispatch", {"round_robin", "least_loaded", "earliest_slack"}}};
  config.base_overrides = fleet_short_horizon();
  config.rounds = 2;
  return config;
}

std::vector<std::string> tiny_fleet_sweep_args() {
  std::vector<std::string> args = {
      "--scenarios", "fleet_cluster",
      "--axis",      "cluster.dispatch=round_robin,least_loaded,earliest_slack",
      "--rounds",    "2"};
  for (const auto& [key, value] : fleet_short_horizon())
    args.insert(args.end(), {"--set", key + "=" + value});
  return args;
}

// --- Planner ----------------------------------------------------------------

TEST(SweepPlan, PlanIsAPureFunctionOfTheConfig) {
  const SweepPlan a = plan_sweep(tiny_sweep());
  const SweepPlan b = plan_sweep(tiny_sweep());
  EXPECT_NE(a.run_digest, 0u);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.order, b.order);
  // A different grid is a different run identity.
  SweepConfig other = tiny_sweep();
  other.axes[0].values = {"8", "12", "16"};
  EXPECT_NE(plan_sweep(other).run_digest, a.run_digest);
}

// --- Pipe frame discipline --------------------------------------------------

TEST(FrameAssembler, ReassemblesFramesFedByteByByte) {
  std::string wire;
  append_frame(wire, 1, "hello");
  append_frame(wire, 2, std::string("\0\x7f payload", 10));
  append_frame(wire, 3, "");
  FrameAssembler frames;
  std::vector<std::pair<std::uint8_t, std::string>> out;
  std::uint8_t type = 0;
  std::string payload;
  for (const char byte : wire) {
    frames.feed(&byte, 1);  // worst-case read(2): one byte at a time
    while (frames.next(type, payload)) out.emplace_back(type, payload);
  }
  EXPECT_TRUE(frames.idle());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second, "hello");
  EXPECT_EQ(out[1].second, std::string("\0\x7f payload", 10));
  EXPECT_EQ(out[2].first, 3);
  EXPECT_TRUE(out[2].second.empty());
}

TEST(FrameAssembler, PartialFrameIsNotIdle) {
  std::string wire;
  append_frame(wire, 1, "abc");
  FrameAssembler frames;
  frames.feed(wire.data(), wire.size() - 1);  // checksum byte in flight
  std::uint8_t type = 0;
  std::string payload;
  EXPECT_FALSE(frames.next(type, payload));
  EXPECT_FALSE(frames.idle());  // how EOF here is diagnosed as truncation
  EXPECT_EQ(frames.buffered(), wire.size() - 1);
}

TEST(FrameAssembler, RejectsCorruptFrames) {
  std::string wire;
  append_frame(wire, 1, "abc");
  wire.back() ^= 0x01;  // tamper with the checksum
  FrameAssembler frames;
  frames.feed(wire.data(), wire.size());
  std::uint8_t type = 0;
  std::string payload;
  EXPECT_THROW(frames.next(type, payload), BinaryIoError);
}

TEST(FrameAssembler, RejectsRunawayLengthFields) {
  // Garbage on the pipe (a worker printing text, say) decodes as an
  // absurd length field — that must throw, not allocate gigabytes.
  const std::string garbage = "--shard-pipe --shard-trace\n";
  FrameAssembler frames;
  frames.feed(garbage.data(), garbage.size());
  std::uint8_t type = 0;
  std::string payload;
  EXPECT_THROW(frames.next(type, payload), BinaryIoError);
}

// --- Worker side of the assign protocol -------------------------------------

std::string assign_frame(std::uint64_t index) {
  std::string payload;
  BinaryWriter(payload).u64(index);
  std::string frame;
  append_frame(frame, static_cast<std::uint8_t>(SweepShardFrame::kAssign),
               payload);
  return frame;
}

// Runs run_sweep_worker in-process with `assigns` already queued on a
// closed pipe as its assign channel; returns the frames it wrote.
std::vector<std::pair<std::uint8_t, std::string>> run_worker_on(
    const SweepConfig& config, const std::vector<std::uint64_t>& assigns) {
  int in[2];
  EXPECT_EQ(::pipe(in), 0);
  std::string wire;
  for (const std::uint64_t index : assigns) wire += assign_frame(index);
  EXPECT_EQ(::write(in[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ::close(in[1]);  // every point handed out: the worker must see EOF
  const std::string path = ::testing::TempDir() + "/sweep_worker_frames.bin";
  const int out = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  EXPECT_GE(out, 0);
  EXPECT_EQ(run_sweep_worker(config, false, in[0], out), 0);
  ::close(in[0]);
  ::close(out);

  std::ifstream file(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(file),
                          std::istreambuf_iterator<char>()};
  FrameAssembler frames;
  frames.feed(bytes.data(), bytes.size());
  std::vector<std::pair<std::uint8_t, std::string>> out_frames;
  std::uint8_t type = 0;
  std::string payload;
  while (frames.next(type, payload)) out_frames.emplace_back(type, payload);
  EXPECT_TRUE(frames.idle());
  return out_frames;
}

TEST(SweepWorker, AssignEofSendsDoneWithTheEmittedCount) {
  SweepConfig config = tiny_sweep();
  config.threads = 2;
  const SweepPlan plan = plan_sweep(config);
  for (const std::vector<std::uint64_t>& assigns :
       {std::vector<std::uint64_t>{3, 1}, std::vector<std::uint64_t>{}}) {
    const auto frames = run_worker_on(config, assigns);
    ASSERT_EQ(frames.size(), assigns.size() + 2);  // hello, points, done

    ASSERT_EQ(frames.front().first,
              static_cast<std::uint8_t>(SweepShardFrame::kHello));
    BinaryReader hello{std::string_view(frames.front().second)};
    EXPECT_EQ(hello.u16(), kSweepShardProtocolVersion);
    EXPECT_EQ(hello.u64(), plan.run_digest);
    EXPECT_EQ(hello.u64(), plan.points.size());
    EXPECT_EQ(hello.u32(), 2u);  // runners = --threads
    hello.require_exhausted("hello");

    std::vector<std::uint64_t> points;
    for (std::size_t f = 1; f + 1 < frames.size(); ++f) {
      ASSERT_EQ(frames[f].first,
                static_cast<std::uint8_t>(SweepShardFrame::kPoint));
      points.push_back(BinaryReader{std::string_view(frames[f].second)}.u64());
    }
    std::sort(points.begin(), points.end());
    std::vector<std::uint64_t> expected = assigns;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(points, expected);

    ASSERT_EQ(frames.back().first,
              static_cast<std::uint8_t>(SweepShardFrame::kDone));
    EXPECT_EQ(BinaryReader{std::string_view(frames.back().second)}.u64(),
              assigns.size());
  }
}

TEST(SweepWorker, AssignBeyondTheGridThrows) {
  const SweepConfig config = tiny_sweep();
  EXPECT_THROW(run_worker_on(config, {plan_sweep(config).points.size()}),
               std::runtime_error);
}

// --- Worker-farm failure taxonomy -------------------------------------------

// A hello frame as a worker of `version` would send it for `plan`.  Version
// 1 workers announced their owned-slice size where later versions announce
// their runner count.
std::string hello_frame(std::uint16_t version, const SweepPlan& plan) {
  std::string payload;
  BinaryWriter w(payload);
  w.u16(version);
  w.u64(plan.run_digest);
  w.u64(plan.points.size());
  if (version == 1)
    w.u64(plan.points.size());
  else
    w.u32(1);
  std::string frame;
  append_frame(frame, static_cast<std::uint8_t>(SweepShardFrame::kHello),
               payload);
  return frame;
}

// Runs a one-worker farm whose worker is `/bin/sh -c script`, with the
// canned `frame` bytes at $FRAME; returns the parent's error message, or ""
// if the farm succeeded.
std::string farm_error(const SweepPlan& plan, const std::string& frame,
                       const std::string& script) {
  const std::string path = ::testing::TempDir() + "/sweep_canned_hello.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << frame;
  }
  try {
    (void)run_sweep_workers(tiny_sweep(), plan, "/bin/sh",
                            {"-c", "FRAME=" + path + "; " + script}, 1,
                            nullptr);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SweepWorkers, VersionOneHelloIsRejected) {
  const SweepPlan plan = plan_sweep(tiny_sweep());
  const std::string error =
      farm_error(plan, hello_frame(1, plan), "cat \"$FRAME\"; sleep 5");
  EXPECT_NE(error.find("protocol version 1"), std::string::npos) << error;
}

TEST(SweepWorkers, WorkerExitingAfterHelloIsALoudCrashNotSigpipe) {
  // The worker closes its assign channel, says hello and exits: the
  // parent's first assign write hits a closed channel.  That must surface
  // as the worker-crash error — a SIGPIPE would kill this test binary.
  const SweepPlan plan = plan_sweep(tiny_sweep());
  const std::string error =
      farm_error(plan, hello_frame(kSweepShardProtocolVersion, plan),
                 "exec 0<&-; cat \"$FRAME\"");
  EXPECT_NE(error.find("crashed"), std::string::npos) << error;
}

TEST(SweepWorkers, WorkerDyingBeforeItsDoneFrameFailsTheSweep) {
  // /bin/true exits 0 without ever writing a frame: EOF before the done
  // frame is the crash signature and must fail the whole sweep, as must a
  // worker that exits 1 or is killed by a signal.
  const SweepPlan plan = plan_sweep(tiny_sweep());
  EXPECT_THROW(
      run_sweep_workers(tiny_sweep(), plan, "/bin/true", {}, 2, nullptr),
      std::runtime_error);
  for (const char* script : {"exit 1", "kill -9 $$"})
    EXPECT_THROW(run_sweep_workers(tiny_sweep(), plan, "/bin/sh",
                                   {"-c", script}, 1, nullptr),
                 std::runtime_error)
        << script;
  // Exit 2 is a configuration error the worker hit running a point and
  // already printed: the sweep fails as that error, not as a crash.
  EXPECT_THROW(run_sweep_workers(tiny_sweep(), plan, "/bin/sh",
                                 {"-c", "exit 2"}, 1, nullptr),
               ContractViolation);
}

TEST(SweepWorkers, WorkerWritingGarbageFailsTheSweep) {
  // /bin/echo prints its argv to the pipe — valid text, corrupt frames.
  const SweepPlan plan = plan_sweep(tiny_sweep());
  EXPECT_THROW(
      run_sweep_workers(tiny_sweep(), plan, "/bin/echo", {}, 2, nullptr),
      std::runtime_error);
}

#ifdef SEO_SWEEP_TOOL

// Runs `config` in process with a trace sink attached and returns the
// stream bytes.
std::string traced_run(const SweepConfig& config) {
  std::ostringstream out;
  OrderedTraceSink sink(out);
  (void)run_sweep(config, &sink);
  sink.finish();
  return out.str();
}

TEST(SweepWorkers, FarmMatchesInProcessRunBitForBit) {
  // The experiment grid sends 18 metrics per point over the wire, the
  // fleet grid 23.
  const std::vector<std::pair<SweepConfig, std::vector<std::string>>> grids =
      {{tiny_sweep(), tiny_sweep_args()},
       {tiny_fleet_sweep(), tiny_fleet_sweep_args()}};
  for (const auto& [config, args] : grids) {
    const SweepPlan plan = plan_sweep(config);
    const std::vector<SweepRow> rows = run_sweep(config);
    const std::string whole = traced_run(config);

    std::vector<std::string> worker_args = args;
    worker_args.insert(worker_args.end(), {"--threads", "1"});
    std::ostringstream stream;
    OrderedTraceSink sink(stream);
    const SweepWorkersResult farm = run_sweep_workers(
        config, plan, SEO_SWEEP_TOOL, worker_args, 2, &sink);
    sink.finish();

    std::vector<std::vector<double>> expected;
    for (const SweepRow& row : rows)
      expected.push_back(sweep_metrics(config, row));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(expected[0].size(), sweep_metric_names(config).size());
    EXPECT_EQ(farm.metrics, expected) << config.rounds;
    EXPECT_EQ(stream.str(), whole) << config.rounds;
    // The farm's summed stats must cover the workers' table builds: two
    // single-threaded workers, at least one build or disk load each.
    EXPECT_GE(farm.stats.builds + farm.stats.disk_loads, 2u) << config.rounds;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string sweep_command(const std::vector<std::string>& args) {
  std::string cmd = SEO_SWEEP_TOOL;
  for (const std::string& arg : args) cmd += " '" + arg + "'";
  return cmd;
}

// The acceptance matrix: report and trace bytes out of `sweep` must be
// identical at every --workers x --threads combination, for experiment
// and fleet grids alike.
TEST(SweepWorkers, CliByteIdentityAcrossWorkerAndThreadCounts) {
  const std::string dir = ::testing::TempDir();
  for (const auto& [kind, args] :
       {std::pair{"sweep", tiny_sweep_args()},
        std::pair{"fleet", tiny_fleet_sweep_args()}}) {
    std::string reference_csv;
    std::string reference_trace;
    for (const int workers : {1, 2, 4}) {
      for (const int threads : {1, 2, 0}) {
        const std::string tag = std::string(kind) + "_w" +
                                std::to_string(workers) + "t" +
                                std::to_string(threads);
        const std::string csv = dir + "/" + tag + ".csv";
        const std::string trace = dir + "/" + tag + ".trace";
        const std::string cmd =
            sweep_command(args) + " --threads " + std::to_string(threads) +
            " --workers " + std::to_string(workers) + " --output " + csv +
            " --trace-out " + trace + " 2>/dev/null";
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
        if (reference_csv.empty()) {
          reference_csv = slurp(csv);
          reference_trace = slurp(trace);
          ASSERT_FALSE(reference_csv.empty());
          ASSERT_FALSE(reference_trace.empty());
        } else {
          EXPECT_EQ(slurp(csv), reference_csv) << tag;
          EXPECT_EQ(slurp(trace), reference_trace) << tag;
        }
      }
    }
  }
}

TEST(SweepWorkers, FarmIsCappedAtThePointCount) {
  // 40 requested workers on a 4-point grid: only 4 are spawned.  (Which
  // worker pulls which point is a race, so the per-worker split is not
  // asserted.)
  const std::string log = ::testing::TempDir() + "/sweep_farm_cap.log";
  std::vector<std::string> args = tiny_sweep_args();
  args.insert(args.end(), {"--workers", "40", "--threads", "1", "--stats",
                           "--output", "/dev/null"});
  const std::string cmd = sweep_command(args) + " 2>" + log;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string stderr_text = slurp(log);
  EXPECT_NE(stderr_text.find("farm: 4 workers, 4 points pulled"),
            std::string::npos)
      << stderr_text;
}

// Out-of-range integers, unknown flags and flag combinations that mix the
// point kinds are usage errors, and hostile scenario values configuration
// errors: all exit 2, in process and under --workers.
TEST(SweepCli, RejectsOutOfRangeAndMismatchedFlags) {
  const std::string vehicles = ::testing::TempDir() + "/sweep_vehicles.csv";
  const std::vector<std::vector<std::string>> cases = {
      {"--smoke", "--episodes", "4294967297"},
      {"--smoke", "--episodes", "0"},
      {"--smoke", "--max-attempts", "0"},
      {"--smoke", "--max-attempts", "4294967297"},
      {"--smoke", "--rounds", "4294967297"},
      {"--smoke", "--rounds", "0"},
      {"--smoke", "--threads", "4294967297"},
      {"--smoke", "--threads", "-3"},
      {"--smoke", "--workers", "-1"},
      {"--smoke", "--seed", "-1"},
      {"--smoke", "--rounds", "1", "--episodes", "2"},
      {"--smoke", "--rounds", "1", "--max-attempts", "8"},
      {"--smoke", "--allow-failures", "--rounds", "1"},
      {"--smoke", "--vehicles-output", vehicles},
      {"--smoke", "--rounds", "1", "--vehicles-output", vehicles,
       "--workers", "2"},
      // There is no `--shard` flag.
      {"--smoke", "--shard", "0/2"},
      {"--smoke", "--rounds", "1", "--set", "fleet.vehicles=-1",
       "--trace-out", "/dev/null"},
      // Contract violations raised inside pool chunks cross the join.
      {"--smoke", "--set", "filter_engage_margin=nan", "--threads", "0"},
      {"--smoke", "--rounds", "1", "--set", "filter_engage_margin=nan",
       "--threads", "0"},
      {"--smoke", "--set", "table_threads=-3"},
      {"--smoke", "--set", "table_threads=-3", "--threads", "0"},
      // Outside the KBM's speed domain: NaN crashed and inf hung.
      {"--smoke", "--set", "initial_speed=nan"},
      {"--smoke", "--set", "initial_speed=inf"},
      {"--smoke", "--set", "initial_speed=-1"},
      {"--smoke", "--set", "initial_speed=nan", "--threads", "0"},
      {"--smoke", "--set", "initial_speed=inf", "--threads", "0"},
      {"--smoke", "--set", "initial_speed=-1", "--threads", "0"},
      // Vehicle parameters the KBM cannot integrate: 1e308 hung in
      // wrap_angle, inf ran to completion.
      {"--smoke", "--set", "vehicle_max_accel=1e308"},
      {"--smoke", "--set", "vehicle_max_speed=inf"},
      {"--smoke", "--set", "vehicle_max_accel=1e308", "--threads", "0"},
      // A size whose byte count does not fit in 64 bits, and a setting
      // that does not exist (the store has no in-memory budget).
      {"--smoke", "--cache", "budget-mb=1e300"},
      {"--smoke", "--cache", "mem-mb=1e300"},
      // Table reuse is the `table_cache` key; `--cache on` is no spelling.
      {"--smoke", "--cache", "on"},
      // A negative cap sized the tally's bucket vector before its check;
      // episode lengths whose tick count no counter holds ran zero ticks.
      {"--scenarios", "paper_default", "--episodes", "1", "--max-attempts",
       "1", "--allow-failures", "--set", "deadline_cap=-3"},
      {"--scenarios", "paper_default", "--episodes", "1", "--max-attempts",
       "1", "--allow-failures", "--set", "max_episode_s=nan"},
      {"--scenarios", "paper_default", "--episodes", "1", "--max-attempts",
       "1", "--allow-failures", "--set", "max_episode_s=inf"},
      {"--scenarios", "paper_default", "--episodes", "1", "--max-attempts",
       "1", "--allow-failures", "--set", "max_episode_s=1e300"},
      // Every episode runs at base_seed + k: a `seed` axis or override
      // printed identical rows.  The base seed is --seed.
      {"--scenarios", "paper_default", "--axis", "seed=1,2", "--episodes",
       "1", "--max-attempts", "2", "--set", "road_length=45", "--set",
       "max_episode_s=12"},
      {"--smoke", "--axis", "seed=1,2"},
      {"--smoke", "--set", "seed=5"},
      {"--smoke", "--rounds", "1", "--axis", "seed=1,2"},
      {"--smoke", "--rounds", "1", "--set", "seed=5"},
      // An infinite service time wrote `-nan` into the report and exited 0.
      {"--scenarios", "fleet_cluster", "--rounds", "1", "--set",
       "road_length=45", "--set", "max_episode_s=12", "--set",
       "cluster.service_ms=inf"},
      // Raised while a worker runs a point: the worker exits 2, and so
      // must the parent.
      {"--smoke", "--set", "filter_engage_margin=nan", "--workers", "2"},
      {"--smoke", "--set", "initial_speed=inf", "--workers", "2"},
      {"--smoke", "--set", "table_threads=-3", "--workers", "2"},
      {"--smoke", "--rounds", "1", "--set", "fleet.vehicles=0", "--workers",
       "2"},
      {"--scenarios", "fleet_cluster", "--rounds", "1", "--set",
       "road_length=45", "--set", "max_episode_s=12", "--set",
       "cluster.service_ms=inf", "--workers", "2"},
  };
  for (const auto& args : cases) {
    const std::string cmd =
        sweep_command(args) + " --output /dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  }
}

// 1e308 hours is +inf seconds: an age cap no artifact can exceed.  The
// sweep must accept it, keep every artifact (however old) and report the
// same bytes; the cap never passes through an integer conversion.
TEST(SweepCli, HugeAgeCapKeepsEveryArtifact) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "sweep_age_cap";
  fs::remove_all(dir);
  const std::string reference = (dir / "reference.csv").string();
  const std::string capped = (dir / "capped.csv").string();
  const fs::path artifacts = dir / "artifacts";
  const auto artifact_names = [&] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(artifacts))
      if (entry.path().extension() == ".bin")
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
  };
  fs::create_directories(dir);
  std::string cmd = sweep_command({"--smoke", "--cache",
                                   "dir=" + artifacts.string(), "--output",
                                   reference}) +
                    " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::vector<std::string> stored = artifact_names();
  ASSERT_FALSE(stored.empty());
  // Forty years unused: any finite cap of hours would drop all but one.
  for (const std::string& name : stored)
    fs::last_write_time(artifacts / name,
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(24 * 365 * 40));
  cmd = sweep_command({"--smoke", "--cache",
                       "dir=" + artifacts.string() + ",max-age-h=1e308,gc",
                       "--output", capped}) +
        " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  EXPECT_EQ(artifact_names(), stored);
  EXPECT_EQ(slurp(capped), slurp(reference));
  fs::remove_all(dir);
}

// One table store means one stats line: the CI seds and perfbench's
// parser read the `[dtable]` line, in process and summed over a farm.
TEST(SweepCli, StatsPrintOneTableStoreLine) {
  const std::string log = ::testing::TempDir() + "/sweep_stats.log";
  for (const std::string workers : {"1", "2"}) {
    const std::string cmd =
        sweep_command({"--smoke", "--stats", "--workers", workers,
                       "--output", "/dev/null"}) +
        " 2>" + log;
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::istringstream stderr_text(slurp(log));
    std::vector<std::string> store_lines;
    for (std::string line; std::getline(stderr_text, line);)
      if (line.rfind("artifact store [", 0) == 0) store_lines.push_back(line);
    ASSERT_EQ(store_lines.size(), 1u) << cmd;
    EXPECT_EQ(store_lines[0].rfind("artifact store [dtable]: ", 0), 0u)
        << store_lines[0];
  }
}

// The startup GC is the parent's: `--workers` children run only the points
// they are assigned, so one `--cache gc` prints one `artifact gc:` line.
TEST(SweepCli, StartupGcRunsOnceUnderWorkers) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "sweep_gc_once";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string log = (dir / "stderr.log").string();
  const std::string cmd =
      sweep_command({"--smoke", "--workers", "2", "--cache",
                     "dir=" + (dir / "artifacts").string() + ",gc",
                     "--output", "/dev/null"}) +
      " 2>" + log;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::istringstream stderr_text(slurp(log));
  std::size_t gc_lines = 0;
  for (std::string line; std::getline(stderr_text, line);)
    if (line.rfind("artifact gc:", 0) == 0) ++gc_lines;
  EXPECT_EQ(gc_lines, 1u) << slurp(log);
  fs::remove_all(dir);
}

#endif  // SEO_SWEEP_TOOL

}  // namespace
}  // namespace seo
