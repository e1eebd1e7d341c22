#include "sim/sweep_shard.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/binary_io.hpp"
#include "safety/table_cache.hpp"
#include "sim/sweep_report.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"
#include "util/thread_pool.hpp"

namespace seo {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Full write with EINTR/short-write handling — frames must land whole.
void write_frame_bytes(int fd, const std::string& frame) {
  const char* data = frame.data();
  std::size_t size = frame.size();
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("sweep shard pipe write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// The done frame's table-store stats fields, in wire order: the one
/// list both encode_stats and decode_stats walk.
template <typename Stats, typename Visit>
void for_each_stats_field(Stats& s, Visit&& visit) {
  for (auto* field : {&s.hits, &s.misses, &s.builds, &s.waits, &s.lock_waits,
                      &s.bytes, &s.disk_loads, &s.disk_stores,
                      &s.disk_failures})
    visit(*field);
}

void encode_stats(const ArtifactStoreStats& s, BinaryWriter& w) {
  for_each_stats_field(s, [&](std::uint64_t field) { w.u64(field); });
}

ArtifactStoreStats decode_stats(BinaryReader& r) {
  ArtifactStoreStats s;
  for_each_stats_field(s, [&](std::uint64_t& field) { field = r.u64(); });
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

int run_sweep_worker(const SweepConfig& config, std::size_t slot,
                     std::size_t slots, bool want_trace, int in_fd,
                     int out_fd) {
  const SweepPlan plan = plan_sweep(config);
  const std::size_t runners = sweep_runners(config, plan.points.size());

  {
    std::string payload;
    BinaryWriter w(payload);
    w.u16(kSweepShardProtocolVersion);
    w.u32(static_cast<std::uint32_t>(slot));
    w.u32(static_cast<std::uint32_t>(slots));
    w.u64(plan.run_digest);
    w.u64(plan.points.size());
    w.u32(static_cast<std::uint32_t>(runners));
    std::string frame;
    append_frame(frame, static_cast<std::uint8_t>(SweepShardFrame::kHello),
                 payload);
    write_frame_bytes(out_fd, frame);
  }

  // The assign channel is the runners' point source: one runner at a time
  // takes the next assign frame, blocking on the parent while none is
  // buffered; EOF (the parent has handed out every point) drains them all.
  std::mutex assign_mutex;
  FrameAssembler assigns;
  bool assign_eof = false;
  const SweepPointSource next_point = [&]() -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(assign_mutex);
    std::uint8_t type = 0;
    std::string payload;
    while (!assigns.next(type, payload)) {
      if (assign_eof) {
        if (!assigns.idle())
          throw std::runtime_error(
              "sweep worker: assign channel closed mid-frame");
        return std::nullopt;
      }
      char buf[256];
      const ssize_t got = ::read(in_fd, buf, sizeof buf);
      if (got < 0) {
        if (errno == EINTR) continue;
        throw_errno("sweep worker: assign channel read failed");
      }
      if (got == 0)
        assign_eof = true;
      else
        assigns.feed(buf, static_cast<std::size_t>(got));
    }
    if (static_cast<SweepShardFrame>(type) != SweepShardFrame::kAssign)
      throw std::runtime_error(
          "sweep worker: unexpected frame type " + std::to_string(type) +
          " on the assign channel");
    BinaryReader r{std::string_view(payload)};
    const std::uint64_t index = r.u64();
    r.require_exhausted("sweep assign frame");
    if (index >= plan.points.size())
      throw std::runtime_error("sweep worker: assigned grid point " +
                               std::to_string(index) + " beyond the grid");
    return static_cast<std::size_t>(index);
  };

  std::mutex pipe_mutex;
  std::uint64_t emitted = 0;
  execute_sweep_points(
      config, plan, next_point, runners, want_trace,
      [&](std::size_t index, SweepRow&& row, std::string&& block,
          std::uint64_t episodes) {
        const std::vector<double> metrics = sweep_metrics(config, row);
        std::string payload;
        payload.reserve(8 + 4 + metrics.size() * 8 + 8 + 1 + block.size());
        BinaryWriter w(payload);
        w.u64(index);
        w.u32(static_cast<std::uint32_t>(metrics.size()));
        for (const double m : metrics) w.f64(m);
        w.u64(episodes);
        w.u8(want_trace ? 1 : 0);
        w.bytes(block.data(), block.size());
        std::string frame;
        append_frame(frame, static_cast<std::uint8_t>(SweepShardFrame::kPoint),
                     payload);
        // One lock per point: pool threads emit concurrently and a frame
        // interleaved with another would corrupt the stream.
        const std::lock_guard<std::mutex> lock(pipe_mutex);
        write_frame_bytes(out_fd, frame);
        ++emitted;
      });

  {
    std::string payload;
    BinaryWriter w(payload);
    w.u64(emitted);
    encode_stats(DeadlineTableCache::global().stats(), w);
    std::string frame;
    append_frame(frame, static_cast<std::uint8_t>(SweepShardFrame::kDone),
                 payload);
    write_frame_bytes(out_fd, frame);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

std::string sweep_self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

namespace {

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;         ///< read end of the worker's frame pipe
  int assign_fd = -1;  ///< parent end of the worker's assign channel
  FrameAssembler frames;
  bool hello = false;
  bool done = false;
  std::vector<std::size_t> pulled;  ///< grid indices assigned, in order
  std::string name;  ///< "sweep worker 2/8" for diagnostics
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Writes assign frames to a worker.  send(MSG_NOSIGNAL) on the socket
/// channel turns a worker that already exited into EPIPE — reported as the
/// crash it is — instead of a SIGPIPE that would kill the parent.
void send_assigns(WorkerProc& w, const std::string& bytes) {
  const char* data = bytes.data();
  std::size_t size = bytes.size();
  while (size > 0) {
    const ssize_t n = ::send(w.assign_fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw std::runtime_error(
            w.name + " closed its assign channel — the worker crashed "
                     "mid-sweep");
      throw_errno("assigning points to " + w.name + " failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Kills and reaps whatever the merge loop left behind — an exception must
/// never strand live children or leak pipe fds.  After a clean run every
/// fd is closed and every pid reaped, and this is a no-op.
struct FleetGuard {
  std::vector<WorkerProc>& fleet;
  ~FleetGuard() {
    for (WorkerProc& w : fleet) {
      close_fd(w.fd);
      close_fd(w.assign_fd);
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
      }
    }
  }
};

}  // namespace

SweepWorkersResult run_sweep_workers(
    const SweepConfig& config, const SweepPlan& plan, const std::string& exe,
    const std::vector<std::string>& worker_args, std::size_t workers,
    OrderedTraceSink* trace_sink) {
  SEO_EXPECT(workers >= 1);
  SEO_EXPECT(!exe.empty());
  const std::size_t n = plan.points.size();
  // A worker beyond the point count would never be assigned anything.
  workers = std::min(workers, n);
  const std::size_t metric_count = sweep_metric_names(config).size();
  if (trace_sink != nullptr) trace_sink->set_run_digest(plan.run_digest);

  std::vector<WorkerProc> fleet(workers);
  FleetGuard guard{fleet};

  for (std::size_t i = 0; i < workers; ++i) {
    WorkerProc& w = fleet[i];
    w.name = "sweep worker " + std::to_string(i) + "/" +
             std::to_string(workers);

    // argv assembled before fork: the child must only dup/close/exec.
    std::vector<std::string> args;
    args.reserve(worker_args.size() + 5);
    args.push_back(exe);
    for (const std::string& a : worker_args) args.push_back(a);
    args.push_back("--shard");
    args.push_back(std::to_string(i) + "/" + std::to_string(workers));
    args.push_back("--shard-pipe");
    if (trace_sink != nullptr) args.push_back("--shard-trace");
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    // Both channels close-on-exec, so no later worker inherits an earlier
    // one's ends — an inherited assign end would hold its EOF back forever.
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
      throw_errno("pipe() failed spawning " + w.name);
    int assign[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, assign) != 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw_errno("socketpair() failed spawning " + w.name);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const int fd : {fds[0], fds[1], assign[0], assign[1]}) ::close(fd);
      throw_errno("fork() failed spawning " + w.name);
    }
    if (pid == 0) {
      // Child: assignments come in on stdin, frames go out on stdout
      // (dup2 clears close-on-exec); stderr stays shared so worker
      // diagnostics reach the operator unmixed with the binary stream.
      if (::dup2(assign[1], STDIN_FILENO) < 0 ||
          ::dup2(fds[1], STDOUT_FILENO) < 0)
        ::_exit(127);
      ::execv(exe.c_str(), argv.data());
      ::_exit(127);  // exec failed; 127 matches the shell convention
    }
    ::close(fds[1]);  // the worker's ends live only in the child
    ::close(assign[1]);
    w.pid = pid;
    w.fd = fds[0];
    w.assign_fd = assign[0];
  }

  SweepWorkersResult result;
  result.metrics.assign(n, {});
  std::vector<char> seen(n, 0);
  std::size_t seen_count = 0;

  // The parent is the farm's cursor: it hands out up to `count` more points
  // in schedule order, recording each point's worker, and once every point
  // is out it closes every assign channel — the workers' cue to finish.
  SweepCursor cursor(plan.schedule());
  std::vector<std::size_t> owner(n, workers);  // `workers` = unassigned
  const auto hand_out = [&](WorkerProc& w, std::size_t slot,
                            std::size_t count) {
    std::string frames;
    for (std::size_t k = 0; k < count && w.assign_fd >= 0; ++k) {
      const std::optional<std::size_t> index = cursor.next();
      if (!index) break;
      owner[*index] = slot;
      w.pulled.push_back(*index);
      std::string payload;
      BinaryWriter(payload).u64(*index);
      append_frame(frames, static_cast<std::uint8_t>(SweepShardFrame::kAssign),
                   payload);
    }
    if (!frames.empty()) send_assigns(w, frames);
    if (cursor.exhausted())
      for (WorkerProc& other : fleet) close_fd(other.assign_fd);
  };

  const auto handle_frame = [&](WorkerProc& w, std::size_t slot,
                                std::uint8_t type,
                                const std::string& payload) {
    BinaryReader r{std::string_view(payload)};
    switch (static_cast<SweepShardFrame>(type)) {
      case SweepShardFrame::kHello: {
        const std::uint16_t version = r.u16();
        if (version != kSweepShardProtocolVersion)
          throw std::runtime_error(
              w.name + " speaks shard protocol version " +
              std::to_string(version) + ", parent speaks " +
              std::to_string(kSweepShardProtocolVersion));
        const std::uint32_t shard = r.u32();
        const std::uint32_t shards = r.u32();
        const std::uint64_t run_digest = r.u64();
        const std::uint64_t points = r.u64();
        const std::uint32_t runners = r.u32();
        r.require_exhausted("sweep shard hello frame");
        if (w.hello)
          throw std::runtime_error(w.name + " sent a second hello frame");
        if (shard != slot || shards != workers)
          throw std::runtime_error(
              w.name + " announced slot " + std::to_string(shard) + "/" +
              std::to_string(shards) + " instead of its own");
        if (run_digest != plan.run_digest || points != n)
          throw std::runtime_error(
              w.name +
              " planned a different sweep (run digest or grid size "
              "mismatch) — parent and worker configs drifted");
        if (runners == 0)
          throw std::runtime_error(w.name + " announced zero runners");
        w.hello = true;
        hand_out(w, slot, runners);
        break;
      }
      case SweepShardFrame::kPoint: {
        if (!w.hello || w.done)
          throw std::runtime_error(w.name +
                                   " sent a point frame outside the "
                                   "hello..done window");
        const std::uint64_t index = r.u64();
        if (index >= n)
          throw std::runtime_error(w.name + " reported grid point " +
                                   std::to_string(index) +
                                   " beyond the grid");
        const std::uint32_t count = r.u32();
        if (count != metric_count)
          throw std::runtime_error(
              w.name + " sent " + std::to_string(count) +
              " metrics per point, parent expects " +
              std::to_string(metric_count));
        std::vector<double> metrics(count);
        for (double& m : metrics) m = r.f64();
        const std::uint64_t episodes = r.u64();
        const bool has_trace = r.u8() != 0;
        std::string block(r.view(r.remaining()));
        if (owner[index] != slot || seen[index] != 0)
          throw std::runtime_error(w.name + " reported grid point " +
                                   std::to_string(index) +
                                   (seen[index] != 0
                                        ? " twice"
                                        : " it was never assigned"));
        seen[index] = 1;
        ++seen_count;
        result.metrics[index] = std::move(metrics);
        if (trace_sink != nullptr) {
          if (!has_trace)
            throw std::runtime_error(w.name +
                                     " sent no trace block while tracing "
                                     "is enabled");
          // Global grid index as the sink sequence: the ordered flush
          // reproduces the unsharded stream whatever order workers finish.
          trace_sink->commit(index, std::move(block), episodes);
        }
        hand_out(w, slot, 1);  // its runner is free again
        break;
      }
      case SweepShardFrame::kDone: {
        if (!w.hello || w.done)
          throw std::runtime_error(w.name + " sent a duplicate done frame");
        const std::uint64_t emitted = r.u64();
        if (emitted != w.pulled.size())
          throw std::runtime_error(
              w.name + " finished after emitting " +
              std::to_string(emitted) + " of its " +
              std::to_string(w.pulled.size()) + " points");
        result.stats += decode_stats(r);
        r.require_exhausted("sweep shard done frame");
        w.done = true;
        close_fd(w.assign_fd);
        break;
      }
      default:
        throw std::runtime_error(w.name + " sent unknown frame type " +
                                 std::to_string(type));
    }
  };

  // Single-threaded merge: poll() across every worker pipe, feed each
  // worker's FrameAssembler, dispatch completed frames.  No reader
  // threads — the parent's trace sink and metric slots need no locking
  // beyond the sink's own.
  std::vector<char> buf(std::size_t{1} << 16);
  std::size_t open = workers;
  while (open > 0) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> slots;
    pfds.reserve(open);
    slots.reserve(open);
    for (std::size_t i = 0; i < workers; ++i) {
      if (fleet[i].fd < 0) continue;
      pfds.push_back(pollfd{fleet[i].fd, POLLIN, 0});
      slots.push_back(i);
    }
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll() over sweep worker pipes failed");
    }
    for (std::size_t p = 0; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerProc& w = fleet[slots[p]];
      const ssize_t got = ::read(w.fd, buf.data(), buf.size());
      if (got < 0) {
        if (errno == EINTR) continue;
        throw_errno("read() from " + w.name + " failed");
      }
      if (got == 0) {
        close_fd(w.fd);
        --open;
        // EOF is only legal after a complete done frame: anything else is
        // a crashed or truncated worker and must fail the whole sweep.
        if (!w.done)
          throw std::runtime_error(
              w.name + " closed its pipe before its done frame — the "
                       "worker crashed mid-shard");
        if (!w.frames.idle())
          throw std::runtime_error(
              w.name + " left " + std::to_string(w.frames.buffered()) +
              " bytes of a truncated frame behind its done frame");
        continue;
      }
      try {
        w.frames.feed(buf.data(), static_cast<std::size_t>(got));
        std::uint8_t type = 0;
        std::string payload;
        while (w.frames.next(type, payload))
          handle_frame(w, slots[p], type, payload);
      } catch (const BinaryIoError& e) {
        throw std::runtime_error(w.name + " sent a corrupt frame: " +
                                 e.what());
      }
    }
  }

  for (WorkerProc& w : fleet) {
    int status = 0;
    const pid_t reaped = ::waitpid(w.pid, &status, 0);
    if (reaped != w.pid) throw_errno("waitpid(" + w.name + ") failed");
    w.pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error(
          w.name + (WIFSIGNALED(status)
                        ? " was killed by signal " +
                              std::to_string(WTERMSIG(status))
                        : " exited with status " +
                              std::to_string(WEXITSTATUS(status))));
  }

  if (seen_count != n)
    throw std::runtime_error("sweep workers reported only " +
                             std::to_string(seen_count) + " of " +
                             std::to_string(n) + " grid points");

  result.pulled.reserve(workers);
  for (WorkerProc& w : fleet) result.pulled.push_back(std::move(w.pulled));
  return result;
}

}  // namespace seo
