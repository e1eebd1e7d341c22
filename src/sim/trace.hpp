// Episode telemetry: a per-base-period trace of the closed loop for
// debugging, visualization and post-hoc analysis — in memory as
// EpisodeTrace (CSV export), and out-of-core as the versioned binary
// `seo-trace` stream the stage tools under tools/ consume.
//
// ## Stream format (version 1)
//
// All integers and IEEE-754 doubles are little-endian, fixed width.  The
// stream is a 28-byte file header followed by framed records and a
// mandatory end-of-stream record — a missing end marker is how a reader
// tells a truncated tail from a clean end.
//
//   header:  magic[10] = "seo-trace\0" | u16 version | u64 run_digest
//            | u64 header_digest (FNV-1a over the preceding 20 bytes)
//   record:  u8 type | u32 payload_size | payload
//            | u64 checksum (FNV-1a over type + size + payload bytes)
//
// Record types (payload layouts in trace.cpp, fixed width throughout):
//
//   1 episode-begin   seed, scenario/table digest, grid-point index,
//                     vehicle (0xffffffff when n/a), label
//   2 sample          one TraceSample (doubles as raw IEEE bits)
//   3 offload         one OffloadEvent
//   4 episode-end     sample/offload counts + outcome/energy summary
//   5 stream-end      total episode count
//
// Every byte is encoded and decoded through core/binary_io, whose
// checksums are src/core/fingerprint's canonical FNV-1a, so a digest
// mismatch means corruption, never platform drift.  `run_digest`
// carries the scenario/table digest identity of the producing run (the
// grid's scenario_table_digest values mixed in grid order), so a reader
// can tell streams of different grids apart.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamics/vec2.hpp"

namespace seo {

/// One base period of the runtime loop.
struct TraceSample {
  double t = 0.0;
  Vec2 position{};
  double heading = 0.0;
  double speed = 0.0;
  double barrier_h = 0.0;       ///< min barrier value at this state
  int delta_max = 0;            ///< effective deadline of the interval
  bool unconstrained = false;
  bool interval_started = false;
  bool filter_engaged = false;
  double steering = 0.0;        ///< applied (post-filter) control
  double throttle = 0.0;
  double detection_age_s = 0.0; ///< staleness of the freshest Theta' entry
};

/// One offload uplink the episode transmitted (full frame or probe).
/// Recorded at submit time with the *uncontended* channel draw, so a fleet
/// replay can re-time the same transmissions under shared-channel
/// contention and cluster queueing (see sim/fleet_experiment.hpp).
struct OffloadEvent {
  std::size_t pipeline = 0;
  double submit_s = 0.0;     ///< uplink start (episode clock)
  double bytes = 0.0;        ///< payload size
  double tx_time_s = 0.0;    ///< uncontended uplink duration actually drawn
  double deadline_s = 0.0;   ///< absolute freshness deadline of the result
  bool probe = false;        ///< channel probe (load, but no deadline stake)
};

/// Growable recording of an episode; attach via ScenarioConfig::trace.
class EpisodeTrace {
 public:
  void add(const TraceSample& sample) {
    if (capture_samples_) samples_.push_back(sample);
  }
  /// Empties both logs but keeps their capacity (std::vector clear()
  /// never shrinks), so a trace reused across thousands of episodes — the
  /// fleet fan-out, the sweep trace tap — grows only while an episode is
  /// longer than every earlier one.  Nothing is reserved up front: the
  /// logs size to what the episode records, whatever its time limit.
  void clear() {
    samples_.clear();
    offloads_.clear();
  }
  /// Disables the per-period sample log (the offload log stays active) —
  /// fleet experiments trace thousands of episodes and only need uplinks.
  void set_capture_samples(bool capture) { capture_samples_ = capture; }

  void add_offload(const OffloadEvent& event) { offloads_.push_back(event); }
  const std::vector<OffloadEvent>& offloads() const { return offloads_; }
  /// Moves the offload log out; the trace is left with an empty log and
  /// no capacity.  A reused trace should copy `offloads()` instead, which
  /// keeps its buffer warm.
  std::vector<OffloadEvent> take_offloads() { return std::move(offloads_); }

  const std::vector<TraceSample>& samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// CSV with a header row; one line per base period.
  std::string to_csv() const;

  /// Worst detection staleness observed [s].
  double max_detection_age() const;

 private:
  std::vector<TraceSample> samples_;
  std::vector<OffloadEvent> offloads_;
  bool capture_samples_ = true;
};

/// The CSV header row EpisodeTrace::to_csv emits (includes the trailing
/// newline).  Shared with tools/trace-export so the streamed export is
/// byte-identical to the in-memory path by construction.
const char* trace_csv_header();
/// Appends one to_csv-format line for `sample` (shared with trace-export).
void append_trace_sample_csv(std::string& out, const TraceSample& sample);

// ---------------------------------------------------------------------------
// Binary trace stream
// ---------------------------------------------------------------------------

inline constexpr std::uint16_t kTraceStreamVersion = 1;
/// `vehicle` value for episodes with no fleet identity (plain sweeps).
inline constexpr std::uint32_t kTraceNoVehicle = 0xffffffffu;

/// Identity of one episode in a stream, written with episode-begin.
struct TraceEpisodeInfo {
  std::uint64_t seed = 0;            ///< the seed run_episode ran with
  std::uint64_t scenario_digest = 0; ///< scenario_table_digest of the point
  std::uint32_t point_index = 0;     ///< grid-point index within the run
  std::uint32_t vehicle = kTraceNoVehicle;  ///< fleet slot's vehicle, if any
  std::string label;                 ///< grid-point label (SweepPoint::label)
};

/// Outcome summary written with episode-end, so aggregating stage tools
/// (energy report, safety audit) never need the per-tick samples.
struct TraceEpisodeSummary {
  bool completed = false;
  bool collided = false;
  bool off_road = false;
  bool timed_out = false;
  double duration_s = 0.0;
  double avg_speed = 0.0;
  double min_h = 0.0;
  std::uint64_t filter_engagements = 0;
  std::uint64_t intervals = 0;
  double energy_actual_j = 0.0;   ///< combined Lambda' model energy
  double energy_baseline_j = 0.0; ///< always-offload-everything baseline
};

/// Counts the writer stamped into episode-end; the reader cross-checks
/// them against the records it actually saw.
struct TraceEpisodeCounts {
  std::uint64_t samples = 0;
  std::uint64_t offloads = 0;
};

/// Why a stream was rejected — distinct codes so tooling (and the tests)
/// can tell "wrong file" from "old writer" from "damaged tail" apart.
enum class TraceStreamErrc {
  kBadMagic,        ///< not a seo-trace stream at all
  kVersionMismatch, ///< valid magic, unsupported format version
  kTruncated,       ///< stream ended mid-record or without a stream-end
  kBadChecksum,     ///< record framing intact but FNV-1a digest mismatch
  kBadRecord,       ///< malformed record (size, nesting, unknown type...)
};

class TraceStreamError : public std::runtime_error {
 public:
  TraceStreamError(TraceStreamErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  TraceStreamErrc code() const { return code_; }

 private:
  TraceStreamErrc code_;
};

/// Incremental writer: header on construction, then
/// begin_episode / sample / offload / end_episode per episode, finish()
/// once at the end.  Episode-delimited — every record is flushed to `out`
/// by end_episode, so a million-episode producer holds one episode's
/// bytes at most.  Not thread-safe; parallel producers go through
/// OrderedTraceSink below.
class TraceStreamWriter {
 public:
  explicit TraceStreamWriter(std::ostream& out, std::uint64_t run_digest = 0);

  void begin_episode(const TraceEpisodeInfo& info);
  void sample(const TraceSample& s);
  void offload(const OffloadEvent& e);
  void end_episode(const TraceEpisodeSummary& summary);

  /// Convenience: one recorded trace as one episode.
  void write_episode(const TraceEpisodeInfo& info,
                     const TraceEpisodeSummary& summary,
                     const EpisodeTrace& trace);

  /// Writes the stream-end record (with the episode count) and flushes.
  /// Must be called exactly once, outside an episode.
  void finish();

  std::uint64_t episodes_written() const { return episodes_; }

 private:
  void flush_episode();  ///< writes buffer_ as one whole episode

  std::ostream& out_;
  std::string buffer_;        ///< current episode's serialized records
  std::uint64_t episodes_ = 0;
  TraceEpisodeCounts counts_; ///< running counts of the open episode
  bool in_episode_ = false;
  bool finished_ = false;
};

/// One decoded record.  `type` selects which member is valid.
struct TraceRecord {
  enum class Type { kEpisodeBegin, kSample, kOffload, kEpisodeEnd };
  Type type = Type::kSample;
  TraceEpisodeInfo episode;      ///< kEpisodeBegin
  TraceSample sample;            ///< kSample
  OffloadEvent offload;          ///< kOffload
  TraceEpisodeSummary summary;   ///< kEpisodeEnd
  TraceEpisodeCounts counts;     ///< kEpisodeEnd
};

/// Validating pull reader.  The constructor consumes and checks the
/// header; next() yields records until the stream-end marker (false).
/// Any corruption — bad magic, unsupported version, checksum mismatch,
/// truncated tail, malformed nesting, trailing bytes after stream-end —
/// throws TraceStreamError with the matching code; a damaged stream is
/// never silently misparsed.  When `tee` is set, every byte read
/// (header included) is copied to it after validation — the passthrough
/// mode of the stage tools.
class TraceStreamReader {
 public:
  explicit TraceStreamReader(std::istream& in, std::ostream* tee = nullptr);

  std::uint16_t version() const { return version_; }
  std::uint64_t run_digest() const { return run_digest_; }

  /// Reads the next record into `record`.  Returns false at a verified
  /// stream-end marker; throws TraceStreamError otherwise.
  bool next(TraceRecord& record);

  /// Episodes fully read so far (ordinal of the current episode while one
  /// is open).
  std::uint64_t episodes_read() const { return episodes_; }
  /// Total episodes claimed by the stream-end record (valid after next()
  /// returned false).
  std::uint64_t episodes_total() const { return total_episodes_; }

 private:
  /// Reads `size` bytes into frame_ at `offset`; kTruncated when short.
  void read_bytes(std::size_t offset, std::size_t size, const char* what);

  std::istream& in_;
  std::ostream* tee_ = nullptr;
  std::uint16_t version_ = 0;
  std::uint64_t run_digest_ = 0;
  std::uint64_t episodes_ = 0;
  std::uint64_t total_episodes_ = 0;
  std::string frame_;            ///< header, then each record; only grows
  TraceEpisodeCounts counts_;    ///< records seen in the open episode
  bool in_episode_ = false;
  bool done_ = false;
};

/// Serializes one full episode (begin/samples/offloads/end) into `block`,
/// in exactly the bytes TraceStreamWriter would emit.  Grid points
/// serialize into private blocks and commit them to an OrderedTraceSink.
void append_trace_episode(std::string& block, const TraceEpisodeInfo& info,
                          const TraceEpisodeSummary& summary,
                          const EpisodeTrace& trace);

/// Thread-safe ordered merge of episode blocks onto one stream — how a
/// parallel sweep/fleet writes a deterministic trace.  Producers serialize
/// episodes into per-block byte buffers (append_trace_episode) and commit
/// each block under a dense sequence number (one block per grid point,
/// holding its episodes in attempt or fleet-slot order).  Blocks are
/// flushed strictly in sequence order — the bytes on the wire are
/// identical for every thread count and schedule, the property the golden
/// trace-export tests pin.  Out-of-order completions are buffered until their turn, so peak
/// memory is bounded by the scheduler's reordering window (at worst the
/// in-flight point count times one block), never by the run length.
class OrderedTraceSink {
 public:
  explicit OrderedTraceSink(std::ostream& out) : out_(&out) {}

  /// Sets the header's run digest; only valid before the first commit
  /// (the header is written lazily with the first block).
  void set_run_digest(std::uint64_t digest);

  /// Hands over block `seq` (0-based, dense) containing `episodes`
  /// serialized episodes.  Empty blocks are legal and keep the sequence
  /// dense when a grid point traced nothing.
  void commit(std::uint64_t seq, std::string block, std::uint64_t episodes);

  /// Writes the stream-end record and flushes.  Throws ContractViolation
  /// if committed sequence numbers left a gap (a grid point never committed).
  void finish();

  std::uint64_t episodes_written() const;

 private:
  void write_header_locked();

  std::ostream* out_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::pair<std::string, std::uint64_t>> pending_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t episodes_ = 0;
  std::uint64_t run_digest_ = 0;
  bool header_written_ = false;
  bool finished_ = false;
};

}  // namespace seo
