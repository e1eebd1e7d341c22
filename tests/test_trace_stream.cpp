// Binary seo-trace stream tests: bit-exact round trips, the distinct
// rejection taxonomy (bad magic / version mismatch / truncation / checksum
// corruption / malformed records — a damaged stream is never misparsed),
// ordered-sink determinism, and the golden property the stage tools build
// on: a streamed sweep decodes to exactly the CSV the in-memory
// EpisodeTrace::to_csv path produces, at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_io.hpp"
#include "core/fingerprint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

// Bit-pattern equality: distinguishes -0.0 from 0.0 and survives NaN,
// which operator== cannot.
bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

// Doubles chosen to break lossy encodings: denormal, -0.0, an irrational
// fraction, the largest finite, +inf (min_h of an obstacle-free episode).
constexpr double kDenormal = 5e-324;
constexpr double kThird = 1.0 / 3.0;
constexpr double kHuge = 1.7976931348623157e308;

TraceSample make_sample(int i) {
  TraceSample s;
  s.t = 0.02 * i + kThird;
  s.position = {1.5 * i, -0.0};
  s.heading = kDenormal;
  s.speed = 6.125 + i;
  s.barrier_h = i == 0 ? kHuge : 0.25 * i;
  s.delta_max = i % 5 - 1;  // negative values survive the u32 cast
  s.unconstrained = i % 2 == 0;
  s.interval_started = i % 3 == 0;
  s.filter_engaged = i % 4 == 0;
  s.steering = -0.125 * i;
  s.throttle = 0.5;
  s.detection_age_s = 0.001 * i;
  return s;
}

OffloadEvent make_offload(int i) {
  OffloadEvent e;
  e.pipeline = static_cast<std::size_t>(i % 3);
  e.submit_s = 0.1 * i;
  e.bytes = 1536.0 * (i + 1);
  e.tx_time_s = 0.003 + kDenormal;
  e.deadline_s = 0.1 * i + 0.5;
  e.probe = i % 2 == 1;
  return e;
}

TraceEpisodeInfo make_info(std::uint64_t seed) {
  TraceEpisodeInfo info;
  info.seed = seed;
  info.scenario_digest = 0xdeadbeefcafe1234ull;
  info.point_index = 7;
  info.vehicle = seed % 2 == 0 ? 3u : kTraceNoVehicle;
  info.label = "paper_default channel_mbps=8 deadline_cap=2";
  return info;
}

TraceEpisodeSummary make_summary() {
  TraceEpisodeSummary s;
  s.completed = true;
  s.timed_out = false;
  s.duration_s = 11.96;
  s.avg_speed = 6.0 + kThird;
  s.min_h = std::numeric_limits<double>::infinity();
  s.filter_engagements = 42;
  s.intervals = 600;
  s.energy_actual_j = 63.678999999999995;
  s.energy_baseline_j = 71.63499999999999;
  return s;
}

/// A small valid stream: two episodes with samples and offloads.
std::string valid_stream(std::uint64_t run_digest = 0x1122334455667788ull) {
  std::ostringstream out;
  TraceStreamWriter writer(out, run_digest);
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    EpisodeTrace trace;
    for (int i = 0; i < 4; ++i) trace.add(make_sample(i));
    for (int i = 0; i < 3; ++i) trace.add_offload(make_offload(i));
    writer.write_episode(make_info(seed), make_summary(), trace);
  }
  writer.finish();
  return out.str();
}

/// Drains a stream and returns the error it was rejected with; fails the
/// test if the stream was accepted.
TraceStreamErrc rejection_code(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    TraceStreamReader reader(in);
    TraceRecord record;
    while (reader.next(record)) {
    }
  } catch (const TraceStreamError& e) {
    return e.code();
  }
  ADD_FAILURE() << "stream was accepted";
  return TraceStreamErrc::kBadRecord;
}

void patch_u64_le(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
}

// --- Round trip -------------------------------------------------------------

TEST(TraceStream, RoundTripIsBitExact) {
  const std::string bytes = valid_stream();
  std::istringstream in(bytes);
  TraceStreamReader reader(in);
  EXPECT_EQ(reader.version(), kTraceStreamVersion);
  EXPECT_EQ(reader.run_digest(), 0x1122334455667788ull);

  TraceRecord record;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    ASSERT_TRUE(reader.next(record));
    ASSERT_EQ(record.type, TraceRecord::Type::kEpisodeBegin);
    const TraceEpisodeInfo expected_info = make_info(seed);
    EXPECT_EQ(record.episode.seed, expected_info.seed);
    EXPECT_EQ(record.episode.scenario_digest, expected_info.scenario_digest);
    EXPECT_EQ(record.episode.point_index, expected_info.point_index);
    EXPECT_EQ(record.episode.vehicle, expected_info.vehicle);
    EXPECT_EQ(record.episode.label, expected_info.label);

    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(reader.next(record));
      ASSERT_EQ(record.type, TraceRecord::Type::kSample);
      const TraceSample expected = make_sample(i);
      const TraceSample& s = record.sample;
      EXPECT_TRUE(same_bits(s.t, expected.t));
      EXPECT_TRUE(same_bits(s.position.x, expected.position.x));
      EXPECT_TRUE(same_bits(s.position.y, expected.position.y));  // -0.0
      EXPECT_TRUE(same_bits(s.heading, expected.heading));  // denormal
      EXPECT_TRUE(same_bits(s.speed, expected.speed));
      EXPECT_TRUE(same_bits(s.barrier_h, expected.barrier_h));
      EXPECT_EQ(s.delta_max, expected.delta_max);
      EXPECT_EQ(s.unconstrained, expected.unconstrained);
      EXPECT_EQ(s.interval_started, expected.interval_started);
      EXPECT_EQ(s.filter_engaged, expected.filter_engaged);
      EXPECT_TRUE(same_bits(s.steering, expected.steering));
      EXPECT_TRUE(same_bits(s.throttle, expected.throttle));
      EXPECT_TRUE(same_bits(s.detection_age_s, expected.detection_age_s));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(reader.next(record));
      ASSERT_EQ(record.type, TraceRecord::Type::kOffload);
      const OffloadEvent expected = make_offload(i);
      EXPECT_EQ(record.offload.pipeline, expected.pipeline);
      EXPECT_TRUE(same_bits(record.offload.submit_s, expected.submit_s));
      EXPECT_TRUE(same_bits(record.offload.bytes, expected.bytes));
      EXPECT_TRUE(same_bits(record.offload.tx_time_s, expected.tx_time_s));
      EXPECT_TRUE(same_bits(record.offload.deadline_s, expected.deadline_s));
      EXPECT_EQ(record.offload.probe, expected.probe);
    }
    ASSERT_TRUE(reader.next(record));
    ASSERT_EQ(record.type, TraceRecord::Type::kEpisodeEnd);
    const TraceEpisodeSummary expected = make_summary();
    EXPECT_EQ(record.summary.completed, expected.completed);
    EXPECT_EQ(record.summary.collided, expected.collided);
    EXPECT_TRUE(same_bits(record.summary.min_h, expected.min_h));  // +inf
    EXPECT_TRUE(
        same_bits(record.summary.avg_speed, expected.avg_speed));
    EXPECT_EQ(record.summary.filter_engagements,
              expected.filter_engagements);
    EXPECT_EQ(record.counts.samples, 4u);
    EXPECT_EQ(record.counts.offloads, 3u);
  }
  EXPECT_FALSE(reader.next(record));
  EXPECT_EQ(reader.episodes_read(), 2u);
  EXPECT_EQ(reader.episodes_total(), 2u);
}

TEST(TraceStream, AppendTraceEpisodeMatchesWriterBytes) {
  // The block serializer (what sweep/fleet shards use) must emit exactly
  // the bytes the incremental writer would — that equivalence is what
  // makes OrderedTraceSink streams canonical.
  const std::string via_writer = valid_stream();

  std::ostringstream out;
  OrderedTraceSink sink(out);
  sink.set_run_digest(0x1122334455667788ull);
  std::string block;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    EpisodeTrace trace;
    for (int i = 0; i < 4; ++i) trace.add(make_sample(i));
    for (int i = 0; i < 3; ++i) trace.add_offload(make_offload(i));
    append_trace_episode(block, make_info(seed), make_summary(), trace);
  }
  sink.commit(0, std::move(block), 2);
  sink.finish();
  EXPECT_EQ(out.str(), via_writer);
}

TEST(TraceStream, TeeReproducesTheStreamByteForByte) {
  const std::string bytes = valid_stream();
  std::istringstream in(bytes);
  std::ostringstream copy;
  TraceStreamReader reader(in, &copy);
  TraceRecord record;
  while (reader.next(record)) {
  }
  EXPECT_EQ(copy.str(), bytes);
}

// --- Rejection taxonomy -----------------------------------------------------

TEST(TraceStream, RejectsForeignBytesAsBadMagic) {
  EXPECT_EQ(rejection_code("this is not a trace stream at all............"),
            TraceStreamErrc::kBadMagic);
  EXPECT_EQ(rejection_code("short"), TraceStreamErrc::kBadMagic);
}

TEST(TraceStream, RejectsUnsupportedVersionDistinctly) {
  std::string bytes = valid_stream();
  // Patch the version field (offset 10) and restore header integrity by
  // recomputing the header digest (FNV-1a over the first 20 bytes), so the
  // reader must reject on *version*, not checksum.
  bytes[10] = 99;
  bytes[11] = 0;
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), 20);
  patch_u64_le(bytes, 20, hasher.digest());
  EXPECT_EQ(rejection_code(bytes), TraceStreamErrc::kVersionMismatch);
}

TEST(TraceStream, RejectsTamperedHeaderAsChecksum) {
  std::string bytes = valid_stream();
  bytes[12] ^= 0x01;  // run_digest byte: magic intact, digest now stale
  EXPECT_EQ(rejection_code(bytes), TraceStreamErrc::kBadChecksum);
}

TEST(TraceStream, RejectsTruncatedTailsDistinctly) {
  const std::string bytes = valid_stream();
  // Mid-record cut: the stream-end record loses its checksum.
  EXPECT_EQ(rejection_code(bytes.substr(0, bytes.size() - 4)),
            TraceStreamErrc::kTruncated);
  // Clean-looking cut between records: without the stream-end marker the
  // reader must still call it truncated, never a short-but-valid stream.
  const std::size_t stream_end_size = 5 + 8 + 8;  // head + count + checksum
  EXPECT_EQ(rejection_code(bytes.substr(0, bytes.size() - stream_end_size)),
            TraceStreamErrc::kTruncated);
  // Header-only stream: not even one record made it out.
  EXPECT_EQ(rejection_code(bytes.substr(0, 28)), TraceStreamErrc::kTruncated);
}

TEST(TraceStream, RejectsCorruptedRecordAsChecksum) {
  std::string bytes = valid_stream();
  bytes[28 + 6] ^= 0xff;  // first byte range of the first record's payload
  EXPECT_EQ(rejection_code(bytes), TraceStreamErrc::kBadChecksum);
}

TEST(TraceStream, RejectsTrailingBytesAfterStreamEnd) {
  EXPECT_EQ(rejection_code(valid_stream() + "x"),
            TraceStreamErrc::kBadRecord);
}

// Every strict prefix of a stream is rejected (a cut between records lacks
// the stream-end marker, a cut inside one is short), and so is every
// single-bit flip (FNV-1a changes with any one byte of its span, and a
// flipped size field reframes the rest of the stream).
TEST(TraceStream, RejectsEveryPrefixAndEveryBitFlip) {
  const std::string bytes = valid_stream();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SCOPED_TRACE("prefix of " + std::to_string(n) + " bytes");
    (void)rejection_code(bytes.substr(0, n));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(i) + " bit " +
                   std::to_string(bit));
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      (void)rejection_code(flipped);
    }
  }
}

/// The framed records after the 28-byte header, each as its exact bytes
/// (u8 type | u32 size | payload | u64 checksum).
std::vector<std::string> split_records(const std::string& bytes) {
  std::vector<std::string> records;
  std::size_t at = 28;
  while (at < bytes.size()) {
    BinaryReader head(std::string_view(bytes).substr(at + 1, 4));
    const std::size_t size = 5 + head.u32() + 8;
    records.push_back(bytes.substr(at, size));
    at += size;
  }
  return records;
}

/// One record of `type` around `payload`, with a valid checksum.
std::string framed(std::uint8_t type, const std::string& payload) {
  std::string out;
  BinaryWriter w(out);
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.checksum_from(0);
  return out;
}

TEST(TraceStream, RejectsOversizeSizeFieldBeforeReadingThePayload) {
  std::string bytes = valid_stream();
  // First record's size: one past the 1 MiB cap.  The checksum is now
  // stale too, but the size is checked first.
  const std::uint32_t size = (1u << 20) + 1;
  for (int i = 0; i < 4; ++i)
    bytes[28 + 1 + static_cast<std::size_t>(i)] =
        static_cast<char>((size >> (8 * i)) & 0xff);
  EXPECT_EQ(rejection_code(bytes), TraceStreamErrc::kBadRecord);
}

TEST(TraceStream, RejectsMalformedNestingCountsAndTypes) {
  const std::string bytes = valid_stream();
  const std::string header = bytes.substr(0, 28);
  const std::vector<std::string> records = split_records(bytes);
  // 2 x (begin, 4 samples, 3 offloads, end) + stream-end.
  ASSERT_EQ(records.size(), 2u * 9u + 1u);
  const std::string& begin = records[0];
  const std::string& sample = records[1];
  const std::string& end = records[8];

  // Episode-begin inside an open episode.
  EXPECT_EQ(rejection_code(header + begin + begin),
            TraceStreamErrc::kBadRecord);
  // Episode-end whose sample count disagrees with the records read: one
  // sample record dropped from an otherwise intact stream.
  std::string dropped = header;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (i != 2) dropped += records[i];
  EXPECT_EQ(rejection_code(dropped), TraceStreamErrc::kBadRecord);
  // A sample outside any episode.
  EXPECT_EQ(rejection_code(header + sample), TraceStreamErrc::kBadRecord);
  // Well-framed records of an unknown type, inside and outside an episode.
  EXPECT_EQ(rejection_code(header + framed(9, "")),
            TraceStreamErrc::kBadRecord);
  EXPECT_EQ(rejection_code(header + begin + framed(0, "abc") + end),
            TraceStreamErrc::kBadRecord);
}

// --- Golden stream digests --------------------------------------------------

// The exact bytes `sweep --smoke [--rounds 1] --trace-out` writes, pinned
// as (size, FNV-1a) so any change to the encoder, the sink or the episode
// order shows here, not only as a disagreement between two encoders.
std::string traced_sweep_bytes(const SweepConfig& config) {
  std::ostringstream out;
  OrderedTraceSink sink(out);
  (void)run_sweep(config, &sink);
  sink.finish();
  return out.str();
}

std::string digest_of(const std::string& bytes) {
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), bytes.size());
  return fingerprint_hex(hasher.digest());
}

TEST(TraceStream, SmokeSweepStreamBytesArePinned) {
  const std::string bytes = traced_sweep_bytes(smoke_sweep());
  EXPECT_EQ(bytes.size(), 962697u);
  EXPECT_EQ(digest_of(bytes), "e86425686af1d610");
}

TEST(TraceStream, FleetSmokeSweepStreamBytesArePinned) {
  const std::string bytes = traced_sweep_bytes(fleet_smoke_sweep());
  EXPECT_EQ(bytes.size(), 885493u);
  EXPECT_EQ(digest_of(bytes), "30bc0020af6ad4be");
}

// --- Ordered sink -----------------------------------------------------------

TEST(TraceStream, SinkMergesOutOfOrderCommitsDeterministically) {
  const auto episode_block = [](std::uint64_t seed) {
    EpisodeTrace trace;
    trace.add(make_sample(static_cast<int>(seed)));
    std::string block;
    append_trace_episode(block, make_info(seed), make_summary(), trace);
    return block;
  };

  std::string serial;
  std::string shuffled;
  {
    std::ostringstream out;
    OrderedTraceSink sink(out);
    for (std::uint64_t seq = 0; seq < 3; ++seq)
      sink.commit(seq, episode_block(seq), 1);
    sink.finish();
    serial = out.str();
  }
  {
    std::ostringstream out;
    OrderedTraceSink sink(out);
    for (const std::uint64_t seq : {2u, 0u, 1u})
      sink.commit(seq, episode_block(seq), 1);
    sink.finish();
    shuffled = out.str();
    EXPECT_EQ(sink.episodes_written(), 3u);
  }
  EXPECT_EQ(shuffled, serial);
}

TEST(TraceStream, SinkFinishThrowsOnMissingBlock) {
  std::ostringstream out;
  OrderedTraceSink sink(out);
  sink.commit(0, std::string(), 0);
  sink.commit(2, std::string(), 0);  // block 1 never committed
  EXPECT_THROW(sink.finish(), ContractViolation);
}

// --- Golden: streamed sweep == in-memory CSV --------------------------------

SweepConfig tiny_sweep() {
  SweepConfig config;
  config.scenarios = {"paper_default"};
  config.axes = {{"channel_mbps", {"8", "20"}}};
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

/// Decodes a binary stream to the trace-export CSV shape (one header, all
/// sample lines in stream order) via the shared formatters.
std::string stream_to_csv(const std::string& bytes) {
  std::istringstream in(bytes);
  TraceStreamReader reader(in);
  std::string csv = trace_csv_header();
  TraceRecord record;
  while (reader.next(record))
    if (record.type == TraceRecord::Type::kSample)
      append_trace_sample_csv(csv, record.sample);
  return csv;
}

TEST(TraceStream, StreamedSweepMatchesInMemoryCsvAtEveryThreadCount) {
  const SweepConfig base = tiny_sweep();

  // In-memory reference: each grid point run serially through the
  // experiment harness with a tap that keeps every consumed episode's
  // to_csv() — the pre-streaming way to get episode CSVs.
  std::string expected = trace_csv_header();
  for (const SweepPoint& point : expand_grid(base)) {
    ExperimentConfig experiment;
    experiment.scenario = resolve_point(base, point);
    experiment.episodes = base.episodes;
    experiment.max_attempts = base.max_attempts;
    experiment.base_seed = base.base_seed;
    experiment.require_success = base.require_success;
    experiment.trace_tap = [&expected](std::uint64_t, const EpisodeResult&,
                                       const EpisodeTrace& trace) {
      const std::string csv = trace.to_csv();
      expected += csv.substr(std::strlen(trace_csv_header()));
    };
    (void)run_experiment(experiment);
  }

  std::string serial_bytes;
  for (const int threads : {1, 2, 0}) {
    SweepConfig config = base;
    config.threads = threads;
    std::ostringstream stream;
    OrderedTraceSink sink(stream);
    (void)run_sweep(config, &sink);
    sink.finish();
    if (threads == 1)
      serial_bytes = stream.str();
    else
      EXPECT_EQ(stream.str(), serial_bytes)
          << "stream bytes differ at threads=" << threads;
    EXPECT_EQ(stream_to_csv(stream.str()), expected)
        << "decoded CSV differs at threads=" << threads;
  }
}

}  // namespace
}  // namespace seo
