#include "sim/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string_view>

#include "core/binary_io.hpp"
#include "util/expect.hpp"
#include "util/numeric.hpp"

namespace seo {

const char* trace_csv_header() {
  return "t,x,y,heading,speed,h,delta_max,unconstrained,interval_started,"
         "engaged,steering,throttle,detection_age\n";
}

void append_trace_sample_csv(std::string& out, const TraceSample& s) {
  // format_double_fixed, not snprintf: byte-identical to the old
  // "%.4f"/"%.5f" output under the C locale, but immune to LC_NUMERIC —
  // a comma-decimal locale would otherwise corrupt the CSV separator.
  const auto num = [&out](double v, int precision) {
    out += format_double_fixed(v, precision);
    out += ',';
  };
  const auto flag = [&out](bool b) {
    out += b ? '1' : '0';
    out += ',';
  };
  num(s.t, 4);
  num(s.position.x, 4);
  num(s.position.y, 4);
  num(s.heading, 5);
  num(s.speed, 4);
  num(s.barrier_h, 4);
  out += std::to_string(s.delta_max);
  out += ',';
  flag(s.unconstrained);
  flag(s.interval_started);
  flag(s.filter_engaged);
  num(s.steering, 5);
  num(s.throttle, 4);
  out += format_double_fixed(s.detection_age_s, 4);
  out += '\n';
}

std::string EpisodeTrace::to_csv() const {
  std::string out = trace_csv_header();
  for (const auto& s : samples_) append_trace_sample_csv(out, s);
  return out;
}

double EpisodeTrace::max_detection_age() const {
  double worst = 0.0;
  for (const auto& s : samples_)
    worst = std::max(worst, s.detection_age_s);
  return worst;
}

// ---------------------------------------------------------------------------
// Binary stream encoding
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[10] = {'s', 'e', 'o', '-', 't', 'r',
                             'a', 'c', 'e', '\0'};
constexpr std::size_t kHeaderSize = 10 + 2 + 8 + 8;
constexpr std::size_t kFrameHead = 1 + 4;  // u8 type | u32 payload size
// Labels are short grid-point strings; anything bigger than this in a size
// field is corruption, not data, and must not drive an allocation.
constexpr std::uint32_t kMaxPayload = 1u << 20;

enum RecordType : std::uint8_t {
  kRecEpisodeBegin = 1,
  kRecSample = 2,
  kRecOffload = 3,
  kRecEpisodeEnd = 4,
  kRecStreamEnd = 5,
};

constexpr std::size_t kSamplePayload = 6 * 8 + 4 + 1 + 3 * 8;
constexpr std::size_t kOffloadPayload = 4 + 1 + 4 * 8;
constexpr std::size_t kEpisodeEndPayload = 8 + 8 + 1 + 3 * 8 + 2 * 8 + 2 * 8;
constexpr std::size_t kStreamEndPayload = 8;

// Encoding goes through core/binary_io (BinaryWriter/BinaryReader): the
// same explicit little-endian byte shuffles the artifact store speaks, so
// the two on-disk formats cannot drift apart.
//
// Records are framed in place: open_record writes the type and the payload
// size, the append_* function writes exactly that many payload bytes, and
// checksum_from tails the frame with the FNV-1a of all of it.

std::size_t open_record(BinaryWriter& w, RecordType type, std::size_t size) {
  SEO_ASSERT(size <= kMaxPayload);
  const std::size_t start = w.mark();
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(size));
  return start;
}

void append_episode_begin(std::string& out, const TraceEpisodeInfo& info) {
  BinaryWriter w(out);
  const std::size_t start =
      open_record(w, kRecEpisodeBegin, 8 + 8 + 4 + 4 + 4 + info.label.size());
  w.u64(info.seed);
  w.u64(info.scenario_digest);
  w.u32(info.point_index);
  w.u32(info.vehicle);
  w.str(info.label);
  w.checksum_from(start);
}

void append_sample(std::string& out, const TraceSample& s) {
  BinaryWriter w(out);
  const std::size_t start = open_record(w, kRecSample, kSamplePayload);
  w.f64(s.t);
  w.f64(s.position.x);
  w.f64(s.position.y);
  w.f64(s.heading);
  w.f64(s.speed);
  w.f64(s.barrier_h);
  w.u32(static_cast<std::uint32_t>(s.delta_max));
  w.u8(static_cast<std::uint8_t>((s.unconstrained ? 1 : 0) |
                                 (s.interval_started ? 2 : 0) |
                                 (s.filter_engaged ? 4 : 0)));
  w.f64(s.steering);
  w.f64(s.throttle);
  w.f64(s.detection_age_s);
  w.checksum_from(start);
}

void append_offload(std::string& out, const OffloadEvent& e) {
  BinaryWriter w(out);
  const std::size_t start = open_record(w, kRecOffload, kOffloadPayload);
  w.u32(static_cast<std::uint32_t>(e.pipeline));
  w.u8(e.probe ? 1 : 0);
  w.f64(e.submit_s);
  w.f64(e.bytes);
  w.f64(e.tx_time_s);
  w.f64(e.deadline_s);
  w.checksum_from(start);
}

void append_episode_end(std::string& out, const TraceEpisodeSummary& summary,
                        const TraceEpisodeCounts& counts) {
  BinaryWriter w(out);
  const std::size_t start =
      open_record(w, kRecEpisodeEnd, kEpisodeEndPayload);
  w.u64(counts.samples);
  w.u64(counts.offloads);
  w.u8(static_cast<std::uint8_t>((summary.completed ? 1 : 0) |
                                 (summary.collided ? 2 : 0) |
                                 (summary.off_road ? 4 : 0) |
                                 (summary.timed_out ? 8 : 0)));
  w.f64(summary.duration_s);
  w.f64(summary.avg_speed);
  w.f64(summary.min_h);
  w.u64(summary.filter_engagements);
  w.u64(summary.intervals);
  w.f64(summary.energy_actual_j);
  w.f64(summary.energy_baseline_j);
  w.checksum_from(start);
}

void put(std::ostream& out, std::string_view bytes) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes the stream header — the writer, the sink and the merge all
/// open their streams here.
void write_header(std::ostream& out, std::uint64_t run_digest) {
  std::string header;
  BinaryWriter w(header);
  w.bytes(kMagic, sizeof kMagic);
  w.u16(kTraceStreamVersion);
  w.u64(run_digest);
  w.checksum_from(0);
  SEO_ASSERT(header.size() == kHeaderSize);
  put(out, header);
}

/// Writes the stream-end record carrying the episode count, and flushes.
void write_stream_end(std::ostream& out, std::uint64_t episodes) {
  std::string tail;
  BinaryWriter w(tail);
  const std::size_t start = open_record(w, kRecStreamEnd, kStreamEndPayload);
  w.u64(episodes);
  w.checksum_from(start);
  put(out, tail);
  out.flush();
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceStreamWriter
// ---------------------------------------------------------------------------

TraceStreamWriter::TraceStreamWriter(std::ostream& out,
                                     std::uint64_t run_digest)
    : out_(out) {
  write_header(out_, run_digest);
}

void TraceStreamWriter::begin_episode(const TraceEpisodeInfo& info) {
  SEO_EXPECT(!in_episode_ && !finished_);
  in_episode_ = true;
  counts_ = {};
  append_episode_begin(buffer_, info);
}

void TraceStreamWriter::sample(const TraceSample& s) {
  SEO_EXPECT(in_episode_);
  append_sample(buffer_, s);
  ++counts_.samples;
}

void TraceStreamWriter::offload(const OffloadEvent& e) {
  SEO_EXPECT(in_episode_);
  append_offload(buffer_, e);
  ++counts_.offloads;
}

void TraceStreamWriter::end_episode(const TraceEpisodeSummary& summary) {
  SEO_EXPECT(in_episode_);
  append_episode_end(buffer_, summary, counts_);
  in_episode_ = false;
  flush_episode();
}

void TraceStreamWriter::write_episode(const TraceEpisodeInfo& info,
                                      const TraceEpisodeSummary& summary,
                                      const EpisodeTrace& trace) {
  SEO_EXPECT(!in_episode_ && !finished_);
  append_trace_episode(buffer_, info, summary, trace);
  flush_episode();
}

void TraceStreamWriter::flush_episode() {
  put(out_, buffer_);
  out_.flush();  // episode-delimited: each episode reaches the pipe whole
  buffer_.clear();
  ++episodes_;
}

void TraceStreamWriter::finish() {
  SEO_EXPECT(!in_episode_ && !finished_);
  finished_ = true;
  write_stream_end(out_, episodes_);
}

// ---------------------------------------------------------------------------
// append_trace_episode (block serialization for OrderedTraceSink)
// ---------------------------------------------------------------------------

void append_trace_episode(std::string& block, const TraceEpisodeInfo& info,
                          const TraceEpisodeSummary& summary,
                          const EpisodeTrace& trace) {
  append_episode_begin(block, info);
  for (const auto& s : trace.samples()) append_sample(block, s);
  for (const auto& e : trace.offloads()) append_offload(block, e);
  append_episode_end(block, summary,
                     {trace.samples().size(), trace.offloads().size()});
}

// ---------------------------------------------------------------------------
// TraceStreamReader
// ---------------------------------------------------------------------------

// Frames and the header are decoded by BinaryReader; its BinaryIoError
// never escapes, it is mapped onto the TraceStreamErrc taxonomy here.

TraceStreamReader::TraceStreamReader(std::istream& in, std::ostream* tee)
    : in_(in), tee_(tee), frame_(kHeaderSize, '\0') {
  in_.read(frame_.data(), static_cast<std::streamsize>(kHeaderSize));
  if (static_cast<std::size_t>(in_.gcount()) != kHeaderSize)
    throw TraceStreamError(TraceStreamErrc::kBadMagic,
                           "stream shorter than a seo-trace header");
  BinaryReader fields{std::string_view(frame_)};
  if (fields.view(sizeof kMagic) != std::string_view(kMagic, sizeof kMagic))
    throw TraceStreamError(TraceStreamErrc::kBadMagic,
                           "not a seo-trace stream (magic mismatch)");
  version_ = fields.u16();
  run_digest_ = fields.u64();
  try {
    fields.verify_checksum_from(0, "seo-trace header");
  } catch (const BinaryIoError&) {
    throw TraceStreamError(TraceStreamErrc::kBadChecksum,
                           "seo-trace header checksum mismatch");
  }
  if (version_ != kTraceStreamVersion)
    throw TraceStreamError(
        TraceStreamErrc::kVersionMismatch,
        "seo-trace version " + std::to_string(version_) +
            " not supported (reader speaks version " +
            std::to_string(kTraceStreamVersion) + ")");
  if (tee_) put(*tee_, frame_);
}

void TraceStreamReader::read_bytes(std::size_t offset, std::size_t size,
                                   const char* what) {
  in_.read(frame_.data() + offset, static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in_.gcount()) != size)
    throw TraceStreamError(
        TraceStreamErrc::kTruncated,
        std::string("seo-trace stream truncated mid-") + what);
}

bool TraceStreamReader::next(TraceRecord& record) {
  if (done_) return false;

  // --- Frame ---------------------------------------------------------------
  // frame_ only grows (the header sized it), so steady-state reads neither
  // allocate nor clear it.
  in_.read(frame_.data(), 1);
  if (in_.gcount() != 1)
    throw TraceStreamError(
        TraceStreamErrc::kTruncated,
        "seo-trace stream ended without a stream-end record");
  read_bytes(1, kFrameHead - 1, "record size");
  BinaryReader head{std::string_view(frame_.data(), kFrameHead)};
  const std::uint8_t type = head.u8();
  const std::uint32_t size = head.u32();
  // Checked before the buffer grows: a corrupt size must not drive an
  // allocation.
  if (size > kMaxPayload)
    throw TraceStreamError(TraceStreamErrc::kBadRecord,
                           "seo-trace record size " + std::to_string(size) +
                               " exceeds the format cap");
  const std::size_t frame_size = kFrameHead + size + 8;
  if (frame_.size() < frame_size) frame_.resize(frame_size);
  if (size > 0) read_bytes(kFrameHead, size, "record payload");
  read_bytes(kFrameHead + size, 8, "record checksum");
  const std::string_view bytes(frame_.data(), frame_size);
  BinaryReader frame{bytes};
  (void)frame.u8();
  (void)frame.u32();
  const std::string_view payload = frame.view(size);
  try {
    frame.verify_checksum_from(0, "seo-trace record");
  } catch (const BinaryIoError&) {
    throw TraceStreamError(TraceStreamErrc::kBadChecksum,
                           "seo-trace record checksum mismatch (record " +
                               std::to_string(type) + ")");
  }
  if (tee_) put(*tee_, bytes);

  // --- Payload -------------------------------------------------------------
  BinaryReader fields{payload};
  const auto require_in_episode = [&](const char* name) {
    if (!in_episode_)
      throw TraceStreamError(
          TraceStreamErrc::kBadRecord,
          std::string("seo-trace ") + name + " record outside an episode");
  };
  // Fixed-size records are size-checked up front, so their field reads
  // cannot overrun.
  const auto require_size = [&](const char* name, std::size_t expected) {
    if (size != expected)
      throw TraceStreamError(
          TraceStreamErrc::kBadRecord,
          std::string("seo-trace ") + name + " record has wrong size");
  };
  switch (type) {
    case kRecEpisodeBegin: {
      if (in_episode_)
        throw TraceStreamError(TraceStreamErrc::kBadRecord,
                               "seo-trace episode-begin inside an episode");
      record.type = TraceRecord::Type::kEpisodeBegin;
      // The only variable-length record: a corrupt length field surfaces
      // from BinaryReader as BinaryIoError and is rebranded here.
      try {
        record.episode.seed = fields.u64();
        record.episode.scenario_digest = fields.u64();
        record.episode.point_index = fields.u32();
        record.episode.vehicle = fields.u32();
        record.episode.label = fields.str();
      } catch (const BinaryIoError&) {
        throw TraceStreamError(TraceStreamErrc::kBadRecord,
                               "trace record payload shorter than its fields");
      }
      in_episode_ = true;
      counts_ = {};
      break;
    }
    case kRecSample: {
      require_in_episode("sample");
      require_size("sample", kSamplePayload);
      record.type = TraceRecord::Type::kSample;
      TraceSample& s = record.sample;
      s.t = fields.f64();
      s.position.x = fields.f64();
      s.position.y = fields.f64();
      s.heading = fields.f64();
      s.speed = fields.f64();
      s.barrier_h = fields.f64();
      s.delta_max = static_cast<int>(static_cast<std::int32_t>(fields.u32()));
      const std::uint8_t flags = fields.u8();
      s.unconstrained = (flags & 1) != 0;
      s.interval_started = (flags & 2) != 0;
      s.filter_engaged = (flags & 4) != 0;
      s.steering = fields.f64();
      s.throttle = fields.f64();
      s.detection_age_s = fields.f64();
      ++counts_.samples;
      break;
    }
    case kRecOffload: {
      require_in_episode("offload");
      require_size("offload", kOffloadPayload);
      record.type = TraceRecord::Type::kOffload;
      OffloadEvent& e = record.offload;
      e.pipeline = fields.u32();
      e.probe = fields.u8() != 0;
      e.submit_s = fields.f64();
      e.bytes = fields.f64();
      e.tx_time_s = fields.f64();
      e.deadline_s = fields.f64();
      ++counts_.offloads;
      break;
    }
    case kRecEpisodeEnd: {
      require_in_episode("episode-end");
      require_size("episode-end", kEpisodeEndPayload);
      record.type = TraceRecord::Type::kEpisodeEnd;
      record.counts.samples = fields.u64();
      record.counts.offloads = fields.u64();
      const std::uint8_t flags = fields.u8();
      TraceEpisodeSummary& sum = record.summary;
      sum.completed = (flags & 1) != 0;
      sum.collided = (flags & 2) != 0;
      sum.off_road = (flags & 4) != 0;
      sum.timed_out = (flags & 8) != 0;
      sum.duration_s = fields.f64();
      sum.avg_speed = fields.f64();
      sum.min_h = fields.f64();
      sum.filter_engagements = fields.u64();
      sum.intervals = fields.u64();
      sum.energy_actual_j = fields.f64();
      sum.energy_baseline_j = fields.f64();
      if (record.counts.samples != counts_.samples ||
          record.counts.offloads != counts_.offloads)
        throw TraceStreamError(
            TraceStreamErrc::kBadRecord,
            "seo-trace episode-end counts disagree with the records read");
      in_episode_ = false;
      ++episodes_;
      break;
    }
    case kRecStreamEnd: {
      if (in_episode_)
        throw TraceStreamError(TraceStreamErrc::kBadRecord,
                               "seo-trace stream-end inside an episode");
      require_size("stream-end", kStreamEndPayload);
      total_episodes_ = fields.u64();
      if (total_episodes_ != episodes_)
        throw TraceStreamError(
            TraceStreamErrc::kBadRecord,
            "seo-trace stream-end claims " + std::to_string(total_episodes_) +
                " episodes, stream contained " + std::to_string(episodes_));
      char extra = 0;
      in_.read(&extra, 1);
      if (in_.gcount() != 0)
        throw TraceStreamError(TraceStreamErrc::kBadRecord,
                               "trailing bytes after seo-trace stream-end");
      done_ = true;
      return false;
    }
    default:
      throw TraceStreamError(TraceStreamErrc::kBadRecord,
                             "unknown seo-trace record type " +
                                 std::to_string(type));
  }
  return true;
}

// ---------------------------------------------------------------------------
// OrderedTraceSink
// ---------------------------------------------------------------------------

void OrderedTraceSink::set_run_digest(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  SEO_EXPECT(!header_written_);
  run_digest_ = digest;
}

void OrderedTraceSink::write_header_locked() {
  if (header_written_) return;
  write_header(*out_, run_digest_);
  header_written_ = true;
}

void OrderedTraceSink::commit(std::uint64_t seq, std::string block,
                              std::uint64_t episodes) {
  std::lock_guard<std::mutex> lock(mutex_);
  SEO_EXPECT(!finished_);
  SEO_EXPECT(seq >= next_seq_);
  SEO_EXPECT(pending_.find(seq) == pending_.end());
  write_header_locked();
  pending_.emplace(seq, std::make_pair(std::move(block), episodes));
  // Drain the contiguous prefix: blocks land on the wire strictly in
  // sequence order no matter which grid point finished first.
  while (true) {
    const auto it = pending_.find(next_seq_);
    if (it == pending_.end()) break;
    put(*out_, it->second.first);
    episodes_ += it->second.second;
    pending_.erase(it);
    ++next_seq_;
  }
  out_->flush();
}

void OrderedTraceSink::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  SEO_EXPECT(!finished_);
  if (!pending_.empty())
    throw ContractViolation(
        "trace sink finished with a sequence gap: block " +
        std::to_string(next_seq_) + " was never committed");
  write_header_locked();
  finished_ = true;
  write_stream_end(*out_, episodes_);
}

std::uint64_t OrderedTraceSink::episodes_written() const {
  return episodes_;
}

}  // namespace seo
