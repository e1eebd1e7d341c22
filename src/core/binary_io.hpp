// Canonical binary encoding — the one little-endian, fixed-width,
// FNV-1a-checksummed byte discipline shared by every durable byte stream
// in the library: the `seo-trace` record framing (sim/trace.cpp), the
// artifact-store v2 containers (core/artifact_store.cpp) and the
// `sweep --workers` frames (sim/sweep_shard.cpp).
//
// Extracted from the trace layer's framing helpers so a new on-disk format
// cannot drift from the established one:
//
//  * Little-endian fixed width, explicitly byte-shuffled — the wire format
//    is canonical regardless of host layout (the same discipline
//    core/fingerprint uses for digests).
//  * Doubles travel as raw IEEE-754 bit patterns: -0.0, denormals, inf and
//    NaN payloads round-trip bit-identically, never through decimal
//    formatting.
//  * Strings are u32 length-prefixed, so adjacent fields cannot alias.
//  * Checksums are FNV-1a over the exact encoded bytes (mark a start
//    offset, tail the span with its digest), so a digest mismatch means
//    corruption, never platform drift.
//
// BinaryWriter appends to a caller-owned std::string (compose frames in
// memory, then write/rename atomically); BinaryReader is a bounds-checked
// decoder over a string_view that throws BinaryIoError instead of ever
// reading past the end or trusting a length field blindly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace seo {

/// Thrown by BinaryReader on truncation, checksum mismatch, or a length
/// field that exceeds its sanity cap.  Consumers with richer error
/// taxonomies (TraceStreamError, the artifact store) catch and rebrand it.
class BinaryIoError : public std::runtime_error {
 public:
  explicit BinaryIoError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Little-endian appender over a caller-owned buffer.  All multi-byte
/// values are explicitly byte-shuffled; `mark()`/`checksum_from()` tail a
/// span with the FNV-1a digest of its exact bytes.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  /// Two's-complement via u64, so negative values round-trip exactly.
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Raw IEEE-754 bit pattern — bit-identical round trip for every value
  /// class (denormals, -0.0, infinities, NaN payloads).
  void f64(double v);

  void bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  /// u32 length prefix + raw bytes (embedded NULs are data, not
  /// terminators).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// Current offset into the buffer — the start of a checksummed span.
  std::size_t mark() const { return out_.size(); }
  /// Appends the u64 FNV-1a digest of out[mark, end) — the canonical
  /// checksum tail every seo binary format ends its spans with.
  void checksum_from(std::size_t mark);

  std::string& buffer() { return out_; }

 private:
  void put_le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }

  std::string& out_;
};

/// Bounds-checked little-endian decoder over one in-memory span.  Every
/// accessor throws BinaryIoError rather than read past the end; length
/// fields are validated against an explicit cap before they can drive an
/// allocation.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(gather(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(gather(4)); }
  std::uint64_t u64() { return gather(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();

  void bytes(void* dst, std::size_t size);
  /// A view into the underlying buffer (no copy); valid while the buffer
  /// outlives the reader.
  std::string_view view(std::size_t size) {
    return std::string_view(take(size), size);
  }
  /// u32 length-prefixed string.  `max_size` guards against a corrupt
  /// length field driving an allocation: anything larger is an error, not
  /// data.
  std::string str(std::size_t max_size = kDefaultMaxString);

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return data_.size() - offset_; }
  bool exhausted() const { return offset_ == data_.size(); }
  /// Throws unless every byte has been consumed — trailing bytes in a
  /// fixed-layout span are corruption, not data.
  void require_exhausted(const char* what) const;

  /// Reads the u64 checksum tail and verifies it against the FNV-1a digest
  /// of data[mark, current); throws BinaryIoError on mismatch.
  void verify_checksum_from(std::size_t mark, const char* what);

  static constexpr std::size_t kDefaultMaxString = 1u << 20;

 private:
  const char* take(std::size_t size);
  std::uint64_t gather(std::size_t size);

  std::string_view data_;
  std::size_t offset_ = 0;
};

/// Incremental frame extraction over a byte stream that arrives in
/// arbitrary slices — the pipe reader behind the multi-process sweep.  A
/// frame is the canonical seo discipline at u64 width:
///
///   u8 type | u64 payload_size | payload | u64 checksum
///            (FNV-1a over type + size + payload bytes)
///
/// feed() appends whatever a read(2) returned; next() yields one complete,
/// checksum-verified frame at a time and returns false while the tail of
/// the current frame is still in flight.  A corrupt length field or digest
/// throws BinaryIoError immediately — a damaged stream is never silently
/// resynchronized.  Consumed bytes are compacted away, so steady-state
/// memory is one in-flight frame, not the stream length.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::uint64_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(const char* data, std::size_t size) {
    buffer_.append(data, size);
  }

  /// Extracts the next complete frame into (type, payload).  Returns false
  /// when more bytes are needed; throws BinaryIoError on an oversized
  /// length field or a checksum mismatch.
  bool next(std::uint8_t& type, std::string& payload);

  /// True when no partial frame is buffered — how a reader distinguishes a
  /// clean end-of-stream from truncation mid-frame.
  bool idle() const { return buffer_.size() == consumed_; }

  /// Bytes of the current partial frame still buffered.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Big enough for any serialized grid-point trace block, small enough
  /// that a corrupt length field cannot drive a runaway allocation.
  static constexpr std::uint64_t kDefaultMaxPayload = 1ull << 30;

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  std::uint64_t max_payload_;
};

/// Appends one FrameAssembler-format frame (u8 type, u64 size, payload,
/// FNV-1a checksum) to `out` — the writer side of the pipe discipline.
void append_frame(std::string& out, std::uint8_t type,
                  std::string_view payload);

}  // namespace seo
