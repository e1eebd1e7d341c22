#include "core/binary_io.hpp"

#include <cstring>

#include "core/fingerprint.hpp"

namespace seo {

namespace {

std::uint64_t fnv1a_over(std::string_view bytes) {
  FingerprintHasher hasher;
  hasher.mix_bytes(bytes.data(), bytes.size());
  return hasher.digest();
}

}  // namespace

void BinaryWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinaryWriter::checksum_from(std::size_t mark) {
  u64(fnv1a_over(std::string_view(out_).substr(mark)));
}

double BinaryReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void BinaryReader::bytes(void* dst, std::size_t size) {
  std::memcpy(dst, take(size), size);
}

std::string BinaryReader::str(std::size_t max_size) {
  const std::uint32_t size = u32();
  if (size > max_size)
    throw BinaryIoError("binary string length " + std::to_string(size) +
                        " exceeds cap " + std::to_string(max_size));
  return std::string(view(size));
}

void BinaryReader::require_exhausted(const char* what) const {
  if (!exhausted())
    throw BinaryIoError(std::string(what) + ": " +
                        std::to_string(remaining()) +
                        " trailing bytes after the last field");
}

void BinaryReader::verify_checksum_from(std::size_t mark, const char* what) {
  const std::string_view spanned = data_.substr(mark, offset_ - mark);
  const std::uint64_t expected = fnv1a_over(spanned);
  const std::uint64_t stored = u64();
  if (stored != expected)
    throw BinaryIoError(std::string(what) + ": checksum mismatch (stored " +
                        fingerprint_hex(stored) + ", computed " +
                        fingerprint_hex(expected) + ")");
}

void BinaryReader::overrun(std::size_t size) const {
  throw BinaryIoError("binary read of " + std::to_string(size) +
                      " bytes overruns the buffer (" +
                      std::to_string(remaining()) + " left)");
}

void append_frame(std::string& out, std::uint8_t type,
                  std::string_view payload) {
  BinaryWriter frame(out);
  const std::size_t start = frame.mark();
  frame.u8(type);
  frame.u64(payload.size());
  frame.bytes(payload.data(), payload.size());
  frame.checksum_from(start);
}

bool FrameAssembler::next(std::uint8_t& type, std::string& payload) {
  constexpr std::size_t kHead = 1 + 8;  // type + payload size
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHead) return false;
  BinaryReader head(std::string_view(buffer_).substr(consumed_, kHead));
  const std::uint8_t frame_type = head.u8();
  const std::uint64_t size = head.u64();
  // Validate the length field before waiting for the body: a corrupt size
  // must fail now, not stall the reader "waiting" for garbage bytes.
  if (size > max_payload_)
    throw BinaryIoError("frame payload length " + std::to_string(size) +
                        " exceeds cap " + std::to_string(max_payload_));
  const std::size_t frame_size = kHead + static_cast<std::size_t>(size) + 8;
  if (available < frame_size) return false;
  BinaryReader frame(std::string_view(buffer_).substr(consumed_, frame_size));
  const std::size_t mark = frame.offset();
  (void)frame.u8();
  (void)frame.u64();
  payload.assign(frame.view(static_cast<std::size_t>(size)));
  frame.verify_checksum_from(mark, "frame");
  type = frame_type;
  consumed_ += frame_size;
  // Compact once the consumed prefix dominates, keeping steady-state
  // memory at one in-flight frame without per-frame erases.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return true;
}

}  // namespace seo
