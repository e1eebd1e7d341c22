// Binary encoding tests: the BinaryWriter/BinaryReader pair is the one
// byte discipline every durable format shares (trace frames, artifact
// containers, worker frames), so its guarantees are locked here directly —
// little-endian wire layout, bit-exact doubles for every IEEE-754 value
// class, NUL-transparent strings, checksum tails that catch single-bit
// corruption, and bounds-checked decoding that throws instead of ever
// reading past the end or trusting a hostile length field.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_io.hpp"

namespace seo {
namespace {

TEST(BinaryIo, FixedWidthRoundTrip) {
  std::string buffer;
  BinaryWriter w(buffer);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  EXPECT_EQ(buffer.size(), 1u + 2u + 4u + 8u);

  BinaryReader r{std::string_view(buffer)};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.exhausted());
  EXPECT_NO_THROW(r.require_exhausted("frame"));
}

TEST(BinaryIo, WireLayoutIsLittleEndian) {
  // The format is defined by bytes on the wire, not by host layout: pin
  // the exact little-endian shuffle so a port can never silently flip it.
  std::string buffer;
  BinaryWriter w(buffer);
  w.u32(0x04030201u);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0], '\x01');
  EXPECT_EQ(buffer[1], '\x02');
  EXPECT_EQ(buffer[2], '\x03');
  EXPECT_EQ(buffer[3], '\x04');
}

TEST(BinaryIo, DoublesRoundTripBitIdentically) {
  // Every value class travels as raw IEEE-754 bits — including the ones
  // decimal formatting mangles: -0.0, denormals, infinities, NaN payloads.
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.5,
      -1.0 / 3.0,
      std::numeric_limits<double>::min(),         // smallest normal
      std::numeric_limits<double>::denorm_min(),  // smallest denormal
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  std::string buffer;
  BinaryWriter w(buffer);
  for (const double v : values) w.f64(v);

  BinaryReader r{std::string_view(buffer)};
  for (const double v : values) {
    const double back = r.f64();
    std::uint64_t want = 0, got = 0;
    std::memcpy(&want, &v, sizeof want);
    std::memcpy(&got, &back, sizeof got);
    EXPECT_EQ(got, want);  // bit pattern, not value comparison (NaN, -0.0)
  }
  // Sign of zero survives — the classic text-format casualty.
  std::string zero;
  BinaryWriter zw(zero);
  zw.f64(-0.0);
  BinaryReader zr{std::string_view(zero)};
  EXPECT_TRUE(std::signbit(zr.f64()));
}

TEST(BinaryIo, StringsCarryEmbeddedNulsAndEmpty) {
  const std::string with_nul("a\0b", 3);
  std::string buffer;
  BinaryWriter w(buffer);
  w.str(with_nul);
  w.str("");
  w.str("plain");

  BinaryReader r{std::string_view(buffer)};
  EXPECT_EQ(r.str(), with_nul);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "plain");
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, ChecksumVerifiesAndCatchesSingleBitCorruption) {
  std::string buffer;
  BinaryWriter w(buffer);
  const std::size_t start = w.mark();
  w.u64(77);
  w.str("span");
  w.checksum_from(start);

  {
    BinaryReader r{std::string_view(buffer)};
    const std::size_t mark = r.offset();
    EXPECT_EQ(r.u64(), 77u);
    EXPECT_EQ(r.str(), "span");
    EXPECT_NO_THROW(r.verify_checksum_from(mark, "span"));
    EXPECT_TRUE(r.exhausted());
  }
  // Any single flipped bit — in the data or the checksum itself — fails
  // verification.
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    std::string corrupt = buffer;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    BinaryReader r{std::string_view(corrupt)};
    const std::size_t mark = r.offset();
    (void)r.u64();
    (void)r.view(4 + 4);  // length prefix + "span" bytes, however corrupted
    EXPECT_THROW(r.verify_checksum_from(mark, "span"), BinaryIoError)
        << "flipped byte " << i;
  }
}

TEST(BinaryIo, ShortReadsThrowInsteadOfOverrunning) {
  std::string buffer;
  BinaryWriter w(buffer);
  w.u32(5);

  BinaryReader r{std::string_view(buffer)};
  EXPECT_EQ(r.u16(), 5u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_THROW(r.u64(), BinaryIoError);     // 8 wanted, 2 left
  EXPECT_THROW(r.require_exhausted("frame"), BinaryIoError);

  BinaryReader empty{std::string_view()};
  EXPECT_THROW(empty.u8(), BinaryIoError);
  char sink[4];
  BinaryReader partial{std::string_view(buffer.data(), 2)};
  EXPECT_THROW(partial.bytes(sink, sizeof sink), BinaryIoError);
}

TEST(BinaryIo, HostileStringLengthIsAnErrorNotAnAllocation) {
  // A corrupt u32 length field must hit the cap (or the buffer bound)
  // before it can drive a giant allocation or an overrun.
  std::string buffer;
  BinaryWriter w(buffer);
  w.u32(0xffffffffu);  // claims a 4 GiB string in a 4-byte buffer
  {
    BinaryReader r{std::string_view(buffer)};
    EXPECT_THROW((void)r.str(), BinaryIoError);
  }
  // A length that passes the cap but exceeds the remaining bytes still
  // throws on the read itself.
  std::string truncated;
  BinaryWriter tw(truncated);
  tw.u32(64);
  tw.bytes("short", 5);
  {
    BinaryReader r{std::string_view(truncated)};
    EXPECT_THROW((void)r.str(), BinaryIoError);
  }
  // An explicit cap tightens the default.
  std::string capped;
  BinaryWriter cw(capped);
  cw.str("0123456789");
  {
    BinaryReader r{std::string_view(capped)};
    EXPECT_THROW((void)r.str(4), BinaryIoError);
  }
}

}  // namespace
}  // namespace seo
