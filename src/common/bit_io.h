// Bit-level serialization used by every NR message codec (MIB, SIB1, DCI,
// RRC).  Bits are stored MSB-first, one logical bit per entry of the
// underlying vector, which keeps the CRC/scrambling/polar interfaces simple
// and mirrors how 3GPP specs describe payloads (a_0 .. a_{A-1}).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nrs {

/// A sequence of bits, one per byte.  Values are 0 or 1.
using BitVector = std::vector<std::uint8_t>;

/// Appends fixed-width unsigned fields to a BitVector, MSB first.
class BitWriter {
 public:
  BitWriter() = default;
  /// Write into `storage`'s buffer: its contents are dropped and its
  /// capacity reused (take() hands the buffer back).
  explicit BitWriter(BitVector storage) : bits_(std::move(storage)) {
    bits_.clear();
  }

  /// Append the `width` low bits of `value`, most-significant first.
  void write(std::uint64_t value, unsigned width);

  /// Append a single bit.
  void write_bit(bool bit) { bits_.push_back(bit ? 1 : 0); }

  /// Append raw bits verbatim.
  void write_bits(std::span<const std::uint8_t> bits);

  /// Pad with zero bits until the total length is a multiple of `align`.
  void align_to(unsigned align);

  [[nodiscard]] std::size_t size() const { return bits_.size(); }
  [[nodiscard]] const BitVector& bits() const { return bits_; }
  [[nodiscard]] BitVector take() { return std::move(bits_); }

 private:
  BitVector bits_;
};

/// Reads fixed-width unsigned fields from a BitVector, MSB first.
/// Throws std::out_of_range when reading past the end (a decode error).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bits) : bits_(bits) {}

  /// Read `width` bits as an unsigned value (MSB first).
  std::uint64_t read(unsigned width);

  /// Read a single bit.
  bool read_bit();

  /// Skip `count` bits.
  void skip(std::size_t count);

  [[nodiscard]] std::size_t remaining() const { return bits_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> bits_;
  std::size_t pos_ = 0;
};

/// Pack a bit vector into bytes (MSB first); the tail is zero-padded.
std::vector<std::uint8_t> pack_bits(std::span<const std::uint8_t> bits);

/// Unpack `nbits` bits from a byte buffer (MSB first).
BitVector unpack_bits(std::span<const std::uint8_t> bytes, std::size_t nbits);

}  // namespace nrs
