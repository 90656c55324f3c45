#include "common/crc.h"

#include <bit>
#include <cstring>

namespace nrs {
namespace {

/// The low bits of p[0, 8) as one byte, p[0]'s in the top bit.
std::uint32_t pack8(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    // Byte j's low bit lands in bit 63 - j of the product, and no two
    // partial products share a bit, so nothing carries.
    return static_cast<std::uint32_t>(
        ((v & 0x0101010101010101ull) * 0x8040201008040201ull) >> 56);
  } else {
    std::uint32_t byte = 0;
    for (int j = 0; j < 8; ++j) {
      byte = (byte << 1) | (p[j] & 1u);
    }
    return byte;
  }
}

}  // namespace

std::uint32_t CrcGenerator::compute(
    std::span<const std::uint8_t> bits) const {
  // Long division; the register holds the current remainder in the low
  // `length_` bits.  Eight message bits at a time: the register's top
  // byte XOR those bits picks what eight bitwise steps feed back
  // (table_), and the rest of the register shifts up by eight, which
  // leaves the bitwise division's remainder.
  std::uint32_t reg = 0;
  std::size_t i = 0;
  if (length_ >= 8) {
    for (; i + 8 <= bits.size(); i += 8) {
      const std::uint32_t top = (reg >> (length_ - 8)) ^ pack8(&bits[i]);
      reg = ((reg << 8) & mask_) ^ table_[top];
    }
  }
  for (; i < bits.size(); ++i) {
    reg = shift_in(reg, bits[i]);
  }
  return reg;
}

void CrcGenerator::attach(BitVector& bits) const {
  const std::uint32_t crc = compute(bits);
  for (unsigned i = 0; i < length_; ++i) {
    bits.push_back(static_cast<std::uint8_t>((crc >> (length_ - 1 - i)) & 1));
  }
}

bool CrcGenerator::check(std::span<const std::uint8_t> bits) const {
  if (bits.size() < length_) {
    return false;
  }
  // A valid codeword has zero remainder over payload+CRC.
  return compute(bits) == 0;
}

void CrcGenerator::mask_rnti(BitVector& bits, std::uint16_t rnti) const {
  if (bits.size() < 16) {
    return;
  }
  const std::size_t start = bits.size() - 16;
  for (unsigned i = 0; i < 16; ++i) {
    bits[start + i] ^= static_cast<std::uint8_t>((rnti >> (15 - i)) & 1);
  }
}

std::uint32_t CrcGenerator::syndrome(
    std::span<const std::uint8_t> bits_with_crc) const {
  if (bits_with_crc.size() < length_) {
    return ~0u;
  }
  const std::size_t payload_len = bits_with_crc.size() - length_;
  std::uint32_t received = 0;
  for (std::uint8_t b : bits_with_crc.subspan(payload_len)) {
    received = (received << 1) | (b & 1u);
  }
  return received ^ compute(bits_with_crc.first(payload_len));
}

}  // namespace nrs
