#include "common/crc.h"

namespace nrs {

std::uint32_t CrcGenerator::compute(
    std::span<const std::uint8_t> bits) const {
  // Bitwise long division; the register holds the current remainder in the
  // low `length_` bits.
  std::uint32_t reg = 0;
  const std::uint32_t top = 1u << (length_ - 1);
  const std::uint32_t mask = (length_ == 32) ? 0xFFFFFFFFu
                                             : ((1u << length_) - 1u);
  for (std::uint8_t b : bits) {
    const bool feedback = ((reg & top) != 0) != ((b & 1) != 0);
    reg = (reg << 1) & mask;
    if (feedback) {
      reg ^= poly_ & mask;
    }
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
