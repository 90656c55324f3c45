// CRC generators from 3GPP TS 38.212 section 5.1.  All NR transport and
// control channels attach one of these codes; NR-Scope additionally exploits
// the CRC to recover C-RNTIs (the scrambled-CRC XOR trick, paper section
// 3.1.2), so the implementation works directly on bit vectors.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bit_io.h"

namespace nrs {

/// A cyclic code defined by its generator polynomial (without the leading
/// x^L term) and length L.  Immutable; one instance per polynomial.  A
/// generator of L >= 8 bits divides eight message bits per step through a
/// 256-entry remainder table built at compile time, so the `kCrc*`
/// constants below are constant-initialized.
class CrcGenerator {
 public:
  constexpr CrcGenerator(std::uint32_t poly, unsigned length)
      : poly_(poly),
        length_(length),
        mask_(length == 32 ? 0xFFFFFFFFu : (1u << length) - 1u) {
    if (length_ < 8) {
      return;
    }
    // table_[t]: the register after shifting t, placed in its top eight
    // bits, through eight zero message bits.
    for (std::uint32_t t = 0; t < 256; ++t) {
      std::uint32_t reg = t << (length_ - 8);
      for (int bit = 0; bit < 8; ++bit) {
        reg = shift_in(reg, 0);
      }
      table_[t] = reg;
    }
  }

  /// Compute the CRC remainder of `bits`, returned in the low `length()`
  /// bits of the result.
  [[nodiscard]] std::uint32_t compute(std::span<const std::uint8_t> bits) const;

  /// Append the CRC of `bits` to `bits` (MSB of the remainder first).
  void attach(BitVector& bits) const;

  /// True when `bits` = payload + CRC is a valid codeword.
  [[nodiscard]] bool check(std::span<const std::uint8_t> bits) const;

  /// XOR the trailing 16 CRC bits of `bits` with `rnti` in place.
  void mask_rnti(BitVector& bits, std::uint16_t rnti) const;

  /// The received CRC (the trailing `length()` bits of `bits_with_crc`)
  /// XOR the CRC computed over the payload before it.  Zero for a valid
  /// codeword; for one whose trailing 16 CRC bits were masked with an RNTI
  /// (TS 38.212 7.3.2) and L >= 16, exactly that RNTI.  So one division
  /// tells which RNTI, if any, a decoded DCI carries: the paper's C-RNTI
  /// recovery primitive (section 3.1.2) and every masked CRC check at
  /// once.  Returns ~0u when `bits_with_crc` is shorter than the CRC.
  [[nodiscard]] std::uint32_t syndrome(
      std::span<const std::uint8_t> bits_with_crc) const;

  [[nodiscard]] unsigned length() const { return length_; }

 private:
  /// One step of the bitwise long division: shift message bit `bit` into
  /// the remainder `reg`, with no data-dependent branch.
  [[nodiscard]] constexpr std::uint32_t shift_in(std::uint32_t reg,
                                                 std::uint32_t bit) const {
    const std::uint32_t feedback = ((reg >> (length_ - 1)) ^ bit) & 1u;
    return ((reg << 1) & mask_) ^ (poly_ & mask_ & (0u - feedback));
  }

  std::uint32_t poly_;
  unsigned length_;
  std::uint32_t mask_;
  std::array<std::uint32_t, 256> table_{};  ///< unused when length_ < 8
};

// Generator polynomials from TS 38.212 5.1.
// CRC24A: x^24 + x^23 + x^18 + x^17 + x^14 + x^11 + x^10 + x^7 + x^6 + x^5
//         + x^4 + x^3 + x + 1
inline constexpr CrcGenerator kCrc24A{0x864CFB, 24};
// CRC24B: x^24 + x^23 + x^6 + x^5 + x + 1
inline constexpr CrcGenerator kCrc24B{0x800063, 24};
// CRC24C: x^24 + x^23 + x^21 + x^20 + x^17 + x^15 + x^13 + x^12 + x^8 + x^4
//         + x^2 + x + 1  (used by PDCCH / PBCH polar chains)
inline constexpr CrcGenerator kCrc24C{0xB2B117, 24};
// CRC16: x^16 + x^12 + x^5 + 1
inline constexpr CrcGenerator kCrc16{0x1021, 16};
// CRC11: x^11 + x^10 + x^9 + x^5 + 1
inline constexpr CrcGenerator kCrc11{0x621, 11};
// CRC6: x^6 + x^5 + 1
inline constexpr CrcGenerator kCrc6{0x21, 6};

}  // namespace nrs
