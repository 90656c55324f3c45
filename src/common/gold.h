// Length-31 Gold pseudo-random sequence from 3GPP TS 38.211 5.2.1, used to
// scramble PDCCH/PDSCH payloads and to generate DMRS.  Both the gNB
// simulator and the NR-Scope sniffer derive the same sequences from
// identifiers that are broadcast in the clear (cell ID, scrambling IDs), so
// the sniffer can descramble without operator cooperation.
#pragma once

#include <cstdint>
#include <span>

#include "common/bit_io.h"

namespace nrs {

/// Generates c(n) = (x1(n+Nc) + x2(n+Nc)) mod 2, Nc = 1600,
/// x1 seeded with 1, x2 seeded with c_init.
///
/// Both LFSRs advance 32 bits per step, and the Nc = 1600 fast-forward
/// costs no stepping at all: x1 after Nc bits is a constant, and x2 after
/// Nc bits is linear over GF(2) in c_init, so construction XORs one
/// precomputed word per set bit of c_init.
class GoldSequence {
 public:
  explicit GoldSequence(std::uint32_t c_init);

  /// Next scrambling bit.
  std::uint8_t next();

  /// Next 32 bits; bit k of the result is the k-th bit next() would have
  /// returned.
  std::uint32_t next_word();

  /// Produce `count` bits starting at the current position.
  BitVector generate(std::size_t count);

  /// Advance without producing output.
  void advance(std::size_t count);

 private:
  std::uint32_t x1_;   ///< x1 window of the next unread 32-bit word
  std::uint32_t x2_;   ///< x2 window of the next unread 32-bit word
  std::uint32_t out_ = 0;  ///< unread bits of the current word, LSB first
  unsigned avail_ = 0;     ///< number of unread bits in out_

  /// Output word at the window, then advance both windows by 32 bits.
  std::uint32_t step_word();
};

/// XOR `bits` in place with the Gold sequence seeded by `c_init`.
void scramble(std::span<std::uint8_t> bits, std::uint32_t c_init);

/// c_init for PDCCH data scrambling (TS 38.211 7.3.2.3):
/// (n_RNTI * 2^16 + n_ID) mod 2^31.  For common search spaces n_RNTI = 0.
std::uint32_t pdcch_scrambling_cinit(std::uint16_t n_rnti, std::uint16_t n_id);

/// c_init for PDSCH data scrambling (TS 38.211 7.3.1.1):
/// n_RNTI * 2^15 + q * 2^14 + n_ID, q = 0 (single codeword).
std::uint32_t pdsch_scrambling_cinit(std::uint16_t rnti, std::uint16_t n_id);

}  // namespace nrs
