// Single-location PDCCH decode for tests.  The library has one decoder,
// decode_pdcch_batch; this helper runs one location through it as a batch
// of one and takes the CRC verdict the way the engine does, either against
// a known RNTI or by recovering the RNTI from the CRC XOR.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "nr/pdcch.h"

namespace nrs {

/// A location whose CRC passed.
struct LocationDecode {
  Dci dci;
  Rnti rnti = kInvalidRnti;  ///< RNTI whose mask satisfied the CRC
  float snr_estimate_db = 0.0f;
};

/// Decode `format` at `loc`.  With `rnti` given, the CRC must pass under
/// its mask.  Without one, the 16-bit mask is recovered as crc(payload)
/// XOR received-crc — the paper's C-RNTI recovery trick (section 3.1.2) —
/// and accepted only when the full 24-bit CRC then checks out (the upper
/// 8 CRC bits are unmasked, so this rejects 255/256 noise decodes).
inline std::optional<LocationDecode> decode_location(
    const CoresetConfig& coreset, PdcchCandidateLoc loc, DciFormat format,
    unsigned n_prb_bwp, const SlotPoint& slot, const ResourceGrid& grid,
    std::optional<Rnti> rnti = std::nullopt) {
  PdcchScratch scratch;
  const unsigned payload_bits = dci_payload_size(format, n_prb_bwp);
  if (decode_pdcch_batch(coreset, std::span(&loc, 1), payload_bits, slot,
                         grid, scratch) == 0) {
    return std::nullopt;
  }
  const std::span<const std::uint8_t> bits(
      scratch.batch.bits.data(), payload_bits + kCrc24C.length());
  const Rnti mask = rnti.value_or(kCrc24C.recover_mask(bits));
  if (!check_pdcch_crc(bits, mask)) {
    return std::nullopt;
  }
  return LocationDecode{
      Dci::unpack(format, n_prb_bwp, bits.first(payload_bits)), mask,
      scratch.batch.snr[0]};
}

}  // namespace nrs
