// Single-location PDCCH decode for tests.  The library has one decoder,
// decode_pdcch_batch; this helper runs one location through it as a batch
// of one and takes the CRC verdict the way the engine does, by comparing
// the RNTI the location's CRC names against a known RNTI, or by taking
// that RNTI as recovered.
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

/// Decode `format` at `loc` from a fresh estimate of the CORESET.  With
/// `rnti` given, the CRC must pass under its mask.  Without one, any RNTI
/// the CRC names is accepted: crc(payload) XOR received-crc — the paper's
/// C-RNTI recovery trick (section 3.1.2) — with the upper 8 CRC bits
/// clear (they are unmasked, so this rejects 255/256 noise decodes).
inline std::optional<LocationDecode> decode_location(
    const CoresetConfig& coreset, PdcchCandidateLoc loc, DciFormat format,
    unsigned n_prb_bwp, const SlotPoint& slot, const ResourceGrid& grid,
    std::optional<Rnti> rnti = std::nullopt) {
  PdcchScratch scratch;
  const unsigned payload_bits = dci_payload_size(format, n_prb_bwp);
  decode_pdcch_batch(coreset, std::span(&loc, 1), payload_bits, slot,
                     estimate_coreset(coreset, slot, grid, scratch), scratch);
  const std::optional<Rnti> named = scratch.batch.rnti[0];
  if (!named || (rnti && *rnti != *named)) {
    return std::nullopt;
  }
  return LocationDecode{
      Dci::unpack(format, n_prb_bwp,
                  std::span<const std::uint8_t>(scratch.batch.bits.data(),
                                                payload_bits)),
      *named, scratch.batch.snr[0]};
}

}  // namespace nrs
