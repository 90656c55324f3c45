// Master Information Block and the PBCH that broadcasts it (3GPP TS 38.331
// / 38.212 7.1).  The MIB is the first thing a UE — or NR-Scope — decodes
// after synchronizing: it carries the frame number and where to find
// CORESET 0, which in turn points at SIB1 (paper section 3.1.1, Fig. 2).
//
// SSB layout in this codebase (simplified from TS 38.211 7.4.3): a 12-PRB
// window in the slot-0 grid of every frame, with the PSS on symbol 0, the
// polar-coded PBCH on symbols 1-2 (encoded with the PDCCH machinery and
// RNTI 0), and the SSS on symbol 3.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bit_io.h"
#include "common/timing.h"
#include "common/types.h"
#include "nr/coreset.h"
#include "nr/pdcch.h"
#include "phy/resource_grid.h"

namespace nrs {

struct Mib {
  std::uint16_t sfn = 0;            ///< 10-bit system frame number
  Scs scs_common = Scs::kHz30;      ///< subcarrier spacing of the cell
  std::uint8_t coreset0_rb_start = 0;
  std::uint8_t coreset0_n_prb6 = 8;  ///< CORESET0 width / 6
  std::uint8_t coreset0_duration = 2;
  std::uint8_t searchspace0 = 0;     ///< candidates index for the common SS
  bool cell_barred = false;

  [[nodiscard]] BitVector pack() const;
  static Mib unpack(std::span<const std::uint8_t> bits);
  [[nodiscard]] bool operator==(const Mib&) const = default;
};

/// Number of bits in a packed MIB.
unsigned mib_payload_size();

/// Where the SSB sits in the slot grid.
struct SsbLocation {
  unsigned prb_start = 0;  ///< 12-PRB window
  static constexpr unsigned kNPrb = 12;
  static constexpr unsigned kPssSymbol = 0;
  static constexpr unsigned kSssSymbol = 3;
};

/// The pseudo-CORESET carrying the PBCH inside the SSB window.
CoresetConfig pbch_coreset(std::uint16_t pci, const SsbLocation& ssb);

/// Write the full SSB (PSS + PBCH(MIB) + SSS) into a slot grid, encoding
/// the PBCH through the transmitter's `scratch`.
void encode_ssb(std::uint16_t pci, const SsbLocation& ssb, const Mib& mib,
                const SlotPoint& slot, ResourceGrid& grid,
                PdcchEncodeScratch& scratch);

/// Decode the MIB from an SSB whose location and PCI are already known
/// (from the PSS/SSS stage): the PBCH is one location (every CCE of
/// pbch_coreset), decoded as a batch of one through `scratch`.  Returns
/// nullopt on CRC failure.
std::optional<Mib> decode_mib(std::uint16_t pci, const SsbLocation& ssb,
                              const SlotPoint& slot,
                              const ResourceGrid& grid,
                              PdcchScratch& scratch);

}  // namespace nrs
