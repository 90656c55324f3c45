// PDSCH: the downlink shared (data) channel.  The gNB simulator carries
// every transport block (SIB1, RAR, RRC Setup, user traffic) over this
// chain; the sniffer decodes it for system information and — optionally —
// for MSG4 verification (paper section 3.1.2).  Chain: TB + CRC24A ->
// convolutional FEC (LDPC stand-in, see DESIGN.md) -> rate matching to the
// allocated REs -> Gold scrambling -> QAM -> grid mapping with a
// front-loaded full-symbol DMRS.
#pragma once

#include <optional>
#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "phy/modulation.h"
#include "phy/resource_grid.h"

namespace nrs {

/// Physical mapping of one PDSCH transmission.
struct PdschAllocation {
  Rnti rnti = kInvalidRnti;
  unsigned prb_start = 0;
  unsigned prb_len = 0;
  unsigned start_symbol = 2;  ///< first symbol; carries the DMRS
  unsigned n_symbols = 12;    ///< total symbols including the DMRS symbol
  Modulation modulation = Modulation::kQpsk;
  std::uint16_t n_id = 0;     ///< scrambling identity (PCI)

  /// REs available for data: all symbols after the DMRS symbol.
  [[nodiscard]] unsigned data_res() const {
    return prb_len * kSubcarriersPerPrb * (n_symbols - 1);
  }
  [[nodiscard]] unsigned coded_bits() const {
    return data_res() * bits_per_symbol(modulation);
  }
};

/// Encoder working buffers, owned by the transmitter (the gNB simulator
/// keeps one).  Each stage's output is sized up front and every buffer is
/// grow-only, so a warm encode allocates nothing.
struct PdschEncodeScratch {
  BitVector tb;       ///< payload + CRC24A
  BitVector coded;    ///< convolutional code output
  BitVector matched;  ///< rate-matched bits of a non-zero block
  std::vector<std::uint32_t> words;  ///< scrambled bits, 32 to a word
};

/// Encode `payload` (exactly `tbs` bits) into the grid.  An all-zero
/// block's codeword is zero whatever its size, so its grid depends only
/// on the allocation, and an empty `payload` stands for it: the gNB sends
/// every user payload that way.
void encode_pdsch(const PdschAllocation& alloc, const SlotPoint& slot,
                  std::span<const std::uint8_t> payload, ResourceGrid& grid,
                  PdschEncodeScratch& scratch);

/// Same, with a scratch of its own.
void encode_pdsch(const PdschAllocation& alloc, const SlotPoint& slot,
                  std::span<const std::uint8_t> payload, ResourceGrid& grid);

/// Decode a PDSCH of known allocation and TBS.  Returns the payload when
/// the transport-block CRC24A passes (nullopt = decode failure, which at
/// low SNR is the expected, physical outcome).
std::optional<BitVector> decode_pdsch(const PdschAllocation& alloc,
                                      const SlotPoint& slot, unsigned tbs,
                                      const ResourceGrid& grid);

}  // namespace nrs
