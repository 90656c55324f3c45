// Downlink Control Information formats and their bit-level packing
// (3GPP TS 38.212 section 7.3.1).  A DCI is the 30-80 bit payload NR-Scope
// blind-decodes from the PDCCH in every TTI (paper section 3.2.1); its
// translated "grant" (Appendix B) drives the TBS computation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bit_io.h"
#include "common/types.h"
#include "nr/mcs_tables.h"

namespace nrs {

enum class DciFormat : std::uint8_t {
  kUl0_0,  ///< PUSCH fallback grant
  kUl0_1,  ///< PUSCH UE-specific grant
  kDl1_0,  ///< PDSCH fallback grant (SIB/RAR/MSG4 use this)
  kDl1_1,  ///< PDSCH UE-specific grant
};

const char* to_string(DciFormat format);
[[nodiscard]] constexpr bool is_downlink(DciFormat f) {
  return f == DciFormat::kDl1_0 || f == DciFormat::kDl1_1;
}

/// Resource Indication Value for type-1 frequency allocation
/// (TS 38.214 5.1.2.2.2): encodes (start PRB, length) in one integer.
std::uint32_t riv_encode(unsigned start, unsigned length, unsigned n_prb);
void riv_decode(std::uint32_t riv, unsigned n_prb, unsigned& start,
                unsigned& length);
/// Bit width of the RIV field for a BWP of `n_prb` PRBs.
unsigned riv_bits(unsigned n_prb);

/// Superset of the fields of the four supported formats.  Fields not
/// present in a given format are ignored by pack() and zeroed by unpack().
struct Dci {
  DciFormat format = DciFormat::kDl1_0;

  // Frequency / time domain resource assignment.
  std::uint32_t freq_alloc_riv = 0;  ///< f_alloc (RIV coded)
  std::uint8_t time_alloc = 0;       ///< t_alloc: row of the TDRA table

  // Transport parameters.
  std::uint8_t mcs = 0;       ///< 5-bit MCS table index
  std::uint8_t ndi = 0;       ///< new data indicator (HARQ)
  std::uint8_t rv = 0;        ///< redundancy version
  std::uint8_t harq_id = 0;   ///< HARQ process number (up to 16)

  // Feedback / power control (decoded but not acted on by telemetry).
  std::uint8_t dai = 0;            ///< downlink assignment index
  std::uint8_t tpc = 0;            ///< transmit power control
  std::uint8_t pucch_resource = 0; ///< PUCCH resource indicator (DL only)
  std::uint8_t harq_feedback = 0;  ///< PDSCH-to-HARQ feedback timing
  std::uint8_t ports = 0;          ///< antenna ports (1_1 / 0_1)
  std::uint8_t srs_request = 0;    ///< SRS request (1_1 / 0_1)
  std::uint8_t dmrs_id = 0;        ///< DMRS sequence initialization

  /// Pack into the on-air payload for a BWP of `n_prb` PRBs.  The payload
  /// is zero-padded to the format's size; CRC attachment and RNTI masking
  /// happen in the PDCCH encoder.
  [[nodiscard]] BitVector pack(unsigned n_prb) const;

  /// Same, into `out` (its capacity is reused, so a warm buffer makes
  /// packing allocation-free).
  void pack(unsigned n_prb, BitVector& out) const;

  /// Unpack from a payload of dci_payload_size(format, n_prb) bits.
  static Dci unpack(DciFormat format, unsigned n_prb,
                    std::span<const std::uint8_t> bits);

  /// Human-readable rendering in the paper's Appendix B style.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const Dci& other) const = default;
};

/// Payload size in bits of `format` for a BWP of `n_prb` PRBs.  Fallback
/// formats 0_0 / 1_0 are padded to a common size so their count of blind
/// decodes stays down, matching 3GPP size alignment.
unsigned dci_payload_size(DciFormat format, unsigned n_prb);

/// One row of the PDSCH/PUSCH time-domain allocation table that both the
/// gNB and the sniffer learn from RRC signalling.
struct TdraEntry {
  unsigned start_symbol;
  unsigned n_symbols;
};

/// Default TDRA table (indexable by Dci::time_alloc).
TdraEntry tdra_entry(std::uint8_t index);
unsigned tdra_table_size();

}  // namespace nrs
