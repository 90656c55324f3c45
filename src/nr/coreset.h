// CORESET structure, CCE-to-REG mapping and PDCCH search spaces
// (3GPP TS 38.211 7.3.2, TS 38.213 10.1).  SIB1 / RRC Setup tell the UE —
// and NR-Scope — where the control region sits, how CCEs interleave onto
// REG bundles, and which candidate positions to monitor; the paper calls
// out that knowing these parameters "obviates the blind searching" of the
// 4G-era tools (section 3.1.1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/timing.h"
#include "common/types.h"

namespace nrs {

struct CoresetConfig {
  unsigned id = 0;
  unsigned rb_start = 0;      ///< first PRB of the CORESET in the BWP
  unsigned n_prb = 48;        ///< CORESET width, multiple of 6
  unsigned duration = 2;      ///< 1 or 2 OFDM symbols, starting at symbol 0
  bool interleaved = true;
  unsigned reg_bundle_size = 6;
  unsigned interleaver_rows = 2;  ///< R in {2, 3, 6}
  unsigned shift = 0;             ///< n_shift (the cell PCI)
  std::uint16_t n_id = 0;         ///< DMRS / scrambling identity (PCI)

  [[nodiscard]] unsigned n_reg() const { return n_prb * duration; }
  [[nodiscard]] unsigned n_cce() const { return n_reg() / kRegsPerCce; }
  [[nodiscard]] bool operator==(const CoresetConfig&) const = default;
};

/// Physical location of one REG: a (PRB, symbol) pair within the BWP.
struct RegLocation {
  unsigned prb;
  unsigned symbol;
};

/// The REGs making up CCEs [cce_start, cce_start + agg_level), in coded-bit
/// order (TS 38.211 7.3.2.2 mapping, including the block interleaver when
/// enabled).
std::vector<RegLocation> cce_to_regs(const CoresetConfig& coreset,
                                     unsigned cce_start, unsigned agg_level);

/// Allocation-free variant: clears `out` and fills it with the same REGs
/// (capacity is reused across calls once it has grown to 6 * agg_level).
void cce_to_regs(const CoresetConfig& coreset, unsigned cce_start,
                 unsigned agg_level, std::vector<RegLocation>& out);

/// PDCCH search space: the candidate set a UE (and the sniffer) monitors.
struct SearchSpaceConfig {
  bool ue_specific = true;
  std::vector<unsigned> agg_levels = {1, 2, 4};
  unsigned candidates_per_level = 4;
  [[nodiscard]] bool operator==(const SearchSpaceConfig&) const = default;
};

/// Candidate starting CCEs for aggregation level `agg_level` in the given
/// slot.  UE-specific search spaces hash on the RNTI (TS 38.213 10.1);
/// common search spaces use Y = 0.
std::vector<unsigned> pdcch_candidates(const CoresetConfig& coreset,
                                       const SearchSpaceConfig& search_space,
                                       unsigned agg_level,
                                       const SlotPoint& slot, Rnti rnti);

/// Allocation-free variant: clears `out` and fills it with the candidate
/// starting CCEs (at most candidates_per_level entries).
void pdcch_candidates(const CoresetConfig& coreset,
                      const SearchSpaceConfig& search_space,
                      unsigned agg_level, const SlotPoint& slot, Rnti rnti,
                      std::vector<unsigned>& out);

/// The TS 38.213 10.1 hashing value Y_{p,ns} for a UE-specific search
/// space, in closed form (n_RNTI * A_p^(ns + 1) mod 65537).  Throws
/// std::invalid_argument for a slot index past the 40 slots of a 60 kHz
/// frame.  Exposed for tests.
unsigned pdcch_hash_y(unsigned coreset_id, const SlotPoint& slot, Rnti rnti);

}  // namespace nrs
