// PDCCH encoding and (blind) decoding: the full TS 38.212 7.3 chain —
// CRC24C attachment with RNTI masking, polar coding, rate matching, Gold
// scrambling, QPSK, DMRS insertion, CCE-to-REG mapping onto the slot grid.
//
// This is the channel NR-Scope lives on: the gNB simulator encodes every
// grant here, and the sniffer estimates the CORESET once per slot
// (estimate_coreset), blind-decodes one batch per payload size from that
// estimate (decode_pdcch_batch), and reads each location's RNTI off its
// CRC to extract each UE's DCIs (paper sections 3.1.2 and 3.2.1).  Two
// deviations from the letter of TS 38.212, both documented in DESIGN.md:
// the reliability sequence is PW-generated (see phy/polar.h) and the 24
// leading '1' filler bits before the CRC are omitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "common/types.h"
#include "nr/coreset.h"
#include "nr/dci.h"
#include "phy/polar.h"
#include "phy/resource_grid.h"

namespace nrs {

/// Coded bits carried by one CCE: 6 REGs x 9 data REs x 2 (QPSK).
inline constexpr unsigned kBitsPerCce = 108;

/// DMRS occupies subcarriers 4k'+1 within each PDCCH REG (TS 38.211
/// 7.4.1.3.2): 3 of 12 REs.
inline constexpr unsigned kPdcchDmrsPerReg = 3;

/// One blind-decode location: an aggregation level and its starting CCE.
/// The batched decoder (decode_pdcch_batch) takes a span of these, so one
/// call can mix every aggregation level of a slot's search-space sweep.
struct PdcchCandidateLoc {
  unsigned agg_level = 1;
  unsigned cce_start = 0;
};

/// One slot's channel estimate of a whole CORESET, built by
/// estimate_coreset and read by decode_pdcch_batch.  It is CCE-major:
/// cce_to_regs(c, L) is the concatenation of cce_to_regs(c + i, 1), so REG
/// r of the CORESET is REG r % 6 of CCE r / 6, and every location (L, c)
/// reads the contiguous slice of REGs [6c, 6(c + L)) of each array below.
/// Overlapping locations of different levels, and the RACH scan and the
/// blind decode of one slot, all read the same REGs.  Valid only for the
/// CORESET and slot it was built from: the decode checks both and throws
/// on any other (or on an estimate never built).
struct PdcchEstimate {
  bool built = false;
  CoresetConfig coreset;
  SlotPoint slot;
  /// CCEs whose REGs were read: the CORESET's n_cce(), or 0 when it does
  /// not fit the grid (every location then fails the channel decode).
  unsigned n_cce = 0;
  std::vector<cf32> pilot_rx;  ///< DMRS REs, 3 per REG
  std::vector<cf32> pilot_ls;  ///< their LS estimates (one kernel sweep)
  std::vector<float> resid;    ///< |LS - REG mean|^2, 3 per REG
  std::vector<float> power;    ///< |REG mean|^2, 1 per REG
  std::vector<cf32> data;      ///< data REs, 9 per REG
  std::vector<cf32> h;         ///< the REG mean, once per data RE
};

/// Working state for PDCCH encoding and blind decoding (hot-path memory
/// discipline, DESIGN.md).  It owns every intermediate buffer, so the
/// steady-state slot loop performs zero heap allocations.  The memo
/// members (REG list, DMRS table, scrambling prefix, polar-code instances)
/// warm up on first use and are reused keyed by their inputs.  A scratch
/// belongs to whoever decodes: the one engine thread of a pipeline owns
/// the engine's scratches.  The REG and DMRS memos hold one CORESET, so a
/// decoder that also reads the PBCH keeps a second scratch for it.
struct PdcchScratch {
  // Memo: the CORESET's structure.  `regs` lists its REGs CCE-major
  // (cce_to_regs(coreset, 0, n_cce)), and `dmrs_table` holds, per slot of
  // the frame, the 3 DMRS symbols of every REG in the same order.  The
  // PDCCH DMRS c_init depends only on (n_id, slot index within the frame,
  // symbol), so after one frame period every slot's row is a key compare
  // and a pointer: the Gold generator never runs again in steady state.
  // Re-keyed (and reallocated) only when the CORESET or the numerology
  // changes.
  bool geom_set = false;
  CoresetConfig geom_coreset;
  Scs geom_scs = Scs::kHz30;
  std::vector<RegLocation> regs;
  std::vector<cf32> dmrs_table;  ///< [slot of frame][REG][k']
  std::vector<std::uint8_t> dmrs_slot_filled;
  std::vector<cf32> dmrs_seq;    ///< one symbol's sequence, while filling

  // Memo: scrambling-sequence prefix, keyed on n_id.
  std::uint32_t scramble_n_id = ~0u;
  BitVector scramble_bits;

  // Candidate-CCE list for a search-space sweep (see pdcch_candidates'
  // allocation-free overload in nr/coreset.h), and the location list
  // handed to decode_pdcch_batch.
  std::vector<unsigned> cand_cces;
  std::vector<PdcchCandidateLoc> cand_locs;

  /// The slot's CORESET estimate (estimate_coreset fills it).
  PdcchEstimate estimate;

  /// Per-candidate results of decode_pdcch_batch.  All vectors are
  /// grow-only.
  struct Batch {
    std::vector<float> llrs;            ///< one lane per codeword of a run
    std::vector<float> snr;             ///< per-candidate SNR (dB)
    std::vector<std::uint8_t> ok;       ///< per-candidate channel verdict
    std::vector<std::uint8_t> bits;     ///< payload+CRC bits, stride K
    std::vector<std::optional<Rnti>> rnti;  ///< RNTI the CRC24C names
  };
  Batch batch;

  PolarScratch polar;

  // Memo: polar-code instances per (K, E); populated during warm-up,
  // find-only in steady state.
  std::map<std::pair<unsigned, unsigned>, PolarCode> polar_codes;
};

/// Everything needed to place one DCI on the grid.
struct PdcchAllocation {
  Rnti rnti = kInvalidRnti;
  unsigned agg_level = 1;
  unsigned cce_start = 0;
};

/// Working state for the PDCCH encoder, owned by the transmitter (the gNB
/// simulator keeps one).  Every buffer is grow-only and the memo tables
/// (REG list, DMRS table, polar codes) warm up once, so an encode in
/// steady state allocates nothing.
struct PdcchEncodeScratch {
  PdcchScratch memo;          ///< REG list, DMRS table, polar codes
  BitVector payload;          ///< packed DCI
  BitVector bits;             ///< payload + RNTI-masked CRC24C
  BitVector coded;            ///< E polar-coded, scrambled bits
  std::vector<cf32> symbols;  ///< E / 2 QPSK symbols
};

/// Encode `dci` for `alloc` into `grid` (data + DMRS).
/// `n_prb_bwp` sizes the DCI payload; `slot` seeds the DMRS sequence.
void encode_pdcch(const CoresetConfig& coreset, const PdcchAllocation& alloc,
                  const Dci& dci, unsigned n_prb_bwp, const SlotPoint& slot,
                  ResourceGrid& grid, PdcchEncodeScratch& scratch);

/// Lower-level entry point carrying an arbitrary payload through the same
/// CRC24C + polar + scramble + QPSK chain; the PBCH (MIB broadcast) rides
/// on it with RNTI 0.
void encode_pdcch_payload(const CoresetConfig& coreset,
                          const PdcchAllocation& alloc,
                          std::span<const std::uint8_t> payload,
                          const SlotPoint& slot, ResourceGrid& grid,
                          PdcchEncodeScratch& scratch);

/// Estimate the channel of every REG of `coreset` in `grid` at `slot`,
/// once for all the locations a slot decodes: gather each REG's DMRS and
/// data REs, LS-estimate the pilots in one kernel sweep, and keep per REG
/// the pilot mean (replicated over its data REs), the three residual norms
/// and the mean's norm.  Fills and returns `scratch.estimate`, which stays
/// valid until the next call.  Allocation-free in steady state.
const PdcchEstimate& estimate_coreset(const CoresetConfig& coreset,
                                      const SlotPoint& slot,
                                      const ResourceGrid& grid,
                                      PdcchScratch& scratch);

/// Batched blind decode: channel-decode every location in `locs` (all
/// aggregation levels mixed) for one payload size from `estimate`, which
/// must have been built from `coreset` at `slot` (else
/// std::invalid_argument).  Per location, the REG slice's residuals give
/// the noise variance and the energy gate, then its data REs are
/// equalized, demapped and descrambled, and the channel-ok locations of
/// one E polar-decode together (PolarCode::decode_lanes, up to
/// PolarCode::kMaxLanes per call; a run ends where E changes).  Each
/// decoded location's CRC24C is then divided once.  Results are left in
/// `scratch.batch`: `ok[i]` says candidate i channel-decoded, `snr[i]`
/// holds its SNR estimate, its payload+CRC bits live at
/// `batch.bits.data() + i * (payload_bits + 24)`, and `rnti[i]` is the
/// RNTI whose mask makes its CRC pass (the CRC syndrome, when its upper 8
/// bits are clear), or empty.  Callers compare RNTIs: a tracked UE's DCI
/// is a location whose `rnti[i]` equals its C-RNTI, which is what makes
/// the batch shareable across every tracked UE.  Returns the number of
/// candidates with `ok[i]` set.  Allocation-free in steady state.
std::size_t decode_pdcch_batch(const CoresetConfig& coreset,
                               std::span<const PdcchCandidateLoc> locs,
                               unsigned payload_bits, const SlotPoint& slot,
                               const PdcchEstimate& estimate,
                               PdcchScratch& scratch);

/// The common-search-space batch (the SIB1 wait and the RACH scan): gather
/// every location of `search_space` in `coreset` at `slot`, level by level
/// and CCE by CCE, into `scratch.cand_locs`, and decode them with
/// decode_pdcch_batch at the DCI 1_0 size of an `n_prb_bwp` bandwidth
/// part.  Returns that payload size in bits; location i's results sit at
/// index i of `scratch.batch`.  Allocation-free in steady state.
unsigned decode_common_search_space(const CoresetConfig& coreset,
                                    const SearchSpaceConfig& search_space,
                                    unsigned n_prb_bwp, const SlotPoint& slot,
                                    const PdcchEstimate& estimate,
                                    PdcchScratch& scratch);

}  // namespace nrs
