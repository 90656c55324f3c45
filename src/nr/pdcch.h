// PDCCH encoding and (blind) decoding: the full TS 38.212 7.3 chain —
// CRC24C attachment with RNTI masking, polar coding, rate matching, Gold
// scrambling, QPSK, DMRS insertion, CCE-to-REG mapping onto the slot grid.
//
// This is the channel NR-Scope lives on: the gNB simulator encodes every
// grant here, and the sniffer blind-decodes with one batch per payload size
// (decode_pdcch_batch), then tests each RNTI's CRC against the shared bits
// to extract each UE's DCIs (paper sections 3.1.2 and 3.2.1).  Two
// deviations from the letter of TS 38.212, both documented in DESIGN.md:
// the reliability sequence is PW-generated (see phy/polar.h) and the 24
// leading '1' filler bits before the CRC are omitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
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

/// Working state for PDCCH blind decoding (hot-path memory discipline,
/// DESIGN.md).  A candidate decode touches DMRS generation, REG mapping,
/// LLR extraction, descrambling and the polar decode; this struct owns
/// every intermediate buffer so the steady-state slot loop performs zero
/// heap allocations.  The memo members (DMRS table, scrambling prefix,
/// polar-code instances) warm up on first use and are reused keyed by
/// their inputs.  A scratch belongs to whoever decodes: the one engine
/// thread of a pipeline owns the engine's scratches.  The DMRS and REG
/// memos hold one CORESET geometry, so a decoder that also reads the PBCH
/// keeps a second scratch for it.
struct PdcchScratch {
  // Memo: DMRS sequences cached per slot-of-frame.  The PDCCH DMRS c_init
  // depends only on (n_id, slot index within the frame, symbol), so after
  // one frame period every slot's table is a key compare plus two row
  // pointers — the Gold generator never runs again in steady state.
  // Re-keyed (and reallocated) only when the CORESET geometry or the
  // numerology changes.
  std::uint64_t dmrs_geom_key = ~0ull;
  std::size_t dmrs_row_stride = 0;           ///< cf32 per symbol row
  std::vector<cf32> dmrs_table;              ///< [slot][symbol] rows, flat
  std::vector<std::uint8_t> dmrs_slot_filled;
  const cf32* dmrs_row[2] = {nullptr, nullptr};  ///< active slot's rows

  // Memo: scrambling-sequence prefix, keyed on n_id.
  std::uint32_t scramble_n_id = ~0u;
  BitVector scramble_bits;

  // Memo: CCE-to-REG mapping per (agg_level, cce_start).  The interleaved
  // mapping is pure CORESET structure — it never changes slot to slot —
  // so the blind-decode sweep revisits the same few dozen entries forever.
  // Cleared when the CORESET geometry changes.
  std::uint64_t reg_geom_key = ~0ull;
  std::map<std::uint32_t, std::vector<RegLocation>> reg_cache;

  // Candidate-CCE list for the caller's search-space sweep (see
  // pdcch_candidates' allocation-free overload in nr/coreset.h), and the
  // location list callers assemble for decode_pdcch_batch.
  std::vector<unsigned> cand_cces;
  std::vector<PdcchCandidateLoc> cand_locs;

  /// Structure-of-arrays state for decode_pdcch_batch.  REs of every
  /// candidate in the batch are gathered into flat parallel arrays so each
  /// processing stage is a straight kernel sweep instead of a per-RE
  /// scalar loop.  All vectors are grow-only.
  struct Batch {
    std::vector<cf32> pilot_rx;   ///< gathered DMRS REs, 3 per REG
    std::vector<cf32> pilot_ref;  ///< matching reference symbols
    std::vector<cf32> pilot_ls;   ///< LS estimates (one kernel call)
    std::vector<cf32> data_rx;    ///< gathered data REs, 9 per REG
    std::vector<cf32> data_h;     ///< per-RE channel (REG mean, replicated)
    std::vector<float> llrs;      ///< flat LLRs, 2 per data RE
    std::vector<std::size_t> pilot_off;  ///< n+1 prefix offsets
    std::vector<std::size_t> data_off;   ///< n+1 prefix offsets
    std::vector<float> snr;              ///< per-candidate SNR (dB)
    std::vector<std::uint8_t> ok;        ///< per-candidate channel verdict
    std::vector<std::uint8_t> bits;      ///< payload+CRC bits, stride K
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
/// (DMRS rows, REG maps, polar codes) warm up once, so an encode in steady
/// state allocates nothing.
struct PdcchEncodeScratch {
  PdcchScratch memo;          ///< DMRS table, REG maps, polar codes
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

/// Structure-of-arrays batched blind decode: channel-decode every location
/// in `locs` (all aggregation levels mixed) for one payload size in one
/// batched pass — pilot gather and LS estimation run over the whole batch
/// in single kernel sweeps, then each candidate is equalized, demapped and
/// descrambled from the shared flat arrays, and the channel-ok candidates
/// of one E polar-decode together (PolarCode::decode_lanes, up to
/// PolarCode::kMaxLanes per call; a run ends where E changes).  Results are
/// left in `scratch.batch`: `ok[i]` says candidate i channel-decoded,
/// `snr[i]` holds its SNR estimate, and its payload+CRC bits live at
/// `batch.bits.data() + i * (payload_bits + 24)`.  No CRC verdict is
/// taken: callers test each RNTI of interest against the shared bits
/// (check_pdcch_crc), which is what makes the batch shareable across every
/// tracked UE.  Returns the number of candidates with `ok[i]` set.
/// Allocation-free in steady state.
std::size_t decode_pdcch_batch(const CoresetConfig& coreset,
                               std::span<const PdcchCandidateLoc> locs,
                               unsigned payload_bits, const SlotPoint& slot,
                               const ResourceGrid& grid,
                               PdcchScratch& scratch);

/// CRC verdict for one candidate's payload+CRC bits from
/// decode_pdcch_batch: true when the CRC, unmasked with `rnti`, passes.
bool check_pdcch_crc(std::span<const std::uint8_t> bits_with_crc, Rnti rnti);

/// PDCCH DMRS reference symbol for (slot, symbol, absolute PRB, k') —
/// shared by encoder and channel estimator.
cf32 pdcch_dmrs_symbol(std::uint16_t n_id, const SlotPoint& slot,
                       unsigned symbol, unsigned prb, unsigned k_prime);

}  // namespace nrs
