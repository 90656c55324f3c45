#include "nr/pdcch.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/gold.h"
#include "common/timing.h"
#include "phy/kernels/kernels.h"
#include "phy/modulation.h"
#include "phy/polar.h"

namespace nrs {
namespace {

constexpr float kInvSqrt2 = 0.70710678f;

/// Every PDCCH DMRS symbol is (+-1/sqrt(2), +-1/sqrt(2)); its power is one
/// shared constant, so the batched LS estimate is a single kernel sweep
/// with scale 1/|ref|^2 instead of a per-pilot division.
constexpr float kDmrsNorm = kInvSqrt2 * kInvSqrt2 + kInvSqrt2 * kInvSqrt2;

/// Gold c_init for the PDCCH DMRS of (slot, symbol) (TS 38.211 7.4.1.3.1).
std::uint32_t pdcch_dmrs_cinit(std::uint16_t n_id, const SlotPoint& slot,
                               unsigned symbol) {
  const std::uint64_t v =
      ((1ull << 17) *
           (kSymbolsPerSlot * static_cast<std::uint64_t>(slot.slot) + symbol +
            1) *
           (2ull * n_id + 1) +
       2ull * n_id);
  return static_cast<std::uint32_t>(v & 0x7FFFFFFFull);
}

/// Point the scratch's memo at `coreset` and return the DMRS of `slot`:
/// 3 symbols per REG, in the memo's CCE-major REG order.  The REG list and
/// the table are rebuilt only when the CORESET or the numerology changes,
/// and a slot's DMRS row is generated at most once per slot of the frame
/// (the c_init depends only on n_id, the slot within the frame and the
/// symbol), so after one frame period every call is a key compare.
const cf32* ensure_coreset(PdcchScratch& scratch,
                          const CoresetConfig& coreset,
                          const SlotPoint& slot) {
  const unsigned n_slots = slots_per_frame(slot.scs);
  if (!scratch.geom_set || scratch.geom_coreset != coreset ||
      scratch.geom_scs != slot.scs) {
    scratch.geom_set = false;
    cce_to_regs(coreset, 0, coreset.n_cce(), scratch.regs);
    scratch.dmrs_table.assign(
        scratch.regs.size() * kPdcchDmrsPerReg * n_slots, cf32{});
    scratch.dmrs_slot_filled.assign(n_slots, 0);
    scratch.geom_coreset = coreset;
    scratch.geom_scs = slot.scs;
    scratch.geom_set = true;
  }
  const std::size_t per_slot = scratch.regs.size() * kPdcchDmrsPerReg;
  const unsigned s = slot.slot % n_slots;
  cf32* dmrs = scratch.dmrs_table.data() + per_slot * s;
  if (!scratch.dmrs_slot_filled[s]) {
    // The sequence of a symbol runs over every PRB from 0, 3 pilots each;
    // generate it whole, then pick each REG's three.
    auto& seq = scratch.dmrs_seq;
    seq.resize(static_cast<std::size_t>(coreset.rb_start + coreset.n_prb) *
               kPdcchDmrsPerReg);
    for (unsigned sym = 0; sym < coreset.duration; ++sym) {
      GoldSequence gold(pdcch_dmrs_cinit(coreset.n_id, slot, sym));
      for (auto& ref : seq) {
        const float re = gold.next() ? -kInvSqrt2 : kInvSqrt2;
        const float im = gold.next() ? -kInvSqrt2 : kInvSqrt2;
        ref = cf32(re, im);
      }
      for (std::size_t r = 0; r < scratch.regs.size(); ++r) {
        if (scratch.regs[r].symbol == sym) {
          std::copy_n(seq.data() + static_cast<std::size_t>(
                                       scratch.regs[r].prb) *
                                       kPdcchDmrsPerReg,
                      kPdcchDmrsPerReg, dmrs + r * kPdcchDmrsPerReg);
        }
      }
    }
    scratch.dmrs_slot_filled[s] = 1;
  }
  return dmrs;
}

/// The PDCCH scrambling sequence depends only on n_id (n_RNTI = 0 for the
/// configurations we support), so memoize a prefix long enough for the
/// largest aggregation level.
std::span<const std::uint8_t> ensure_scrambling(PdcchScratch& scratch,
                                                std::uint16_t n_id,
                                                std::size_t min_len) {
  if (scratch.scramble_n_id != n_id ||
      scratch.scramble_bits.size() < min_len) {
    GoldSequence gold(pdcch_scrambling_cinit(0, n_id));
    scratch.scramble_bits.resize(std::max<std::size_t>(min_len, 2048));
    for (auto& bit : scratch.scramble_bits) {
      bit = gold.next();
    }
    scratch.scramble_n_id = n_id;
  }
  return {scratch.scramble_bits.data(), scratch.scramble_bits.size()};
}

constexpr unsigned kDataPerReg = kSubcarriersPerPrb - kPdcchDmrsPerReg;

/// DMRS subcarriers within a REG: k = 4k' + 1.
bool is_dmrs_sc(unsigned sc_in_prb) { return sc_in_prb % 4 == 1; }

/// Polar code instances are immutable per (K, E); constructing one sorts
/// the reliability sequence, which would dominate the per-candidate decode
/// cost, so memoize them in the scratch.
const PolarCode& cached_polar(PdcchScratch& scratch, unsigned k, unsigned e) {
  auto& cache = scratch.polar_codes;
  const auto key = std::make_pair(k, e);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, PolarCode(k, e)).first;
  }
  return it->second;
}

}  // namespace

const PdcchEstimate& estimate_coreset(const CoresetConfig& coreset,
                                      const SlotPoint& slot,
                                      const ResourceGrid& grid,
                                      PdcchScratch& scratch) {
  PdcchEstimate& est = scratch.estimate;
  est.built = false;
  est.coreset = coreset;
  est.slot = slot;
  est.n_cce = 0;
  if (coreset.rb_start + coreset.n_prb >
      grid.n_subcarriers() / kSubcarriersPerPrb) {
    est.built = true;  // no REG to read: every location fails
    return est;
  }
  const cf32* dmrs = ensure_coreset(scratch, coreset, slot);
  const auto& regs = scratch.regs;
  const std::size_t n_reg = regs.size();
  est.pilot_rx.resize(n_reg * kPdcchDmrsPerReg);
  est.pilot_ls.resize(n_reg * kPdcchDmrsPerReg);
  est.resid.resize(n_reg * kPdcchDmrsPerReg);
  est.power.resize(n_reg);
  est.data.resize(n_reg * kDataPerReg);
  est.h.resize(n_reg * kDataPerReg);

  // Split each REG's 12 REs into its 3 pilots and 9 data REs; the REs of
  // a REG are contiguous within the symbol row.
  for (std::size_t r = 0; r < n_reg; ++r) {
    const cf32* re =
        grid.symbol(regs[r].symbol).data() +
        static_cast<std::size_t>(regs[r].prb) * kSubcarriersPerPrb;
    cf32* pilot = est.pilot_rx.data() + r * kPdcchDmrsPerReg;
    cf32* data = est.data.data() + r * kDataPerReg;
    for (unsigned sc = 0; sc < kSubcarriersPerPrb; ++sc) {
      if (is_dmrs_sc(sc)) {
        *pilot++ = re[sc];
      } else {
        *data++ = re[sc];
      }
    }
  }

  // One LS kernel sweep across every pilot (the DMRS power is one shared
  // constant, so the normalization is a scale folded into the kernel).
  const auto& kt = kernels::active();
  kt.cx_mul_conj_scale(est.pilot_rx.data(), dmrs, 1.0f / kDmrsNorm,
                       est.pilot_ls.data(), est.pilot_ls.size());

  // Per REG: the pilot mean is the REG's channel; the residual norms and
  // the mean's norm are kept separately, so a location sums them in the
  // same order a per-location estimate would.
  for (std::size_t r = 0; r < n_reg; ++r) {
    const cf32* ls = est.pilot_ls.data() + r * kPdcchDmrsPerReg;
    cf32 acc{};
    for (unsigned k = 0; k < kPdcchDmrsPerReg; ++k) {
      acc += ls[k];
    }
    const cf32 mean = acc / static_cast<float>(kPdcchDmrsPerReg);
    for (unsigned k = 0; k < kPdcchDmrsPerReg; ++k) {
      est.resid[r * kPdcchDmrsPerReg + k] = std::norm(ls[k] - mean);
    }
    est.power[r] = std::norm(mean);
    std::fill_n(est.h.data() + r * kDataPerReg, kDataPerReg, mean);
  }
  est.n_cce = coreset.n_cce();
  est.built = true;
  return est;
}

std::size_t decode_pdcch_batch(const CoresetConfig& coreset,
                               std::span<const PdcchCandidateLoc> locs,
                               unsigned payload_bits, const SlotPoint& slot,
                               const PdcchEstimate& estimate,
                               PdcchScratch& scratch) {
  if (!estimate.built || estimate.coreset != coreset ||
      estimate.slot != slot) {
    throw std::invalid_argument(
        "decode_pdcch_batch: no estimate of this CORESET at this slot");
  }
  auto& b = scratch.batch;
  const std::size_t n = locs.size();
  const unsigned k_bits = payload_bits + kCrc24C.length();
  b.ok.assign(n, 0);
  b.snr.assign(n, 0.0f);
  b.rnti.assign(n, std::nullopt);
  b.bits.resize(n * k_bits);
  // A run's codewords each take one lane of the largest E in the CORESET.
  const std::size_t lane_stride =
      static_cast<std::size_t>(kBitsPerCce) * estimate.n_cce;
  b.llrs.resize(PolarCode::kMaxLanes * lane_stride);

  // Per candidate: REG-mean channel + pooled noise variance + energy gate
  // over its REG slice of the estimate, then matched-filter QPSK demap and
  // descramble into the next lane.  Each run of channel-ok candidates with
  // equal E (callers list locations level by level) then polar-decodes as
  // one lane batch of up to PolarCode::kMaxLanes codewords.
  const auto& kt = kernels::active();
  const float qpsk_a = 1.0f / std::sqrt(2.0f);
  std::array<const float*, PolarCode::kMaxLanes> run_llrs{};
  std::array<std::uint8_t*, PolarCode::kMaxLanes> run_bits{};
  std::size_t run_lanes = 0;
  std::size_t run_e = 0;
  const auto decode_run = [&] {
    if (run_lanes > 0) {
      cached_polar(scratch, k_bits, static_cast<unsigned>(run_e))
          .decode_lanes(std::span(run_llrs.data(), run_lanes), scratch.polar,
                        std::span(run_bits.data(), run_lanes));
      run_lanes = 0;
    }
  };
  std::size_t n_ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned level = locs[i].agg_level;
    if (level == 0 || locs[i].cce_start + level > estimate.n_cce) {
      continue;  // no REG of this location was read: ok[i] stays 0
    }
    const std::size_t r0 =
        static_cast<std::size_t>(kRegsPerCce) * locs[i].cce_start;
    const std::size_t n_regs = static_cast<std::size_t>(kRegsPerCce) * level;
    float resid = 0.0f;
    float pilot_power = 0.0f;
    for (std::size_t r = r0; r < r0 + n_regs; ++r) {
      const float* norms = estimate.resid.data() + r * kPdcchDmrsPerReg;
      for (unsigned k = 0; k < kPdcchDmrsPerReg; ++k) {
        resid += norms[k];
      }
      pilot_power += estimate.power[r];
    }
    // The deviation of LS points around the REG mean carries ~2/3 of the
    // noise power (3-point mean removes 1/3).
    const auto resid_count =
        static_cast<float>(n_regs * kPdcchDmrsPerReg);
    float noise_var = 1.5f * resid / resid_count;
    noise_var = std::max(noise_var, 1e-7f);

    // Energy gate: with no transmission at this location every LLR would
    // be ~0 and the SC decoder would emit the (valid) all-zero codeword.
    // A real receiver rejects candidates without pilot energy; so do we.
    const auto regs_f = static_cast<float>(n_regs);
    if (pilot_power / regs_f < 16.0f * noise_var &&
        pilot_power < 1e-4f * regs_f) {
      continue;
    }
    b.snr[i] = 10.0f * std::log10(
                   std::max(pilot_power / (regs_f * noise_var), 1e-6f));

    const std::size_t e = static_cast<std::size_t>(kBitsPerCce) * level;
    if (k_bits + 1 >= e) {
      continue;  // cannot carry this payload at this level
    }
    if (run_lanes == PolarCode::kMaxLanes || (run_lanes > 0 && e != run_e)) {
      decode_run();
    }
    // Fused ZF-equalize + max-log QPSK demap: the ZF division by |h|^2
    // cancels against the effective-noise scaling of the LLR, leaving the
    // matched filter scaled by 4a/noise_var.
    float* llrs = b.llrs.data() + run_lanes * lane_stride;
    const float llr_scale = 4.0f * qpsk_a / noise_var;
    kt.eq_qpsk_llr(estimate.data.data() + r0 * kDataPerReg,
                   estimate.h.data() + r0 * kDataPerReg, llr_scale, llrs,
                   e / 2);
    const auto scr = ensure_scrambling(scratch, coreset.n_id, e);
    kt.descramble(llrs, scr.data(), e);

    run_e = e;
    run_llrs[run_lanes] = llrs;
    run_bits[run_lanes] = b.bits.data() + i * k_bits;
    ++run_lanes;
    b.ok[i] = 1;
    ++n_ok;
  }
  decode_run();

  // One CRC24C division per decoded location: its syndrome is the RNTI
  // that masked it, when the 8 unmasked CRC bits agree (a noise decode
  // passes that test 1 time in 256).
  for (std::size_t i = 0; i < n; ++i) {
    if (b.ok[i] != 0) {
      const std::uint32_t syndrome = kCrc24C.syndrome(
          std::span<const std::uint8_t>(b.bits.data() + i * k_bits, k_bits));
      if ((syndrome >> 16) == 0) {
        b.rnti[i] = static_cast<Rnti>(syndrome);
      }
    }
  }
  return n_ok;
}

void encode_pdcch(const CoresetConfig& coreset, const PdcchAllocation& alloc,
                  const Dci& dci, unsigned n_prb_bwp, const SlotPoint& slot,
                  ResourceGrid& grid, PdcchEncodeScratch& scratch) {
  dci.pack(n_prb_bwp, scratch.payload);
  encode_pdcch_payload(coreset, alloc, scratch.payload, slot, grid, scratch);
}

void encode_pdcch_payload(const CoresetConfig& coreset,
                          const PdcchAllocation& alloc,
                          std::span<const std::uint8_t> payload,
                          const SlotPoint& slot, ResourceGrid& grid,
                          PdcchEncodeScratch& scratch) {
  if (coreset.rb_start + coreset.n_prb > grid.n_prb()) {
    throw std::out_of_range("encode_pdcch_payload: CORESET outside grid");
  }
  if (coreset.n_prb % 6 != 0 ||
      alloc.cce_start + alloc.agg_level > coreset.n_cce()) {
    // Checked before the memo is built for the CORESET.
    throw std::invalid_argument("encode_pdcch_payload: CCE range outside "
                                "CORESET");
  }
  // Payload -> CRC24C (masked with the RNTI) -> polar -> scramble -> QPSK.
  BitVector& bits = scratch.bits;
  bits.assign(payload.begin(), payload.end());
  kCrc24C.attach(bits);
  kCrc24C.mask_rnti(bits, alloc.rnti);

  const unsigned e = alloc.agg_level * kBitsPerCce;
  const PolarCode& polar =
      cached_polar(scratch.memo, static_cast<unsigned>(bits.size()), e);
  scratch.coded.resize(e);
  polar.encode(bits, scratch.memo.polar, scratch.coded);
  scramble(scratch.coded, pdcch_scrambling_cinit(0, coreset.n_id));
  scratch.symbols.resize(e / 2);
  modulate(scratch.coded, Modulation::kQpsk, scratch.symbols);

  const cf32* dmrs = ensure_coreset(scratch.memo, coreset, slot);
  const std::size_t r0 =
      static_cast<std::size_t>(kRegsPerCce) * alloc.cce_start;
  const std::size_t r1 = r0 + static_cast<std::size_t>(kRegsPerCce) *
                                  alloc.agg_level;
  const cf32* symbol = scratch.symbols.data();
  const cf32* const symbols_end = symbol + scratch.symbols.size();
  for (std::size_t r = r0; r < r1; ++r) {
    const RegLocation& reg = scratch.memo.regs[r];
    cf32* re = grid.symbol(reg.symbol).data() +
               static_cast<std::size_t>(reg.prb) * kSubcarriersPerPrb;
    const cf32* ref = dmrs + r * kPdcchDmrsPerReg;
    for (unsigned sc = 0; sc < kSubcarriersPerPrb; ++sc) {
      if (is_dmrs_sc(sc)) {
        re[sc] = *ref++;
      } else {
        if (symbol == symbols_end) {
          throw std::out_of_range("encode_pdcch_payload: REG overrun");
        }
        re[sc] = *symbol++;
      }
    }
  }
}

unsigned decode_common_search_space(const CoresetConfig& coreset,
                                    const SearchSpaceConfig& search_space,
                                    unsigned n_prb_bwp, const SlotPoint& slot,
                                    const PdcchEstimate& estimate,
                                    PdcchScratch& scratch) {
  auto& locs = scratch.cand_locs;
  locs.clear();
  for (unsigned level : search_space.agg_levels) {
    pdcch_candidates(coreset, search_space, level, slot, 0,
                     scratch.cand_cces);
    for (unsigned cce : scratch.cand_cces) {
      locs.push_back({level, cce});
    }
  }
  const unsigned payload_bits = dci_payload_size(DciFormat::kDl1_0, n_prb_bwp);
  decode_pdcch_batch(coreset, locs, payload_bits, slot, estimate, scratch);
  return payload_bits;
}

}  // namespace nrs
