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

/// Point the scratch's DMRS row pointers at (coreset, slot)'s sequences,
/// generating them at most once per slot-of-frame.  The c_init depends
/// only on (n_id, slot index within the frame, symbol), so the cache is
/// keyed on the CORESET geometry + numerology and indexed by slot; after
/// one frame period of warm-up every call is a key compare plus two
/// pointer assignments.
void ensure_dmrs(PdcchScratch& scratch, const CoresetConfig& coreset,
                 const SlotPoint& slot) {
  const std::uint64_t geom_key =
      (static_cast<std::uint64_t>(coreset.n_id) << 40) ^
      (static_cast<std::uint64_t>(static_cast<unsigned>(slot.scs)) << 32) ^
      (static_cast<std::uint64_t>(coreset.rb_start) << 14) ^
      (static_cast<std::uint64_t>(coreset.n_prb) << 3) ^
      coreset.duration;
  const unsigned n_slots = slots_per_frame(slot.scs);
  const std::size_t prb_end = coreset.rb_start + coreset.n_prb;
  const std::size_t row = prb_end * kPdcchDmrsPerReg;
  const std::size_t per_slot = row * coreset.duration;
  if (scratch.dmrs_geom_key != geom_key) {
    scratch.dmrs_table.assign(per_slot * n_slots, cf32{});
    scratch.dmrs_slot_filled.assign(n_slots, 0);
    scratch.dmrs_row_stride = row;
    scratch.dmrs_geom_key = geom_key;
  }
  const unsigned s = slot.slot % n_slots;
  cf32* base = scratch.dmrs_table.data() + per_slot * s;
  if (!scratch.dmrs_slot_filled[s]) {
    for (unsigned sym = 0; sym < coreset.duration; ++sym) {
      GoldSequence gold(pdcch_dmrs_cinit(coreset.n_id, slot, sym));
      cf32* out = base + row * sym;
      for (std::size_t m = 0; m < row; ++m) {
        const float re = gold.next() ? -kInvSqrt2 : kInvSqrt2;
        const float im = gold.next() ? -kInvSqrt2 : kInvSqrt2;
        out[m] = cf32(re, im);
      }
    }
    scratch.dmrs_slot_filled[s] = 1;
  }
  scratch.dmrs_row[0] = base;
  scratch.dmrs_row[1] = coreset.duration > 1 ? base + row : base;
}

cf32 dmrs_at(const PdcchScratch& scratch, unsigned symbol, unsigned prb,
             unsigned k_prime) {
  return scratch.dmrs_row[symbol][static_cast<std::size_t>(prb) *
                                      kPdcchDmrsPerReg +
                                  k_prime];
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

/// DMRS subcarrier offsets within a REG (k = 4k' + 1).
constexpr unsigned dmrs_sc(unsigned k_prime) { return 4 * k_prime + 1; }

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

/// Memoized cce_to_regs: the mapping is pure CORESET structure, so after
/// warm-up every candidate's REG list is one map lookup.
const std::vector<RegLocation>& cached_regs(PdcchScratch& scratch,
                                            const CoresetConfig& coreset,
                                            unsigned cce_start,
                                            unsigned agg_level) {
  const std::uint64_t geom =
      (static_cast<std::uint64_t>(coreset.rb_start) << 40) ^
      (static_cast<std::uint64_t>(coreset.n_prb) << 24) ^
      (static_cast<std::uint64_t>(coreset.duration) << 21) ^
      (static_cast<std::uint64_t>(coreset.reg_bundle_size) << 16) ^
      (static_cast<std::uint64_t>(coreset.interleaver_rows) << 12) ^
      (static_cast<std::uint64_t>(coreset.shift) << 1) ^
      (coreset.interleaved ? 1u : 0u);
  if (geom != scratch.reg_geom_key) {
    scratch.reg_cache.clear();
    scratch.reg_geom_key = geom;
  }
  const std::uint32_t key = (agg_level << 16) | cce_start;
  auto [it, fresh] = scratch.reg_cache.try_emplace(key);
  if (fresh) {
    cce_to_regs(coreset, cce_start, agg_level, it->second);
  }
  return it->second;
}

}  // namespace

std::size_t decode_pdcch_batch(const CoresetConfig& coreset,
                               std::span<const PdcchCandidateLoc> locs,
                               unsigned payload_bits, const SlotPoint& slot,
                               const ResourceGrid& grid,
                               PdcchScratch& scratch) {
  auto& b = scratch.batch;
  const std::size_t n = locs.size();
  const unsigned k_bits = payload_bits + kCrc24C.length();
  b.pilot_rx.clear();
  b.pilot_ref.clear();
  b.data_rx.clear();
  b.pilot_off.clear();
  b.data_off.clear();
  b.ok.assign(n, 0);
  b.snr.assign(n, 0.0f);
  b.bits.resize(n * k_bits);
  const bool grid_ok = coreset.rb_start + coreset.n_prb <=
                       grid.n_subcarriers() / kSubcarriersPerPrb;
  if (grid_ok) {
    ensure_dmrs(scratch, coreset, slot);
  }

  // Stage 1: gather.  Walk each candidate's REGs once, splitting its REs
  // into the pilot arrays (3 per REG, with the matching DMRS reference)
  // and the data array (9 per REG) — the structure-of-arrays layout every
  // later stage sweeps linearly.
  for (std::size_t i = 0; i < n; ++i) {
    b.pilot_off.push_back(b.pilot_rx.size());
    b.data_off.push_back(b.data_rx.size());
    if (!grid_ok ||
        locs[i].cce_start + locs[i].agg_level > coreset.n_cce()) {
      continue;  // out-of-grid location: empty ranges, ok[i] stays 0
    }
    const auto& regs =
        cached_regs(scratch, coreset, locs[i].cce_start, locs[i].agg_level);
    for (const auto& reg : regs) {
      // One bounds-checked span lookup per REG; the 12 REs of the REG are
      // contiguous within the symbol row.
      const cf32* re = grid.symbol(reg.symbol).data() +
                       static_cast<std::size_t>(reg.prb) * kSubcarriersPerPrb;
      for (unsigned k = 0; k < kPdcchDmrsPerReg; ++k) {
        b.pilot_rx.push_back(re[dmrs_sc(k)]);
        b.pilot_ref.push_back(dmrs_at(scratch, reg.symbol, reg.prb, k));
      }
      for (unsigned sc = 0; sc < kSubcarriersPerPrb; ++sc) {
        if (!is_dmrs_sc(sc)) {
          b.data_rx.push_back(re[sc]);
        }
      }
    }
  }
  b.pilot_off.push_back(b.pilot_rx.size());
  b.data_off.push_back(b.data_rx.size());

  // Stage 2: one LS kernel sweep across every pilot of every candidate
  // (the DMRS power is one shared constant, so the normalization is a
  // scale folded into the kernel call).
  const auto& kt = kernels::active();
  b.pilot_ls.resize(b.pilot_rx.size());
  kt.cx_mul_conj_scale(b.pilot_rx.data(), b.pilot_ref.data(),
                       1.0f / kDmrsNorm, b.pilot_ls.data(),
                       b.pilot_rx.size());

  // Stage 3: per candidate — REG-mean channel + pooled noise variance +
  // energy gate, then matched-filter QPSK demap and descramble over the
  // candidate's contiguous slice of the flat arrays.  Each run of
  // channel-ok candidates with equal E (callers list locations level by
  // level) then polar-decodes as one lane batch of up to
  // PolarCode::kMaxLanes codewords.
  b.data_h.resize(b.data_rx.size());
  b.llrs.resize(2 * b.data_rx.size());
  constexpr unsigned kDataPerReg = kSubcarriersPerPrb - kPdcchDmrsPerReg;
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
    const std::size_t p0 = b.pilot_off[i];
    const std::size_t p1 = b.pilot_off[i + 1];
    if (p1 == p0) {
      continue;
    }
    const std::size_t n_regs = (p1 - p0) / kPdcchDmrsPerReg;
    const std::size_t d0 = b.data_off[i];
    float resid = 0.0f;
    float pilot_power = 0.0f;
    for (std::size_t r = 0; r < n_regs; ++r) {
      const cf32* ls = b.pilot_ls.data() + p0 + r * kPdcchDmrsPerReg;
      cf32 acc{};
      for (unsigned k = 0; k < kPdcchDmrsPerReg; ++k) {
        acc += ls[k];
      }
      const cf32 mean = acc / static_cast<float>(kPdcchDmrsPerReg);
      for (unsigned k = 0; k < kPdcchDmrsPerReg; ++k) {
        resid += std::norm(ls[k] - mean);
      }
      pilot_power += std::norm(mean);
      cf32* h = b.data_h.data() + d0 + r * kDataPerReg;
      for (unsigned k = 0; k < kDataPerReg; ++k) {
        h[k] = mean;
      }
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

    // Fused ZF-equalize + max-log QPSK demap: the ZF division by |h|^2
    // cancels against the effective-noise scaling of the LLR, leaving the
    // matched filter scaled by 4a/noise_var.
    const std::size_t d1 = b.data_off[i + 1];
    const float llr_scale = 4.0f * qpsk_a / noise_var;
    kt.eq_qpsk_llr(b.data_rx.data() + d0, b.data_h.data() + d0, llr_scale,
                   b.llrs.data() + 2 * d0, d1 - d0);

    const std::size_t e = 2 * (d1 - d0);
    if (k_bits + 1 >= e) {
      continue;  // cannot carry this payload at this level
    }
    const auto scr = ensure_scrambling(scratch, coreset.n_id, e);
    kt.descramble(b.llrs.data() + 2 * d0, scr.data(), e);

    if (run_lanes == PolarCode::kMaxLanes || (run_lanes > 0 && e != run_e)) {
      decode_run();
    }
    run_e = e;
    run_llrs[run_lanes] = b.llrs.data() + 2 * d0;
    run_bits[run_lanes] = b.bits.data() + i * k_bits;
    ++run_lanes;
    b.ok[i] = 1;
    ++n_ok;
  }
  decode_run();
  return n_ok;
}

cf32 pdcch_dmrs_symbol(std::uint16_t n_id, const SlotPoint& slot,
                       unsigned symbol, unsigned prb, unsigned k_prime) {
  GoldSequence gold(pdcch_dmrs_cinit(n_id, slot, symbol));
  gold.advance(2ull * (static_cast<std::uint64_t>(prb) * kPdcchDmrsPerReg +
                       k_prime));
  const float re = gold.next() ? -kInvSqrt2 : kInvSqrt2;
  const float im = gold.next() ? -kInvSqrt2 : kInvSqrt2;
  return {re, im};
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
    // Checked before the REG-map memo caches an entry for the location.
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

  ensure_dmrs(scratch.memo, coreset, slot);
  const auto& regs =
      cached_regs(scratch.memo, coreset, alloc.cce_start, alloc.agg_level);
  const cf32* symbol = scratch.symbols.data();
  const cf32* const symbols_end = symbol + scratch.symbols.size();
  for (const auto& reg : regs) {
    cf32* re = grid.symbol(reg.symbol).data() +
               static_cast<std::size_t>(reg.prb) * kSubcarriersPerPrb;
    unsigned k_prime = 0;
    for (unsigned sc = 0; sc < kSubcarriersPerPrb; ++sc) {
      if (is_dmrs_sc(sc)) {
        re[sc] = dmrs_at(scratch.memo, reg.symbol, reg.prb, k_prime++);
      } else {
        if (symbol == symbols_end) {
          throw std::out_of_range("encode_pdcch_payload: REG overrun");
        }
        re[sc] = *symbol++;
      }
    }
  }
}

bool check_pdcch_crc(std::span<const std::uint8_t> bits_with_crc,
                     Rnti rnti) {
  return kCrc24C.check_masked(bits_with_crc, rnti);
}

}  // namespace nrs
