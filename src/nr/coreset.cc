#include "nr/coreset.h"

#include <array>
#include <cstdint>
#include <stdexcept>

namespace nrs {
namespace {

/// REG-bundle interleaver f(x) (TS 38.211 7.3.2.2).
unsigned interleave_bundle(const CoresetConfig& coreset, unsigned j) {
  const unsigned n_bundle = coreset.n_reg() / coreset.reg_bundle_size;
  if (!coreset.interleaved) {
    return j;
  }
  const unsigned rows = coreset.interleaver_rows;
  const unsigned cols = n_bundle / rows;
  if (cols == 0) {
    return j;
  }
  const unsigned c = j / rows;
  const unsigned r = j % rows;
  return (r * cols + c + coreset.shift) % n_bundle;
}

}  // namespace

void cce_to_regs(const CoresetConfig& coreset, unsigned cce_start,
                 unsigned agg_level, std::vector<RegLocation>& out) {
  if (coreset.n_prb % kRegsPerCce != 0) {
    throw std::invalid_argument("CORESET width must be a multiple of 6");
  }
  if ((cce_start + agg_level) > coreset.n_cce()) {
    throw std::invalid_argument("CCE range outside CORESET");
  }
  const unsigned bundle_size = coreset.reg_bundle_size;
  const unsigned bundles_per_cce = kRegsPerCce / bundle_size;

  out.clear();
  out.reserve(static_cast<std::size_t>(agg_level) * kRegsPerCce);
  for (unsigned cce = cce_start; cce < cce_start + agg_level; ++cce) {
    for (unsigned b = 0; b < bundles_per_cce; ++b) {
      const unsigned bundle =
          interleave_bundle(coreset, cce * bundles_per_cce + b);
      for (unsigned r = 0; r < bundle_size; ++r) {
        // REG numbering is time-first within the CORESET (TS 38.211
        // 7.3.2.2): REG x sits at symbol (x mod duration), PRB
        // floor(x / duration).
        const unsigned reg_index = bundle * bundle_size + r;
        out.push_back(RegLocation{
            coreset.rb_start + reg_index / coreset.duration,
            reg_index % coreset.duration,
        });
      }
    }
  }
}

std::vector<RegLocation> cce_to_regs(const CoresetConfig& coreset,
                                     unsigned cce_start, unsigned agg_level) {
  std::vector<RegLocation> regs;
  cce_to_regs(coreset, cce_start, agg_level, regs);
  return regs;
}

namespace {

// TS 38.213 10.1: Y_{p,-1} = n_RNTI, Y_{p,ns} = (A_p * Y_{p,ns-1}) mod D,
// so Y_{p,ns} = n_RNTI * A_p^(ns + 1) mod D.
constexpr std::uint64_t kHashD = 65537;
constexpr std::uint64_t kHashA[3] = {39827, 39829, 39839};
/// Slot indices the power table covers: a frame's slots at 60 kHz, the
/// largest numerology.
constexpr unsigned kHashSlots = slots_per_frame(Scs::kHz60);

/// kHashPow[p][ns] = A_p^(ns + 1) mod D.
constexpr auto kHashPow = [] {
  std::array<std::array<std::uint32_t, kHashSlots>, 3> pow{};
  for (std::size_t p = 0; p < 3; ++p) {
    std::uint64_t y = 1;
    for (unsigned ns = 0; ns < kHashSlots; ++ns) {
      y = (kHashA[p] * y) % kHashD;
      pow[p][ns] = static_cast<std::uint32_t>(y);
    }
  }
  return pow;
}();

}  // namespace

unsigned pdcch_hash_y(unsigned coreset_id, const SlotPoint& slot, Rnti rnti) {
  if (slot.slot >= kHashSlots) {
    throw std::invalid_argument("pdcch_hash_y: slot index beyond a frame");
  }
  // Exact in integers: n_RNTI < 2^16 and A_p^(ns + 1) mod D < 2^17.
  // n_RNTI = 0 (a common search space) hashes to 0.
  return static_cast<unsigned>(std::uint64_t{rnti} *
                               kHashPow[coreset_id % 3][slot.slot] % kHashD);
}

void pdcch_candidates(const CoresetConfig& coreset,
                      const SearchSpaceConfig& search_space,
                      unsigned agg_level, const SlotPoint& slot, Rnti rnti,
                      std::vector<unsigned>& out) {
  out.clear();
  const unsigned n_cce = coreset.n_cce();
  if (agg_level == 0 || agg_level > n_cce) {
    return;
  }
  const unsigned slots_at_level = n_cce / agg_level;
  const unsigned m_max = std::min(search_space.candidates_per_level,
                                  slots_at_level);
  const unsigned y = search_space.ue_specific
                         ? pdcch_hash_y(coreset.id, slot, rnti)
                         : 0;
  out.reserve(m_max);
  for (unsigned m = 0; m < m_max; ++m) {
    // TS 38.213 10.1: L * ((Y + floor(m*Ncce/(L*M))) mod floor(Ncce/L)).
    const unsigned index =
        (y + (m * n_cce) / (agg_level * std::max(1u, m_max))) %
        slots_at_level;
    out.push_back(agg_level * index);
  }
}

std::vector<unsigned> pdcch_candidates(const CoresetConfig& coreset,
                                       const SearchSpaceConfig& search_space,
                                       unsigned agg_level,
                                       const SlotPoint& slot, Rnti rnti) {
  std::vector<unsigned> candidates;
  pdcch_candidates(coreset, search_space, agg_level, slot, rnti, candidates);
  return candidates;
}

}  // namespace nrs
