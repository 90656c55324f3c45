#include "nr/pdsch.h"

#include <algorithm>
#include <stdexcept>

#include "common/crc.h"
#include "common/gold.h"
#include "phy/chest.h"
#include "phy/conv_code.h"

namespace nrs {
namespace {

constexpr float kInvSqrt2 = 0.70710678f;

std::uint32_t pdsch_dmrs_cinit(std::uint16_t n_id, const SlotPoint& slot,
                               unsigned symbol) {
  const std::uint64_t v =
      ((1ull << 17) *
           (kSymbolsPerSlot * static_cast<std::uint64_t>(slot.slot) + symbol +
            1) *
           (2ull * n_id + 1) +
       2ull * n_id);
  return static_cast<std::uint32_t>(v & 0x7FFFFFFFull);
}

/// DMRS values for the allocation's subcarrier span, indexed from
/// prb_start so encoder and decoder agree without knowing the full BWP.
std::vector<cf32> pdsch_dmrs(const PdschAllocation& alloc,
                             const SlotPoint& slot) {
  GoldSequence gold(pdsch_dmrs_cinit(alloc.n_id, slot, alloc.start_symbol));
  gold.advance(2ull * alloc.prb_start * kSubcarriersPerPrb);
  std::vector<cf32> out(alloc.prb_len * kSubcarriersPerPrb);
  for (auto& v : out) {
    const float re = gold.next() ? -kInvSqrt2 : kInvSqrt2;
    const float im = gold.next() ? -kInvSqrt2 : kInvSqrt2;
    v = cf32(re, im);
  }
  return out;
}

void validate(const PdschAllocation& alloc, const ResourceGrid& grid) {
  if (alloc.prb_len == 0 || alloc.n_symbols < 2) {
    throw std::invalid_argument("PDSCH allocation too small");
  }
  if ((alloc.prb_start + alloc.prb_len) * kSubcarriersPerPrb >
          grid.n_subcarriers() ||
      alloc.start_symbol + alloc.n_symbols > grid.n_symbols()) {
    throw std::invalid_argument("PDSCH allocation outside grid");
  }
}

}  // namespace

void encode_pdsch(const PdschAllocation& alloc, const SlotPoint& slot,
                  std::span<const std::uint8_t> payload, ResourceGrid& grid,
                  PdschEncodeScratch& scratch) {
  validate(alloc, grid);
  // The scrambled codeword as words (bit k of word w is bit 32w + k), with
  // a spare word for the mapper's window.  An all-zero block has a zero
  // CRC, codeword and rate-matched output, so its scrambled words are the
  // Gold words themselves; any other block runs CRC24A, FEC and rate
  // matching in the caller's scratch and XORs its bits in.
  const std::size_t e = alloc.coded_bits();
  scratch.words.resize((e + 31) / 32 + 1);
  GoldSequence scrambling(pdsch_scrambling_cinit(alloc.rnti, alloc.n_id));
  for (auto& word : scratch.words) {
    word = scrambling.next_word();
  }
  if (!std::all_of(payload.begin(), payload.end(),
                   [](std::uint8_t b) { return (b & 1) == 0; })) {
    scratch.tb.assign(payload.begin(), payload.end());
    kCrc24A.attach(scratch.tb);
    scratch.coded.resize(ConvolutionalCode::coded_size(scratch.tb.size()));
    ConvolutionalCode::encode(scratch.tb, scratch.coded);
    scratch.matched.resize(e);
    rate_match(scratch.coded, scratch.matched);
    for (std::size_t i = 0; i < e; ++i) {
      scratch.words[i / 32] ^= std::uint32_t{scratch.matched[i]} << (i % 32);
    }
  }

  // Front-loaded DMRS symbol, straight from the Gold words.
  const unsigned sc0 = alloc.prb_start * kSubcarriersPerPrb;
  const unsigned n_sc = alloc.prb_len * kSubcarriersPerPrb;
  GoldSequence gold(pdsch_dmrs_cinit(alloc.n_id, slot, alloc.start_symbol));
  gold.advance(2ull * sc0);
  cf32* dmrs = grid.symbol(alloc.start_symbol).data() + sc0;
  for (unsigned i = 0; i < n_sc; i += 16) {
    const std::uint32_t word = gold.next_word();
    const unsigned n = std::min(16u, n_sc - i);
    for (unsigned k = 0; k < n; ++k) {
      const float re = ((word >> (2 * k)) & 1u) ? -kInvSqrt2 : kInvSqrt2;
      const float im = ((word >> (2 * k + 1)) & 1u) ? -kInvSqrt2 : kInvSqrt2;
      dmrs[i + k] = cf32(re, im);
    }
  }
  // Data REs, each row mapped straight from its share of the words.
  std::size_t first_bit = 0;
  for (unsigned sym = alloc.start_symbol + 1;
       sym < alloc.start_symbol + alloc.n_symbols; ++sym) {
    modulate_words(scratch.words, first_bit, alloc.modulation,
                   grid.symbol(sym).subspan(sc0, n_sc));
    first_bit += std::size_t{n_sc} * bits_per_symbol(alloc.modulation);
  }
}

void encode_pdsch(const PdschAllocation& alloc, const SlotPoint& slot,
                  std::span<const std::uint8_t> payload, ResourceGrid& grid) {
  PdschEncodeScratch scratch;
  encode_pdsch(alloc, slot, payload, grid, scratch);
}

std::optional<BitVector> decode_pdsch(const PdschAllocation& alloc,
                                      const SlotPoint& slot, unsigned tbs,
                                      const ResourceGrid& grid) {
  validate(alloc, grid);
  const unsigned sc0 = alloc.prb_start * kSubcarriersPerPrb;
  const unsigned n_sc = alloc.prb_len * kSubcarriersPerPrb;

  // Channel estimate from the DMRS symbol.
  const std::vector<cf32> dmrs = pdsch_dmrs(alloc, slot);
  std::vector<Pilot> pilots(n_sc);
  for (unsigned i = 0; i < n_sc; ++i) {
    pilots[i] = Pilot{sc0 + i, grid.at(alloc.start_symbol, sc0 + i),
                      dmrs[i]};
  }
  const ChannelEstimate est = estimate_channel(pilots, sc0, sc0 + n_sc);

  // Equalize and soft-demap all data REs.
  const unsigned qm = bits_per_symbol(alloc.modulation);
  std::vector<float> llrs;
  llrs.reserve(static_cast<std::size_t>(alloc.data_res()) * qm);
  float re_llr[8];
  for (unsigned sym = alloc.start_symbol + 1;
       sym < alloc.start_symbol + alloc.n_symbols; ++sym) {
    for (unsigned i = 0; i < n_sc; ++i) {
      float eff_nv = 0.0f;
      const cf32 eq = equalize_zf(grid.at(sym, sc0 + i), est.at(sc0 + i),
                                  est.noise_var, eff_nv);
      demodulate_llr_re(eq, alloc.modulation, eff_nv, re_llr);
      llrs.insert(llrs.end(), re_llr, re_llr + qm);
    }
  }

  // Descramble (sign flips), de-rate-match, Viterbi, CRC.
  GoldSequence gold(pdsch_scrambling_cinit(alloc.rnti, alloc.n_id));
  for (auto& l : llrs) {
    if (gold.next()) {
      l = -l;
    }
  }
  const std::size_t tb_bits = tbs + kCrc24A.length();
  const std::vector<float> dematched =
      rate_dematch(llrs, ConvolutionalCode::coded_size(tb_bits));
  const BitVector decoded = ConvolutionalCode::decode(dematched, tb_bits);
  if (!kCrc24A.check(decoded)) {
    return std::nullopt;
  }
  return BitVector(decoded.begin(), decoded.begin() + tbs);
}

}  // namespace nrs
