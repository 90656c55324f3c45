// Equivalence of the gNB's encode path against reference oracles.
//
// The production encoders generate Gold sequences 32 bits at a time,
// map QAM through per-scheme tables, skip the FEC for all-zero transport
// blocks and write into caller-owned scratch.  The oracles below keep the
// straightforward forms they replaced: a bit-serial Gold generator with
// the 1600-step warm-up, the nested TS 38.211 5.1 QAM formulas, and the
// allocating encode chains built from them.  Randomized tests require
// bit-identical output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc.h"
#include "common/gold.h"
#include "common/rng.h"
#include "nr/coreset.h"
#include "nr/pdcch.h"
#include "nr/pdsch.h"
#include "phy/conv_code.h"
#include "phy/modulation.h"
#include "phy/polar.h"

namespace nrs {
namespace {

/// Bit-serial Gold generator, TS 38.211 5.2.1 as written.
class GoldOracle {
 public:
  explicit GoldOracle(std::uint32_t c_init)
      : x1_(1), x2_(c_init & 0x7FFFFFFFu) {
    for (int i = 0; i < 1600; ++i) {
      (void)next();
    }
  }
  std::uint8_t next() {
    const auto out = static_cast<std::uint8_t>((x1_ ^ x2_) & 1u);
    const std::uint32_t new1 = ((x1_ >> 3) ^ x1_) & 1u;
    const std::uint32_t new2 =
        ((x2_ >> 3) ^ (x2_ >> 2) ^ (x2_ >> 1) ^ x2_) & 1u;
    x1_ = (x1_ >> 1) | (new1 << 30);
    x2_ = (x2_ >> 1) | (new2 << 30);
    return out;
  }

 private:
  std::uint32_t x1_;
  std::uint32_t x2_;
};

void scramble_oracle(BitVector& bits, std::uint32_t c_init) {
  GoldOracle gold(c_init);
  for (auto& b : bits) {
    b ^= gold.next();
  }
}

/// TS 38.211 5.1 constellations from their nested formulas, e.g. 64QAM
/// I = (1-2b0)(4-(1-2b2)(2-(1-2b4))) / sqrt(42).
std::vector<cf32> modulate_oracle(const BitVector& bits, Modulation m) {
  const unsigned qm = bits_per_symbol(m);
  const float norm = m == Modulation::kQpsk    ? 2.0f
                     : m == Modulation::kQam16 ? 10.0f
                     : m == Modulation::kQam64 ? 42.0f
                                               : 170.0f;
  const float a = 1.0f / std::sqrt(norm);
  auto s = [](std::uint8_t b) { return 1 - 2 * static_cast<int>(b); };
  auto axis = [&](const std::uint8_t* b) -> int {
    switch (m) {
      case Modulation::kQpsk:
        return s(b[0]);
      case Modulation::kQam16:
        return s(b[0]) * (2 - s(b[2]));
      case Modulation::kQam64:
        return s(b[0]) * (4 - s(b[2]) * (2 - s(b[4])));
      default:
        return s(b[0]) * (8 - s(b[2]) * (4 - s(b[4]) * (2 - s(b[6]))));
    }
  };
  std::vector<cf32> out;
  for (std::size_t i = 0; i + qm <= bits.size(); i += qm) {
    out.emplace_back(a * static_cast<float>(axis(&bits[i])),
                     a * static_cast<float>(axis(&bits[i + 1])));
  }
  return out;
}

/// Rate matching with the per-bit division it used to have.
BitVector rate_match_oracle(const BitVector& coded, std::size_t e) {
  BitVector out(e);
  for (std::size_t i = 0; i < e; ++i) {
    out[i] = e >= coded.size() ? coded[i % coded.size()]
                               : coded[i * coded.size() / e];
  }
  return out;
}

std::uint32_t dmrs_cinit(std::uint16_t n_id, const SlotPoint& slot,
                         unsigned symbol) {
  const std::uint64_t v =
      ((1ull << 17) *
           (kSymbolsPerSlot * static_cast<std::uint64_t>(slot.slot) + symbol +
            1) *
           (2ull * n_id + 1) +
       2ull * n_id);
  return static_cast<std::uint32_t>(v & 0x7FFFFFFFull);
}

cf32 qpsk_from(GoldOracle& gold) {
  constexpr float k = 0.70710678f;
  const float re = gold.next() ? -k : k;
  const float im = gold.next() ? -k : k;
  return {re, im};
}

void encode_pdsch_oracle(const PdschAllocation& alloc, const SlotPoint& slot,
                         const BitVector& payload, ResourceGrid& grid) {
  BitVector tb = payload;
  kCrc24A.attach(tb);
  BitVector matched =
      rate_match_oracle(ConvolutionalCode::encode(tb), alloc.coded_bits());
  scramble_oracle(matched, pdsch_scrambling_cinit(alloc.rnti, alloc.n_id));
  const std::vector<cf32> symbols = modulate_oracle(matched, alloc.modulation);
  const unsigned sc0 = alloc.prb_start * kSubcarriersPerPrb;
  const unsigned n_sc = alloc.prb_len * kSubcarriersPerPrb;
  GoldOracle gold(dmrs_cinit(alloc.n_id, slot, alloc.start_symbol));
  for (unsigned i = 0; i < 2 * sc0; ++i) {
    (void)gold.next();
  }
  for (unsigned i = 0; i < n_sc; ++i) {
    grid.at(alloc.start_symbol, sc0 + i) = qpsk_from(gold);
  }
  std::size_t index = 0;
  for (unsigned sym = alloc.start_symbol + 1;
       sym < alloc.start_symbol + alloc.n_symbols; ++sym) {
    for (unsigned i = 0; i < n_sc; ++i) {
      grid.at(sym, sc0 + i) = symbols.at(index++);
    }
  }
}

void encode_pdcch_payload_oracle(const CoresetConfig& coreset,
                                 const PdcchAllocation& alloc,
                                 const BitVector& payload,
                                 const SlotPoint& slot, ResourceGrid& grid) {
  BitVector bits = payload;
  kCrc24C.attach(bits);
  kCrc24C.mask_rnti(bits, alloc.rnti);
  const PolarCode polar(static_cast<unsigned>(bits.size()),
                        alloc.agg_level * kBitsPerCce);
  BitVector coded = polar.encode(bits);
  scramble_oracle(coded, pdcch_scrambling_cinit(0, coreset.n_id));
  const std::vector<cf32> symbols = modulate_oracle(coded, Modulation::kQpsk);
  std::size_t index = 0;
  for (const auto& reg :
       cce_to_regs(coreset, alloc.cce_start, alloc.agg_level)) {
    GoldOracle gold(dmrs_cinit(coreset.n_id, slot, reg.symbol));
    for (unsigned i = 0; i < 2 * kPdcchDmrsPerReg * reg.prb; ++i) {
      (void)gold.next();
    }
    for (unsigned sc = 0; sc < kSubcarriersPerPrb; ++sc) {
      cf32& re = grid.at(reg.symbol, reg.prb * kSubcarriersPerPrb + sc);
      re = sc % 4 == 1 ? qpsk_from(gold) : symbols.at(index++);
    }
  }
}

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector bits(n);
  for (auto& b : bits) {
    b = rng.chance(0.5) ? 1 : 0;
  }
  return bits;
}

void expect_grids_identical(const ResourceGrid& a, const ResourceGrid& b) {
  for (unsigned sym = 0; sym < a.n_symbols(); ++sym) {
    const auto ra = a.symbol(sym);
    const auto rb = b.symbol(sym);
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size_bytes()), 0)
        << "symbol " << sym;
  }
}

TEST(EncoderOracles, WordLevelGoldMatchesBitSerial) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto c_init = static_cast<std::uint32_t>(rng.engine()());
    const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 3000));
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 400));
    GoldOracle oracle(c_init);
    for (std::size_t i = 0; i < offset; ++i) {
      (void)oracle.next();
    }
    BitVector expected(length);
    for (auto& b : expected) {
      b = oracle.next();
    }

    // Bit by bit after advance().
    GoldSequence bitwise(c_init);
    bitwise.advance(offset);
    EXPECT_EQ(bitwise.generate(length), expected)
        << "c_init " << c_init << " offset " << offset;

    // Mixed word and bit reads: word k holds bits LSB first.
    GoldSequence mixed(c_init);
    mixed.advance(offset);
    BitVector got;
    while (got.size() < length) {
      if (length - got.size() >= 32 && rng.chance(0.5)) {
        const std::uint32_t word = mixed.next_word();
        for (unsigned k = 0; k < 32; ++k) {
          got.push_back(static_cast<std::uint8_t>((word >> k) & 1u));
        }
      } else {
        got.push_back(mixed.next());
      }
    }
    EXPECT_EQ(got, expected) << "c_init " << c_init << " offset " << offset;

    // scramble() over a buffer that starts at the sequence origin.
    BitVector data = random_bits(rng, offset % 500);
    BitVector ref = data;
    scramble(data, c_init);
    scramble_oracle(ref, c_init);
    EXPECT_EQ(data, ref);
  }
}

TEST(EncoderOracles, TableQamMatchesFormulaForEveryQm) {
  Rng rng(7);
  for (Modulation m : {Modulation::kQpsk, Modulation::kQam16,
                       Modulation::kQam64, Modulation::kQam256}) {
    const unsigned qm = bits_per_symbol(m);
    // Every constellation point once, then random symbols.
    BitVector bits;
    for (unsigned index = 0; index < (1u << qm); ++index) {
      for (unsigned k = 0; k < qm; ++k) {
        bits.push_back(static_cast<std::uint8_t>((index >> (qm - 1 - k)) & 1));
      }
    }
    const BitVector tail = random_bits(rng, qm * 997);
    bits.insert(bits.end(), tail.begin(), tail.end());
    const std::vector<cf32> expected = modulate_oracle(bits, m);
    const std::vector<cf32> got = modulate(bits, m);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(cf32)),
              0)
        << to_string(m);
  }
}

TEST(EncoderOracles, PdschGridMatchesOracle) {
  Rng rng(99);
  PdschEncodeScratch scratch;  // reused across trials, as the gNB does
  for (int trial = 0; trial < 60; ++trial) {
    PdschAllocation alloc;
    alloc.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFEF));
    alloc.n_symbols = static_cast<unsigned>(rng.uniform_int(2, 12));
    alloc.start_symbol =
        static_cast<unsigned>(rng.uniform_int(0, 14 - alloc.n_symbols));
    alloc.prb_len = static_cast<unsigned>(rng.uniform_int(1, 51));
    alloc.prb_start =
        static_cast<unsigned>(rng.uniform_int(0, 51 - alloc.prb_len));
    const Modulation mods[] = {Modulation::kQpsk, Modulation::kQam16,
                               Modulation::kQam64, Modulation::kQam256};
    alloc.modulation = mods[rng.uniform_int(0, 3)];
    alloc.n_id = static_cast<std::uint16_t>(rng.uniform_int(0, 1007));
    const SlotPoint slot{Scs::kHz30,
                         static_cast<std::uint32_t>(rng.uniform_int(0, 1023)),
                         static_cast<std::uint32_t>(rng.uniform_int(0, 19))};
    const auto tbs = static_cast<std::size_t>(rng.uniform_int(8, 4000));
    // Half the trials carry all-zero blocks (the fast path the gNB's user
    // data takes), half random bits through the full FEC chain.
    const BitVector payload =
        trial % 2 == 0 ? BitVector(tbs, 0) : random_bits(rng, tbs);

    ResourceGrid got(51);
    ResourceGrid expected(51);
    encode_pdsch(alloc, slot, payload, got, scratch);
    encode_pdsch_oracle(alloc, slot, payload, expected);
    expect_grids_identical(got, expected);
  }
  // The largest allocation at every Qm, with the empty payload the gNB
  // sends for user data (the oracle runs it through CRC24A and the FEC)
  // and with random bits.
  for (Modulation m : {Modulation::kQpsk, Modulation::kQam16,
                       Modulation::kQam64, Modulation::kQam256}) {
    PdschAllocation alloc;
    alloc.rnti = 0x4601;
    alloc.prb_len = 51;
    alloc.start_symbol = 2;
    alloc.n_symbols = 12;
    alloc.modulation = m;
    alloc.n_id = 500;
    const SlotPoint slot{Scs::kHz30, 77, 13};
    for (const BitVector& payload : {BitVector{}, random_bits(rng, 3000)}) {
      ResourceGrid got(51);
      ResourceGrid expected(51);
      encode_pdsch(alloc, slot, payload, got, scratch);
      encode_pdsch_oracle(alloc, slot, payload, expected);
      expect_grids_identical(got, expected);
    }
  }
}

TEST(EncoderOracles, PdcchGridMatchesOracle) {
  Rng rng(5);
  PdcchEncodeScratch scratch;
  for (int trial = 0; trial < 80; ++trial) {
    CoresetConfig coreset;
    coreset.n_prb = 6 * static_cast<unsigned>(rng.uniform_int(2, 8));
    coreset.rb_start =
        static_cast<unsigned>(rng.uniform_int(0, 51 - coreset.n_prb));
    coreset.duration = static_cast<unsigned>(rng.uniform_int(1, 2));
    coreset.interleaved = rng.chance(0.5);
    coreset.n_id = static_cast<std::uint16_t>(rng.uniform_int(0, 1007));
    coreset.shift = coreset.n_id;
    const unsigned levels[] = {1, 2, 4, 8};
    PdcchAllocation alloc;
    do {
      alloc.agg_level = levels[rng.uniform_int(0, 3)];
    } while (alloc.agg_level > coreset.n_cce());
    alloc.cce_start = alloc.agg_level *
                      static_cast<unsigned>(rng.uniform_int(
                          0, coreset.n_cce() / alloc.agg_level - 1));
    alloc.rnti = static_cast<Rnti>(rng.uniform_int(0, 0xFFFF));
    const SlotPoint slot{Scs::kHz30,
                         static_cast<std::uint32_t>(rng.uniform_int(0, 1023)),
                         static_cast<std::uint32_t>(rng.uniform_int(0, 19))};
    const BitVector payload =
        random_bits(rng, static_cast<std::size_t>(rng.uniform_int(12, 60)));

    ResourceGrid got(51);
    ResourceGrid expected(51);
    encode_pdcch_payload(coreset, alloc, payload, slot, got, scratch);
    encode_pdcch_payload_oracle(coreset, alloc, payload, slot, expected);
    expect_grids_identical(got, expected);
  }
}

}  // namespace
}  // namespace nrs
