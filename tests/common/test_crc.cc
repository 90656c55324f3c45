#include "common/crc.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace nrs {
namespace {

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector bits(n);
  for (auto& b : bits) {
    b = rng.chance(0.5) ? 1 : 0;
  }
  return bits;
}

TEST(Crc, AttachThenCheckPasses) {
  Rng rng(1);
  for (const CrcGenerator* crc :
       {&kCrc24A, &kCrc24B, &kCrc24C, &kCrc16, &kCrc11, &kCrc6}) {
    BitVector bits = random_bits(rng, 48);
    crc->attach(bits);
    EXPECT_TRUE(crc->check(bits)) << "poly length " << crc->length();
  }
}

TEST(Crc, SingleBitFlipDetected) {
  Rng rng(2);
  BitVector bits = random_bits(rng, 64);
  kCrc24A.attach(bits);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    BitVector corrupted = bits;
    corrupted[i] ^= 1;
    EXPECT_FALSE(kCrc24A.check(corrupted)) << "flip at " << i;
  }
}

TEST(Crc, EmptyPayloadCrcIsZero) {
  const BitVector empty;
  EXPECT_EQ(kCrc24C.compute(empty), 0u);
}

TEST(Crc, CheckTooShortFails) {
  const BitVector bits(10, 0);
  EXPECT_FALSE(kCrc24A.check(bits));
}

TEST(Crc, RntiMaskRoundTrip) {
  // A masked CRC fails the plain check and passes under its own RNTI's
  // mask only: its syndrome is that RNTI.
  Rng rng(3);
  BitVector bits = random_bits(rng, 40);
  kCrc24C.attach(bits);
  const Rnti rnti = 0x4601;
  kCrc24C.mask_rnti(bits, rnti);
  EXPECT_FALSE(kCrc24C.check(bits)) << "masked CRC must not check plain";
  EXPECT_EQ(kCrc24C.syndrome(bits), rnti);
  EXPECT_NE(kCrc24C.syndrome(bits), 0x4602u);
}

TEST(Crc, RecoverMaskFindsRnti) {
  // The paper's C-RNTI recovery: crc(payload) XOR received-crc == RNTI.
  Rng rng(4);
  for (Rnti rnti : {Rnti{0x0001}, Rnti{0x4601}, Rnti{0xFFF0}, Rnti{0xFFFF}}) {
    BitVector bits = random_bits(rng, 44);
    kCrc24C.attach(bits);
    kCrc24C.mask_rnti(bits, rnti);
    EXPECT_EQ(kCrc24C.syndrome(bits), rnti);
  }
}

TEST(Crc, RecoveredMaskSatisfiesFullCheck) {
  // After unmasking with the recovered RNTI, the whole 24-bit CRC checks.
  Rng rng(5);
  BitVector bits = random_bits(rng, 44);
  kCrc24C.attach(bits);
  kCrc24C.mask_rnti(bits, 0xABCD);
  const auto mask = static_cast<Rnti>(kCrc24C.syndrome(bits));
  kCrc24C.mask_rnti(bits, mask);
  EXPECT_TRUE(kCrc24C.check(bits));
}

/// The masked CRC check by definition: unmask a copy's trailing 16 bits
/// and divide the whole codeword.
bool masked_check(const CrcGenerator& crc, const BitVector& bits, Rnti rnti) {
  BitVector copy = bits;
  crc.mask_rnti(copy, rnti);
  return crc.check(copy);
}

TEST(Crc, SyndromeNamesTheOneRntiWhoseMaskPasses) {
  // The decoder's one CRC division per location stands for every masked
  // check: a codeword passes under RNTI r exactly when its syndrome is r.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 140));
    const auto rnti = static_cast<Rnti>(rng.uniform_int(0, 0xFFFF));
    BitVector bits = random_bits(rng, n);
    kCrc24C.attach(bits);
    kCrc24C.mask_rnti(bits, rnti);
    ASSERT_EQ(kCrc24C.syndrome(bits), rnti) << "payload bits " << n;
    EXPECT_TRUE(masked_check(kCrc24C, bits, rnti));
    const auto other =
        static_cast<Rnti>(rnti ^ rng.uniform_int(1, 0xFFFF));
    EXPECT_FALSE(masked_check(kCrc24C, bits, other));
  }
  // Noise words: almost always the upper 8 syndrome bits are set, and then
  // no RNTI's mask passes, not even the one in the low 16 bits.
  int upper_set = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const BitVector bits =
        random_bits(rng, static_cast<std::size_t>(rng.uniform_int(25, 164)));
    const std::uint32_t s = kCrc24C.syndrome(bits);
    ASSERT_LT(s, 1u << 24);
    const auto low = static_cast<Rnti>(s);
    EXPECT_EQ(masked_check(kCrc24C, bits, low), (s >> 16) == 0);
    const auto random_rnti = static_cast<Rnti>(rng.uniform_int(0, 0xFFFF));
    EXPECT_EQ(masked_check(kCrc24C, bits, random_rnti), s == random_rnti);
    upper_set += (s >> 16) != 0 ? 1 : 0;
  }
  EXPECT_GT(upper_set, 150) << "noise words should mostly name no RNTI";
  EXPECT_GE(kCrc24C.syndrome(BitVector(10, 0)), 1u << 24)
      << "a word shorter than the CRC names no RNTI";
}

TEST(Crc, Crc16KnownVector) {
  // CRC-16/CCITT of one zero byte with zero init is 0x0000; of 0xFF.. check
  // self-consistency instead: codeword property.
  BitVector bits = {1, 0, 1, 0, 1, 0, 1, 0};
  kCrc16.attach(bits);
  EXPECT_EQ(bits.size(), 8u + 16u);
  EXPECT_TRUE(kCrc16.check(bits));
}

TEST(Crc, DifferentPolynomialsDisagree) {
  Rng rng(6);
  BitVector payload = random_bits(rng, 32);
  BitVector a = payload;
  kCrc24A.attach(a);
  BitVector c = payload;
  kCrc24C.attach(c);
  EXPECT_NE(a, c);
  EXPECT_FALSE(kCrc24C.check(a));
  EXPECT_FALSE(kCrc24A.check(c));
}

struct CrcLengthCase {
  const char* name;
  const CrcGenerator* crc;
  unsigned length;
  std::uint32_t poly;  ///< TS 38.212 5.1, without the x^L term
};

// Test IDs embed the printed parameter, so print the polynomial's name:
// its address changes with every process under ASLR.
void PrintTo(const CrcLengthCase& c, std::ostream* os) {
  *os << '(' << c.name << ", " << c.length << ')';
}

class CrcLengthTest : public ::testing::TestWithParam<CrcLengthCase> {};

TEST_P(CrcLengthTest, LengthsMatch) {
  EXPECT_EQ(GetParam().crc->length(), GetParam().length);
}

/// Bitwise long division, one branch per message bit.
std::uint32_t bitwise_remainder(std::uint32_t poly, unsigned length,
                                const BitVector& bits) {
  std::uint32_t reg = 0;
  const std::uint32_t top = 1u << (length - 1);
  const std::uint32_t mask = (1u << length) - 1u;
  for (std::uint8_t b : bits) {
    const bool feedback = ((reg & top) != 0) != ((b & 1) != 0);
    reg = (reg << 1) & mask;
    if (feedback) {
      reg ^= poly;
    }
  }
  return reg;
}

TEST_P(CrcLengthTest, ComputeMatchesBitwiseDivision) {
  const CrcGenerator& crc = *GetParam().crc;
  const unsigned length = GetParam().length;
  const std::uint32_t poly = GetParam().poly;
  Rng rng(8);
  for (std::size_t n = 0; n <= 300; ++n) {
    std::vector<BitVector> words = {random_bits(rng, n), BitVector(n, 1)};
    for (std::size_t one = 0; one < n; one += 1 + n / 5) {
      words.emplace_back(n, 0);
      words.back()[one] = 1;
    }
    for (const BitVector& w : words) {
      ASSERT_EQ(crc.compute(w), bitwise_remainder(poly, length, w))
          << GetParam().name << ", " << n << " bits";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolys, CrcLengthTest,
    ::testing::Values(CrcLengthCase{"CRC24A", &kCrc24A, 24u, 0x864CFB},
                      CrcLengthCase{"CRC24B", &kCrc24B, 24u, 0x800063},
                      CrcLengthCase{"CRC24C", &kCrc24C, 24u, 0xB2B117},
                      CrcLengthCase{"CRC16", &kCrc16, 16u, 0x1021},
                      CrcLengthCase{"CRC11", &kCrc11, 11u, 0x621},
                      CrcLengthCase{"CRC6", &kCrc6, 6u, 0x21}));

}  // namespace
}  // namespace nrs
