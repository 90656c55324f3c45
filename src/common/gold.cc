#include "common/gold.h"

#include <array>

namespace nrs {
namespace {

constexpr unsigned kNcWords = 1600 / 32;  // TS 38.211 5.2.1 Nc, in words

// One 32-bit step of each LFSR.  Bit k of a window word is x(n+k).  The
// shifts produce the new bits x(n+32+j) from the recurrence for j <= 27;
// the left-shift terms then fold in the four new bits that the top of the
// new word depends on.
//   x1(m+31) = x1(m+3) + x1(m)
//   x2(m+31) = x2(m+3) + x2(m+2) + x2(m+1) + x2(m)
constexpr std::uint32_t step_x1(std::uint32_t x) {
  const std::uint32_t t = (x >> 1) ^ (x >> 4);
  return t ^ (t << 31) ^ (t << 28);
}

constexpr std::uint32_t step_x2(std::uint32_t x) {
  const std::uint32_t t = (x >> 1) ^ (x >> 2) ^ (x >> 3) ^ (x >> 4);
  return t ^ (t << 31) ^ (t << 30) ^ (t << 29) ^ (t << 28);
}

/// x2's first window x2(0..31) for a 31-bit seed: the seed itself plus
/// x2(31) from the recurrence.
constexpr std::uint32_t x2_first_word(std::uint32_t c_init) {
  const std::uint32_t b31 =
      (c_init ^ (c_init >> 1) ^ (c_init >> 2) ^ (c_init >> 3)) & 1u;
  return c_init | (b31 << 31);
}

/// x1 window at n = Nc; x1 is always seeded with 1.
constexpr std::uint32_t x1_at_nc() {
  std::uint32_t x = 0x80000001u;  // x1(0) = 1, x1(31) = x1(3) + x1(0) = 1
  for (unsigned i = 0; i < kNcWords; ++i) {
    x = step_x1(x);
  }
  return x;
}

/// x2 window at n = Nc for each single-bit seed 1 << i; the window for any
/// seed is the XOR of the entries of its set bits.
constexpr std::array<std::uint32_t, 31> x2_at_nc_basis() {
  std::array<std::uint32_t, 31> basis{};
  for (unsigned i = 0; i < 31; ++i) {
    std::uint32_t x = x2_first_word(1u << i);
    for (unsigned w = 0; w < kNcWords; ++w) {
      x = step_x2(x);
    }
    basis[i] = x;
  }
  return basis;
}

constexpr std::uint32_t kX1AtNc = x1_at_nc();
constexpr std::array<std::uint32_t, 31> kX2AtNc = x2_at_nc_basis();

}  // namespace

GoldSequence::GoldSequence(std::uint32_t c_init) : x1_(kX1AtNc), x2_(0) {
  const std::uint32_t seed = c_init & 0x7FFFFFFFu;
  for (unsigned i = 0; i < 31; ++i) {
    x2_ ^= kX2AtNc[i] & (0u - ((seed >> i) & 1u));
  }
}

std::uint32_t GoldSequence::step_word() {
  const std::uint32_t word = x1_ ^ x2_;
  x1_ = step_x1(x1_);
  x2_ = step_x2(x2_);
  return word;
}

std::uint8_t GoldSequence::next() {
  if (avail_ == 0) {
    out_ = step_word();
    avail_ = 32;
  }
  const auto bit = static_cast<std::uint8_t>(out_ & 1u);
  out_ >>= 1;
  --avail_;
  return bit;
}

std::uint32_t GoldSequence::next_word() {
  const std::uint32_t fresh = step_word();
  if (avail_ == 0) {
    return fresh;
  }
  const std::uint32_t word = out_ | (fresh << avail_);
  out_ = fresh >> (32 - avail_);
  return word;
}

BitVector GoldSequence::generate(std::size_t count) {
  BitVector out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = next();
  }
  return out;
}

void GoldSequence::advance(std::size_t count) {
  if (count <= avail_) {  // avail_ < 32, so the shift is defined
    out_ >>= count;
    avail_ -= static_cast<unsigned>(count);
    return;
  }
  count -= avail_;
  avail_ = 0;
  for (; count >= 32; count -= 32) {
    (void)step_word();
  }
  if (count > 0) {
    out_ = step_word() >> count;
    avail_ = 32 - static_cast<unsigned>(count);
  }
}

void scramble(std::span<std::uint8_t> bits, std::uint32_t c_init) {
  GoldSequence gold(c_init);
  std::size_t i = 0;
  for (; i + 32 <= bits.size(); i += 32) {
    const std::uint32_t word = gold.next_word();
    for (unsigned k = 0; k < 32; ++k) {
      bits[i + k] ^= static_cast<std::uint8_t>((word >> k) & 1u);
    }
  }
  for (; i < bits.size(); ++i) {
    bits[i] ^= gold.next();
  }
}

std::uint32_t pdcch_scrambling_cinit(std::uint16_t n_rnti,
                                     std::uint16_t n_id) {
  return ((static_cast<std::uint32_t>(n_rnti) << 16) + n_id) & 0x7FFFFFFFu;
}

std::uint32_t pdsch_scrambling_cinit(std::uint16_t rnti, std::uint16_t n_id) {
  return ((static_cast<std::uint32_t>(rnti) << 15) + n_id) & 0x7FFFFFFFu;
}

}  // namespace nrs
