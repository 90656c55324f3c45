#include "phy/conv_code.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "phy/kernels/kernels.h"

namespace nrs {
namespace {

constexpr std::uint8_t parity7(unsigned v) {
  return static_cast<std::uint8_t>(std::popcount(v & 0x7Fu) & 1);
}

/// Branch outputs for (previous state, input bit).
struct Branch {
  std::uint8_t out_a;
  std::uint8_t out_b;
};

constexpr Branch branch_outputs(unsigned prev_state, unsigned bit) {
  const unsigned reg = ((prev_state << 1) | bit) & 0x7Fu;
  return {parity7(reg & ConvolutionalCode::kPolyA),
          parity7(reg & ConvolutionalCode::kPolyB)};
}

/// Precomputed ACS coefficients indexed by NEXT state ns (input bit =
/// ns & 1).  The two predecessors of ns are ns>>1 and (ns>>1)+32; the
/// 7-bit encoder register along those transitions is ns and ns|64, so the
/// branch metric is ca*la + cb*lb with ca/cb = +1 for output bit 0 and -1
/// for output bit 1 (positive LLR favors bit 0).  Survivor words pack
/// (predecessor << 1) | bit, which collapses to ns and ns + 64.
struct AcsTables {
  alignas(32) std::array<float, ConvolutionalCode::kNumStates> ca0{};
  alignas(32) std::array<float, ConvolutionalCode::kNumStates> cb0{};
  alignas(32) std::array<float, ConvolutionalCode::kNumStates> ca1{};
  alignas(32) std::array<float, ConvolutionalCode::kNumStates> cb1{};
  alignas(32) std::array<std::int32_t, ConvolutionalCode::kNumStates> sv0{};
  alignas(32) std::array<std::int32_t, ConvolutionalCode::kNumStates> sv1{};
};

constexpr AcsTables make_acs_tables() {
  AcsTables t{};
  for (unsigned ns = 0; ns < ConvolutionalCode::kNumStates; ++ns) {
    const unsigned bit = ns & 1u;
    const Branch b0 = branch_outputs(ns >> 1, bit);
    const Branch b1 = branch_outputs((ns >> 1) + 32, bit);
    t.ca0[ns] = b0.out_a ? -1.0f : 1.0f;
    t.cb0[ns] = b0.out_b ? -1.0f : 1.0f;
    t.ca1[ns] = b1.out_a ? -1.0f : 1.0f;
    t.cb1[ns] = b1.out_b ? -1.0f : 1.0f;
    t.sv0[ns] = static_cast<std::int32_t>(ns);
    t.sv1[ns] = static_cast<std::int32_t>(ns + 64);
  }
  return t;
}

constexpr AcsTables kAcs = make_acs_tables();

}  // namespace

void ConvolutionalCode::encode(std::span<const std::uint8_t> bits,
                               std::span<std::uint8_t> out) {
  if (out.size() != coded_size(bits.size())) {
    throw std::invalid_argument("ConvolutionalCode::encode: output length");
  }
  unsigned state = 0;
  std::uint8_t* o = out.data();
  auto push = [&](unsigned b) {
    const Branch br = branch_outputs(state, b);
    o[0] = br.out_a;
    o[1] = br.out_b;
    o += 2;
    state = ((state << 1) | b) & (kNumStates - 1);
  };
  for (std::uint8_t b : bits) {
    push(b & 1);
  }
  for (unsigned i = 0; i < kConstraintLength - 1; ++i) {
    push(0);  // tail: return to the zero state
  }
}

BitVector ConvolutionalCode::encode(std::span<const std::uint8_t> bits) {
  BitVector out(coded_size(bits.size()));
  encode(bits, out);
  return out;
}

void ConvolutionalCode::decode(std::span<const float> llrs,
                               std::size_t payload_bits,
                               ConvDecodeScratch& scratch,
                               std::span<std::uint8_t> out) {
  const std::size_t steps = payload_bits + kConstraintLength - 1;
  if (llrs.size() != 2 * steps) {
    throw std::invalid_argument("ConvolutionalCode::decode: LLR length");
  }
  if (out.size() != payload_bits) {
    throw std::invalid_argument("ConvolutionalCode::decode: output length");
  }
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  // Grow-only scratch.
  if (scratch.metric.size() < kNumStates) {
    scratch.metric.resize(kNumStates);
    scratch.next.resize(kNumStates);
  }
  if (scratch.survivors.size() < steps * kNumStates) {
    scratch.survivors.resize(steps * kNumStates);
  }
  float* metric = scratch.metric.data();
  float* next = scratch.next.data();
  std::fill(metric, metric + kNumStates, kNegInf);
  metric[0] = 0.0f;  // trellis starts in the zero state

  const auto& kt = kernels::active();
  for (std::size_t t = 0; t < steps; ++t) {
    const float la = llrs[2 * t];
    const float lb = llrs[2 * t + 1];
    const bool tail = t >= payload_bits;  // tail forces input bit 0
    kt.viterbi_acs(metric, la, lb, kAcs.ca0.data(), kAcs.cb0.data(),
                   kAcs.ca1.data(), kAcs.cb1.data(), kAcs.sv0.data(),
                   kAcs.sv1.data(), tail, next,
                   scratch.survivors.data() + t * kNumStates);
    std::swap(metric, next);
  }

  // Terminated trellis: trace back from the zero state.  The survivor
  // word packs (predecessor << 1) | input bit.
  unsigned state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    const std::int32_t sv = scratch.survivors[t * kNumStates + state];
    const unsigned bit = static_cast<unsigned>(sv) & 1u;
    if (t < payload_bits) {
      out[t] = static_cast<std::uint8_t>(bit);
    }
    state = static_cast<unsigned>(sv) >> 1;
  }
}

BitVector ConvolutionalCode::decode(std::span<const float> llrs,
                                    std::size_t payload_bits) {
  ConvDecodeScratch scratch;
  BitVector decoded(payload_bits);
  decode(llrs, payload_bits, scratch,
         std::span(decoded.data(), decoded.size()));
  return decoded;
}

void rate_match(std::span<const std::uint8_t> coded,
                std::span<std::uint8_t> out) {
  const std::size_t c = coded.size();
  const std::size_t e = out.size();
  if (c == 0 || e == 0) {
    throw std::invalid_argument("rate_match: empty input");
  }
  if (e >= c) {
    // Repetition: out[i] = coded[i mod C], whole copies then the rest.
    std::size_t i = 0;
    for (; i + c <= e; i += c) {
      std::copy(coded.begin(), coded.end(), out.begin() + i);
    }
    std::copy(coded.begin(), coded.begin() + (e - i), out.begin() + i);
  } else {
    // Uniform puncturing: keep bit floor(i * C / E), stepped without a
    // division per bit.
    const std::size_t q_step = c / e;
    const std::size_t r_step = c % e;
    std::size_t q = 0;
    std::size_t r = 0;
    for (std::size_t i = 0; i < e; ++i) {
      out[i] = coded[q];
      q += q_step;
      r += r_step;
      if (r >= e) {
        r -= e;
        ++q;
      }
    }
  }
}

BitVector rate_match(std::span<const std::uint8_t> coded, std::size_t e) {
  if (coded.empty() || e == 0) {
    throw std::invalid_argument("rate_match: empty input");
  }
  BitVector out(e);
  rate_match(coded, out);
  return out;
}

std::vector<float> rate_dematch(std::span<const float> llrs,
                                std::size_t coded_size) {
  if (llrs.empty() || coded_size == 0) {
    throw std::invalid_argument("rate_dematch: empty input");
  }
  std::vector<float> out(coded_size, 0.0f);
  if (llrs.size() >= coded_size) {
    for (std::size_t i = 0; i < llrs.size(); ++i) {
      out[i % coded_size] += llrs[i];  // chase-combine repetitions
    }
  } else {
    for (std::size_t i = 0; i < llrs.size(); ++i) {
      out[i * coded_size / llrs.size()] = llrs[i];  // punctured: erasures
    }
  }
  return out;
}

}  // namespace nrs
