// Backend-equivalence property tests for the SIMD kernel layer: every
// compiled-in backend must reproduce the scalar reference exactly (the
// bit-exactness-by-construction contract in phy/kernels/kernels.h), with a
// bounded-ULP allowance only for the float LLR kernels.  Inputs are
// randomized across sizes that exercise both the vector body and the
// scalar tail of each backend.
#include "phy/kernels/kernels.h"

#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "phy/kernels/kernels_detail.h"

namespace nrs {
namespace {

std::vector<const kernels::KernelTable*> simd_tables() {
  std::vector<const kernels::KernelTable*> tables;
  for (kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kNeon}) {
    if (kernels::available(isa)) {
      tables.push_back(kernels::table_for(isa));
    }
  }
  return tables;
}

const kernels::KernelTable& scalar() {
  return *kernels::table_for(kernels::Isa::kScalar);
}

/// ULP distance between two floats of the same sign ordering; equal bit
/// patterns return 0 (including -0 vs -0, inf vs inf).
std::uint32_t ulp_distance(float a, float b) {
  std::uint32_t ua = 0;
  std::uint32_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  if (ua == ub) {
    return 0;
  }
  // Map to a monotonic integer line.
  const auto key = [](std::uint32_t u) {
    return (u & 0x80000000u) ? 0x80000000u - (u & 0x7FFFFFFFu)
                             : 0x80000000u + u;
  };
  const std::uint32_t ka = key(ua);
  const std::uint32_t kb = key(ub);
  return ka > kb ? ka - kb : kb - ka;
}

void expect_bits_equal(const float* a, const float* b, std::size_t n,
                       const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t ua = 0;
    std::uint32_t ub = 0;
    std::memcpy(&ua, a + i, sizeof(ua));
    std::memcpy(&ub, b + i, sizeof(ub));
    ASSERT_EQ(ua, ub) << what << " diverges at " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

void expect_ulp_close(const float* a, const float* b, std::size_t n,
                      std::uint32_t max_ulp, const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LE(ulp_distance(a[i], b[i]), max_ulp)
        << what << " diverges at " << i << ": " << a[i] << " vs " << b[i];
  }
}

cf32 random_cf32(Rng& rng) {
  return {static_cast<float>(rng.gaussian()),
          static_cast<float>(rng.gaussian())};
}

/// Sizes straddling the vector width: scalar-only, one vector, vector +
/// tail, many vectors + tail.
const std::size_t kSizes[] = {1, 3, 4, 7, 8, 9, 31, 64, 127, 129};

TEST(Kernels, ScalarTableAlwaysAvailable) {
  ASSERT_NE(kernels::table_for(kernels::Isa::kScalar), nullptr);
  EXPECT_TRUE(kernels::available(kernels::Isa::kScalar));
}

TEST(Kernels, SelectRejectsUnavailable) {
  const kernels::Isa before = kernels::active().isa;
  if (!kernels::available(kernels::Isa::kNeon)) {
    EXPECT_FALSE(kernels::select(kernels::Isa::kNeon));
    EXPECT_EQ(kernels::active().isa, before);
  }
  if (!kernels::available(kernels::Isa::kAvx2)) {
    EXPECT_FALSE(kernels::select(kernels::Isa::kAvx2));
    EXPECT_EQ(kernels::active().isa, before);
  }
  EXPECT_TRUE(kernels::select(before));
}

TEST(Kernels, CorrEnergyRealBitExact) {
  Rng rng(101);
  for (const auto* simd : simd_tables()) {
    for (std::size_t n : kSizes) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<cf32> a(n);
        std::vector<float> w(n);
        for (std::size_t i = 0; i < n; ++i) {
          a[i] = random_cf32(rng);
          w[i] = rng.chance(0.5) ? 1.0f : -1.0f;
        }
        cf32 c0;
        cf32 c1;
        float e0 = 0.0f;
        float e1 = 0.0f;
        scalar().corr_energy_real(a.data(), w.data(), n, &c0, &e0);
        simd->corr_energy_real(a.data(), w.data(), n, &c1, &e1);
        const float s0[3] = {c0.real(), c0.imag(), e0};
        const float s1[3] = {c1.real(), c1.imag(), e1};
        expect_bits_equal(s0, s1, 3, "corr_energy_real");

        const float g0 = scalar().energy(a.data(), n);
        const float g1 = simd->energy(a.data(), n);
        expect_bits_equal(&g0, &g1, 1, "energy");
      }
    }
  }
}

TEST(Kernels, ComplexElementwiseBitExact) {
  Rng rng(202);
  for (const auto* simd : simd_tables()) {
    for (std::size_t n : kSizes) {
      std::vector<cf32> a(n);
      std::vector<cf32> b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = random_cf32(rng);
        b[i] = random_cf32(rng);
      }
      std::vector<cf32> out0(n);
      std::vector<cf32> out1(n);
      scalar().cx_mul_conj_scale(a.data(), b.data(), 0.7f, out0.data(), n);
      simd->cx_mul_conj_scale(a.data(), b.data(), 0.7f, out1.data(), n);
      expect_bits_equal(reinterpret_cast<const float*>(out0.data()),
                        reinterpret_cast<const float*>(out1.data()), 2 * n,
                        "cx_mul_conj_scale");

    }
  }
}

// Whole transforms over every size up to 4096 (below, at and above the
// vector width), forward and inverse, with random twiddle tables: the
// butterflies, not the table, must agree.  One input is Gaussian with a
// zero band and planted ±0, the other signed zeros only, where a skipped
// multiply would flip a zero's sign all the way to the output.
TEST(Kernels, FftBitExact) {
  Rng rng(303);
  const auto signed_zero = [&rng] { return rng.chance(0.5) ? 0.0f : -0.0f; };
  for (const auto* simd : simd_tables()) {
    for (std::size_t n = 1; n <= 4096; n *= 2) {
      std::vector<cf32> tw(n > 1 ? n - 1 : 0);
      for (auto& t : tw) {
        t = random_cf32(rng);
      }
      if (!tw.empty()) {
        tw.front() = cf32(1.0f, -0.0f);  // W^0 as Fft's table holds it
      }
      std::vector<cf32> mixed(n);
      std::vector<cf32> zeros(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 5 == 0) {
          mixed[i] = cf32(signed_zero(), signed_zero());
        } else if (i < n / 2) {
          mixed[i] = random_cf32(rng);
        }
        zeros[i] = cf32(signed_zero(), signed_zero());
      }
      for (const auto* in : {&mixed, &zeros}) {
        for (const bool normalize : {false, true}) {
          std::vector<cf32> out0(n);
          std::vector<cf32> out1(n);
          std::vector<cf32> scratch(n);
          scalar().fft(in->data(), out0.data(), scratch.data(), tw.data(), n,
                       normalize);
          simd->fft(in->data(), out1.data(), scratch.data(), tw.data(), n,
                    normalize);
          expect_bits_equal(reinterpret_cast<const float*>(out0.data()),
                            reinterpret_cast<const float*>(out1.data()),
                            2 * n, "fft");
        }
      }
    }
  }
}

// The in-place multipath FIR over lengths below, at and far above the
// 16-sample vector step, with delays up to 600 samples, often past the
// buffer's start.  Inputs hold a band of signed zeros and gains have
// signed-zero parts: a backend that started a sum from the first product
// instead of +0 would leave a -0 there.
TEST(Kernels, MultipathBitExact) {
  Rng rng(1010);
  const auto signed_zero = [&rng] { return rng.chance(0.5) ? 0.0f : -0.0f; };
  for (const auto* simd : simd_tables()) {
    for (int rep = 0; rep < 60; ++rep) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 2048));
      const auto n_taps = static_cast<std::size_t>(rng.uniform_int(1, 9));
      std::vector<cf32> gains(n_taps);
      std::vector<unsigned> delays(n_taps);
      for (std::size_t t = 0; t < n_taps; ++t) {
        gains[t] = random_cf32(rng);
        if (rng.chance(0.25)) {
          gains[t].real(signed_zero());
        }
        if (rng.chance(0.25)) {
          gains[t].imag(signed_zero());
        }
        delays[t] = static_cast<unsigned>(rng.uniform_int(0, 600));
      }
      std::vector<cf32> x0(n);
      for (std::size_t i = 0; i < n; ++i) {
        x0[i] = i % 3 == 0 || (i > n / 4 && i < n / 2)
                    ? cf32(signed_zero(), signed_zero())
                    : random_cf32(rng);
      }
      std::vector<cf32> x1 = x0;
      scalar().multipath(x0.data(), n, gains.data(), delays.data(), n_taps);
      simd->multipath(x1.data(), n, gains.data(), delays.data(), n_taps);
      expect_bits_equal(reinterpret_cast<const float*>(x0.data()),
                        reinterpret_cast<const float*>(x1.data()), 2 * n,
                        "multipath");
    }
  }
}

TEST(Kernels, LlrKernelsBoundedUlp) {
  Rng rng(404);
  for (const auto* simd : simd_tables()) {
    for (std::size_t n : kSizes) {
      std::vector<cf32> rx(n);
      std::vector<cf32> h(n);
      for (std::size_t i = 0; i < n; ++i) {
        rx[i] = random_cf32(rng);
        h[i] = random_cf32(rng);
      }
      std::vector<float> out0(2 * n);
      std::vector<float> out1(2 * n);
      scalar().eq_qpsk_llr(rx.data(), h.data(), 3.5f, out0.data(), n);
      simd->eq_qpsk_llr(rx.data(), h.data(), 3.5f, out1.data(), n);
      expect_ulp_close(out0.data(), out1.data(), 2 * n, 1, "eq_qpsk_llr");

      for (unsigned per_axis = 1; per_axis <= 4; ++per_axis) {
        std::vector<float> q0(2 * per_axis * n);
        std::vector<float> q1(2 * per_axis * n);
        scalar().qam_llr(rx.data(), n, per_axis, 0.31f, 5.0f, q0.data());
        simd->qam_llr(rx.data(), n, per_axis, 0.31f, 5.0f, q1.data());
        expect_ulp_close(q0.data(), q1.data(), 2 * per_axis * n, 1,
                         "qam_llr");
      }
    }
  }
}

TEST(Kernels, DescrambleBitExact) {
  Rng rng(505);
  for (const auto* simd : simd_tables()) {
    for (std::size_t n : kSizes) {
      std::vector<float> llr(n);
      std::vector<std::uint8_t> bits(n);
      for (std::size_t i = 0; i < n; ++i) {
        llr[i] = static_cast<float>(rng.gaussian());
        bits[i] = rng.chance(0.5) ? 1 : 0;
      }
      // Signed zeros must flip like any other value.
      if (n > 2) {
        llr[0] = 0.0f;
        llr[1] = -0.0f;
      }
      std::vector<float> l0(llr);
      std::vector<float> l1(llr);
      scalar().descramble(l0.data(), bits.data(), n);
      simd->descramble(l1.data(), bits.data(), n);
      expect_bits_equal(l0.data(), l1.data(), n, "descramble");
    }
  }
}

TEST(Kernels, PolarNodeOpsBitExact) {
  Rng rng(606);
  for (const auto* simd : simd_tables()) {
    for (std::size_t n : kSizes) {
      std::vector<float> a(n);
      std::vector<float> b(n);
      std::vector<std::uint8_t> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.gaussian());
        b[i] = static_cast<float>(rng.gaussian());
        x[i] = rng.chance(0.5) ? 1 : 0;
      }
      if (n > 2) {
        a[0] = -0.0f;  // sign-bit semantics must match
        b[1] = 0.0f;
      }
      // NaN lanes in a, in b and in both: min must pick the operand
      // std::min picks.  (polar_g's NaN + NaN keeps whichever operand the
      // compiler puts first, so g gets the NaN-free inputs.)
      std::vector<float> fa(a);
      std::vector<float> fb(b);
      constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
      for (std::size_t i = 2; i < n; i += 3) {
        fa[i] = i % 2 == 0 ? kNan : -kNan;
        if (i + 1 < n) {
          fb[i + 1] = kNan;
        }
        if (i % 9 == 8) {
          fb[i] = -kNan;
        }
      }
      std::vector<float> f0(n);
      std::vector<float> f1(n);
      scalar().polar_f(fa.data(), fb.data(), f0.data(), n);
      simd->polar_f(fa.data(), fb.data(), f1.data(), n);
      expect_bits_equal(f0.data(), f1.data(), n, "polar_f");

      std::vector<float> g0(n);
      std::vector<float> g1(n);
      scalar().polar_g(a.data(), b.data(), x.data(), g0.data(), n);
      simd->polar_g(a.data(), b.data(), x.data(), g1.data(), n);
      expect_bits_equal(g0.data(), g1.data(), n, "polar_g");

      std::vector<std::uint8_t> x0(2 * n);
      std::vector<std::uint8_t> x1(2 * n);
      std::vector<std::uint8_t> c(n);
      for (std::size_t i = 0; i < n; ++i) {
        x0[i] = rng.chance(0.5) ? 1 : 0;
        x1[i] = x0[i];
        c[i] = rng.chance(0.5) ? 1 : 0;
      }
      scalar().polar_combine(x0.data(), c.data(), n);
      simd->polar_combine(x1.data(), c.data(), n);
      ASSERT_EQ(x0, x1) << "polar_combine";
    }
  }
}

TEST(Kernels, PolarInterleaveBitExact) {
  // Every lane count and the (E, N) pairs of the PDCCH and PBCH codes,
  // shortened and repeated, plus E - N and E < N off the vector width.
  // Inputs mix gaussians with ±0, ±inf, NaN of both signs and values
  // around ±1e30, where the bound check flips.
  struct Dims {
    std::size_t e;
    std::size_t n;
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kBound = 1e30f;
  const float specials[] = {0.0f,  -0.0f, kInf,   -kInf,   kNan,
                            -kNan, 1e30f, -1e30f, 1.1e30f, -9e29f};
  Rng rng(607);
  for (const auto* simd : simd_tables()) {
    for (const Dims dims : {Dims{108, 128}, Dims{216, 256}, Dims{432, 512},
                            Dims{864, 512}, Dims{1728, 512}, Dims{50, 64},
                            Dims{13, 32}, Dims{32, 32}, Dims{93, 32},
                            Dims{557, 512}}) {
      for (std::size_t lanes = 1; lanes <= 8; ++lanes) {
        for (int mix = 0; mix < 3; ++mix) {
          // mix 0: finite and small; 1: one special per ~20 values; 2:
          // values near the bound only, so repeated copies can cross it.
          std::vector<std::vector<float>> words(lanes,
                                                std::vector<float>(dims.e));
          for (auto& w : words) {
            for (float& v : w) {
              v = static_cast<float>(rng.gaussian());
              if (mix == 1 && rng.chance(0.05)) {
                v = specials[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(std::size(specials)) - 1))];
              } else if (mix == 2) {
                v = (rng.chance(0.5) ? 6e29f : -6e29f) * (1.0f + v * 0.1f);
              }
            }
          }
          std::vector<const float*> in;
          for (const auto& w : words) {
            in.push_back(w.data());
          }
          // One spare row past the root: nothing may be written there.
          const std::size_t size = (dims.n + 1) * lanes;
          std::vector<float> r0(size, 7.0f);
          std::vector<float> r1(size, 7.0f);
          const bool ok0 = scalar().polar_interleave(
              in.data(), lanes, dims.e, dims.n, 1e9f, kBound, r0.data());
          const bool ok1 = simd->polar_interleave(
              in.data(), lanes, dims.e, dims.n, 1e9f, kBound, r1.data());
          SCOPED_TRACE(::testing::Message()
                       << to_string(simd->isa) << " E=" << dims.e
                       << " N=" << dims.n << " lanes=" << lanes
                       << " mix=" << mix);
          expect_bits_equal(r0.data(), r1.data(), size, "polar_interleave");
          ASSERT_EQ(ok0, ok1);
          // The scalar root is the definition: copies summed from +0 in
          // index order, or shortened positions set to the fill.
          bool ok = true;
          for (std::size_t i = 0; i < dims.n; ++i) {
            for (std::size_t l = 0; l < lanes; ++l) {
              float v = 1e9f;
              if (dims.e >= dims.n) {
                v = 0.0f;
                for (std::size_t j = i; j < dims.e; j += dims.n) {
                  v += words[l][j];
                }
              } else if (i < dims.e) {
                v = words[l][i];
              }
              ok = ok && std::fabs(v) <= kBound;
              expect_bits_equal(&v, &r0[i * lanes + l], 1, "definition");
            }
          }
          ASSERT_EQ(ok0, ok);
          for (std::size_t i = dims.n * lanes; i < size; ++i) {
            ASSERT_EQ(r1[i], 7.0f) << "wrote past the root at " << i;
          }
        }
      }
    }
  }
}

TEST(Kernels, ViterbiAcsBitExact) {
  Rng rng(707);
  constexpr std::size_t kStates = kernels::kViterbiStates;
  for (const auto* simd : simd_tables()) {
    for (int rep = 0; rep < 32; ++rep) {
      std::vector<float> metric(kStates);
      std::vector<float> ca0(kStates);
      std::vector<float> cb0(kStates);
      std::vector<float> ca1(kStates);
      std::vector<float> cb1(kStates);
      std::vector<std::int32_t> sv0(kStates);
      std::vector<std::int32_t> sv1(kStates);
      for (std::size_t i = 0; i < kStates; ++i) {
        // Include -inf metrics (unreached states early in the trellis).
        metric[i] = rng.chance(0.25)
                        ? -std::numeric_limits<float>::infinity()
                        : static_cast<float>(rng.gaussian());
        ca0[i] = rng.chance(0.5) ? 1.0f : -1.0f;
        cb0[i] = rng.chance(0.5) ? 1.0f : -1.0f;
        ca1[i] = rng.chance(0.5) ? 1.0f : -1.0f;
        cb1[i] = rng.chance(0.5) ? 1.0f : -1.0f;
        sv0[i] = static_cast<std::int32_t>(i);
        sv1[i] = static_cast<std::int32_t>(i + kStates);
      }
      const float la = static_cast<float>(rng.gaussian());
      const float lb = static_cast<float>(rng.gaussian());
      for (bool tail : {false, true}) {
        std::vector<float> n0(kStates);
        std::vector<float> n1(kStates);
        std::vector<std::int32_t> s0(kStates);
        std::vector<std::int32_t> s1(kStates);
        scalar().viterbi_acs(metric.data(), la, lb, ca0.data(), cb0.data(),
                             ca1.data(), cb1.data(), sv0.data(), sv1.data(),
                             tail, n0.data(), s0.data());
        simd->viterbi_acs(metric.data(), la, lb, ca0.data(), cb0.data(),
                          ca1.data(), cb1.data(), sv0.data(), sv1.data(),
                          tail, n1.data(), s1.data());
        expect_bits_equal(n0.data(), n1.data(), kStates, "viterbi metrics");
        ASSERT_EQ(s0, s1) << "viterbi survivors";
      }
    }
  }
}

// --- counter-based AWGN -------------------------------------------------

TEST(Kernels, PhiloxMatchesPublishedKnownAnswers) {
  // Philox4x32-10 known-answer vectors from the Random123 distribution
  // (Salmon et al., SC'11): {counter, key} -> output.
  struct Kat {
    kernels::detail::PhiloxBlock ctr;
    std::uint32_t k0, k1;
    std::uint32_t out[4];
  };
  const Kat kats[] = {
      {{{0, 0, 0, 0}}, 0, 0, {0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}},
      {{{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff}},
       0xffffffff,
       0xffffffff,
       {0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}},
      {{{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344}},
       0xa4093822,
       0x299f31d0,
       {0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}},
  };
  for (const Kat& kat : kats) {
    const auto got = kernels::detail::philox4x32_10(kat.ctr, kat.k0, kat.k1);
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(got.v[w], kat.out[w]) << "word " << w;
    }
  }
}

TEST(Kernels, AwgnAddBitExact) {
  Rng rng(808);
  for (const auto* simd : simd_tables()) {
    for (int rep = 0; rep < 128; ++rep) {
      // Every length mod 64 (four 16-sample vector steps) twice, up to
      // 1 023 samples, odd and even starting indices, keys and slots
      // spanning the full 64 bits.
      const auto n = static_cast<std::size_t>(64 * rng.uniform_int(0, 15) +
                                              rep % 64);
      const std::uint64_t key = rng.engine()();
      const std::uint64_t slot = rep % 4 == 0 ? rng.engine()()
                                              : static_cast<std::uint64_t>(
                                                    rng.uniform_int(0, 5000));
      const auto first = static_cast<std::uint64_t>(rng.uniform_int(0, 20000));
      const auto sigma =
          rep % 16 == 0 ? 0.0f : static_cast<float>(rng.uniform(1e-4, 3.0));
      std::vector<cf32> x0(n);
      for (auto& v : x0) {
        v = random_cf32(rng);
      }
      std::vector<cf32> x1 = x0;
      scalar().awgn_add(x0.data(), n, key, slot, first, sigma);
      simd->awgn_add(x1.data(), n, key, slot, first, sigma);
      expect_bits_equal(reinterpret_cast<const float*>(x0.data()),
                        reinterpret_cast<const float*>(x1.data()), 2 * n,
                        "awgn_add");
    }
  }
}

TEST(Kernels, AwgnAddDependsOnlyOnSeedSlotAndIndex) {
  // Splitting a buffer into calls at arbitrary points gives the same bytes:
  // sample i's noise is a function of (key, slot, i) alone.
  Rng rng(909);
  std::vector<const kernels::KernelTable*> tables = simd_tables();
  tables.push_back(&scalar());
  for (const auto* table : tables) {
    for (int rep = 0; rep < 20; ++rep) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1000));
      const std::uint64_t key = rng.engine()();
      const auto slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1u << 20));
      std::vector<cf32> whole(n, cf32{});
      table->awgn_add(whole.data(), n, key, slot, 0, 1.0f);
      std::vector<cf32> split(n, cf32{});
      std::size_t at = 0;
      while (at < n) {
        const auto len = std::min<std::size_t>(
            n - at, static_cast<std::size_t>(rng.uniform_int(1, 45)));
        table->awgn_add(split.data() + at, len, key, slot, at, 1.0f);
        at += len;
      }
      expect_bits_equal(reinterpret_cast<const float*>(whole.data()),
                        reinterpret_cast<const float*>(split.data()), 2 * n,
                        "awgn_add split");
      // A different slot or key gives different noise.
      std::vector<cf32> other(n, cf32{});
      table->awgn_add(other.data(), n, key, slot + 1, 0, 1.0f);
      EXPECT_NE(std::memcmp(whole.data(), other.data(), n * sizeof(cf32)), 0);
    }
  }
}

TEST(Kernels, AwgnAddIsStandardGaussian) {
  // 2^21 complex samples = 2^22 unit-variance draws over 64 slots, for
  // every backend (bit-exactness alone would let a shared flaw through).
  constexpr std::size_t kPerSlot = 1u << 15;
  constexpr int kSlots = 64;
  std::vector<const kernels::KernelTable*> tables = simd_tables();
  tables.push_back(&scalar());
  for (const auto* table : tables) {
    SCOPED_TRACE(kernels::to_string(table->isa));
    std::vector<cf32> x(kPerSlot);
    double sum = 0.0;
    double sum2 = 0.0;
    double sum4 = 0.0;
    double cross = 0.0;
    double sum_re = 0.0;
    double sum_im = 0.0;
    double sum2_re = 0.0;
    double sum2_im = 0.0;
    std::uint64_t beyond3 = 0;
    for (int slot = 0; slot < kSlots; ++slot) {
      std::fill(x.begin(), x.end(), cf32{});
      table->awgn_add(x.data(), x.size(), 0x5EED5EED1234ull,
                      static_cast<std::uint64_t>(slot), 0, 1.0f);
      for (const cf32& v : x) {
        for (const double g : {static_cast<double>(v.real()),
                               static_cast<double>(v.imag())}) {
          sum += g;
          sum2 += g * g;
          sum4 += g * g * g * g;
          beyond3 += std::abs(g) > 3.0 ? 1 : 0;
        }
        cross += static_cast<double>(v.real()) * v.imag();
        sum_re += v.real();
        sum_im += v.imag();
        sum2_re += static_cast<double>(v.real()) * v.real();
        sum2_im += static_cast<double>(v.imag()) * v.imag();
      }
    }
    const double n = 2.0 * kPerSlot * kSlots;
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_LT(std::abs(mean), 4.0 / std::sqrt(n));
    EXPECT_LT(std::abs(var - 1.0), 4.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(sum4 / n / (var * var), 3.0, 0.02);
    EXPECT_NEAR(static_cast<double>(beyond3) / n / 0.0026998, 1.0, 0.10);
    const double m = n / 2.0;
    const double mean_re = sum_re / m;
    const double mean_im = sum_im / m;
    // Each component on its own, too: a flaw that biases one axis can
    // cancel in the pooled mean.
    EXPECT_LT(std::abs(mean_re), 4.0 / std::sqrt(m));
    EXPECT_LT(std::abs(mean_im), 4.0 / std::sqrt(m));
    const double cov = cross / m - mean_re * mean_im;
    const double corr = cov / std::sqrt((sum2_re / m - mean_re * mean_re) *
                                        (sum2_im / m - mean_im * mean_im));
    EXPECT_LT(std::abs(corr), 0.005);
  }
}

TEST(Kernels, AwgnUniformNeverZeroAndTailReachesSixSigma) {
  namespace d = kernels::detail;
  // The smallest and largest uniforms the radius word can produce.
  EXPECT_GT(d::awgn_uniform(0u), 0.0f);
  EXPECT_GT(d::awgn_uniform(1u), 0.0f);
  EXPECT_LE(d::awgn_uniform(0xFFFFFFFFu), 1.0f);
  EXPECT_TRUE(std::isfinite(d::awgn_log(d::awgn_uniform(0u))));
  // The radius word 0 is the deepest tail: at least 6 sigma in every
  // direction the angle word can pick.
  Rng rng(1010);
  for (int rep = 0; rep < 64; ++rep) {
    cf32 v{};
    d::awgn_add_one(v, 0u, static_cast<std::uint32_t>(rng.engine()()), 1.0f);
    EXPECT_GE(std::abs(v), 6.0f);
  }
  // Zero radius (u = 1) adds nothing rather than a NaN.
  cf32 v{};
  d::awgn_add_one(v, 0xFFFFFFFFu, 12345u, 1.0f);
  EXPECT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
  EXPECT_LT(std::abs(v), 1e-3f);
}

#if defined(__x86_64__)
/// XINUSE bit 2 (XGETBV with ECX = 1): the upper YMM halves are in use.
__attribute__((target("xsave"))) bool upper_ymm_dirty() {
  return (_xgetbv(1) & 4u) != 0;
}

__attribute__((target("avx"))) void clear_upper_ymm() { _mm256_zeroupper(); }

bool xinuse_readable() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return __get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) != 0 &&
         (eax & 4u) != 0;
}
#endif

// An AVX2 entry that returns with dirty upper YMM halves slows every
// legacy-SSE instruction its caller runs next (the scalar gNB code after
// the channel's AWGN ran at half speed), which no bit-exactness test can
// see.  Every entry must return with them clear.
TEST(Kernels, Avx2EntriesReturnWithUpperYmmClear) {
#if defined(__x86_64__)
  if (!kernels::available(kernels::Isa::kAvx2) || !xinuse_readable()) {
    GTEST_SKIP() << "no AVX2 backend or no XGETBV(1) on this host";
  }
  const kernels::KernelTable& k = *kernels::table_for(kernels::Isa::kAvx2);
  Rng rng(31);
  constexpr std::size_t kN = 1024;  // vector bodies and tails alike
  constexpr std::size_t kStates = kernels::kViterbiStates;
  std::vector<cf32> a(kN);
  std::vector<cf32> b(kN);
  std::vector<cf32> out(kN);
  std::vector<cf32> scratch(kN);
  std::vector<cf32> tw(kN - 1);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = random_cf32(rng);
    b[i] = random_cf32(rng);
  }
  for (auto& t : tw) {
    t = random_cf32(rng);
  }
  std::vector<float> fa(2 * kN);
  std::vector<float> fb(2 * kN);
  std::vector<float> fout(8 * kN);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    fa[i] = static_cast<float>(rng.gaussian());
    fb[i] = static_cast<float>(rng.gaussian());
  }
  std::vector<std::uint8_t> bits(kN);
  for (auto& bit : bits) {
    bit = rng.chance(0.5) ? 1 : 0;
  }
  std::vector<std::uint8_t> partial_sums(2 * kN);
  std::vector<std::int32_t> sv0(kStates, 0);
  std::vector<std::int32_t> sv1(kStates, 1);
  std::vector<std::int32_t> surv(kStates);
  const cf32 gains[2] = {cf32(0.8f, 0.1f), cf32(0.2f, -0.3f)};
  const unsigned delays[2] = {0, 7};
  cf32 corr{};
  float energy = 0.0f;

  const auto expect_clean = [](const char* name, const auto& call) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{37}, kN}) {
      clear_upper_ymm();
      call(n);
      EXPECT_FALSE(upper_ymm_dirty()) << name << " n=" << n;
    }
  };
  expect_clean("corr_energy_real", [&](std::size_t n) {
    k.corr_energy_real(a.data(), fa.data(), n, &corr, &energy);
  });
  expect_clean("energy", [&](std::size_t n) { (void)k.energy(a.data(), n); });
  expect_clean("cx_mul_conj_scale", [&](std::size_t n) {
    k.cx_mul_conj_scale(a.data(), b.data(), 0.5f, out.data(), n);
  });
  expect_clean("fft", [&](std::size_t n) {
    const std::size_t points = std::bit_floor(n);
    k.fft(a.data(), out.data(), scratch.data(), tw.data(), points, true);
  });
  expect_clean("eq_qpsk_llr", [&](std::size_t n) {
    k.eq_qpsk_llr(a.data(), b.data(), 2.0f, fout.data(), n);
  });
  expect_clean("qam_llr", [&](std::size_t n) {
    k.qam_llr(a.data(), n, 4, 0.08f, 3.0f, fout.data());
  });
  expect_clean("descramble", [&](std::size_t n) {
    k.descramble(fa.data(), bits.data(), n);
  });
  expect_clean("polar_f", [&](std::size_t n) {
    k.polar_f(fa.data(), fb.data(), fout.data(), n);
  });
  expect_clean("polar_g", [&](std::size_t n) {
    k.polar_g(fa.data(), fb.data(), bits.data(), fout.data(), n);
  });
  expect_clean("polar_combine", [&](std::size_t n) {
    k.polar_combine(partial_sums.data(), bits.data(), n);
  });
  expect_clean("polar_interleave", [&](std::size_t n) {
    const float* in[8];
    for (std::size_t l = 0; l < 8; ++l) {
      in[l] = fa.data() + l * (kN / 8);
    }
    const std::size_t lanes = n % 8 + 1;
    (void)k.polar_interleave(in, lanes, kN / 8, 64, 1e9f, 1e30f,
                             fout.data());
  });
  expect_clean("multipath", [&](std::size_t n) {
    k.multipath(out.data(), n, gains, delays, 2);
  });
  expect_clean("awgn_add", [&](std::size_t n) {
    k.awgn_add(out.data(), n, 0x5EEDull, 3, n % 2, 0.1f);
  });
  expect_clean("viterbi_acs", [&](std::size_t) {
    k.viterbi_acs(fa.data(), 0.5f, -0.5f, fb.data(), fb.data() + kStates,
                  fb.data() + 2 * kStates, fb.data() + 3 * kStates,
                  sv0.data(), sv1.data(), false, fout.data(), surv.data());
  });
#else
  GTEST_SKIP() << "x86 only";
#endif
}

}  // namespace
}  // namespace nrs
