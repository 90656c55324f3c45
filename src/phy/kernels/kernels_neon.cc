// NEON backend (AArch64).  Builds the table from the scalar backend and
// overrides the elementwise kernels with NEON versions; the blocked
// reductions, the FFT and the Viterbi ACS stay scalar (exactness is what
// matters most on the portability path, and no ARM runner checks a NEON
// Stockham transform yet).  Same bit-exactness contract as AVX2: addsub
// lane order for complex products, sign-bit arithmetic, no FMA
// (-ffp-contract=off; vmulq+vaddq, never vmlaq).
#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "phy/kernels/kernels.h"
#include "phy/kernels/kernels_detail.h"

namespace nrs::kernels {
namespace {

namespace d = detail;

const float* fp(const cf32* p) {
  return reinterpret_cast<const float*>(p);
}
float* fp(cf32* p) { return reinterpret_cast<float*>(p); }

/// Sign mask on odd lanes (imag components): [0, S, 0, S].
uint32x4_t odd_sign_mask() {
  const std::uint32_t m[4] = {0u, 0x80000000u, 0u, 0x80000000u};
  return vld1q_u32(m);
}

/// a * conj(b), two complex lanes.
float32x4_t mul_conj2(float32x4_t a, float32x4_t b) {
  const float32x4_t br = vtrn1q_f32(b, b);  // [br0 br0 br1 br1]
  const float32x4_t bi = vtrn2q_f32(b, b);  // [bi0 bi0 bi1 bi1]
  const float32x4_t t1 = vmulq_f32(a, br);
  const float32x4_t t2 = vmulq_f32(vrev64q_f32(a), bi);
  const float32x4_t t2n = vreinterpretq_f32_u32(
      veorq_u32(vreinterpretq_u32_f32(t2), odd_sign_mask()));
  return vaddq_f32(t1, t2n);
}

/// Sign-flip mask from 4 scramble bytes.
uint32x4_t byte_sign_mask(const std::uint8_t* bits) {
  const std::uint32_t m[4] = {
      bits[0] ? 0x80000000u : 0u, bits[1] ? 0x80000000u : 0u,
      bits[2] ? 0x80000000u : 0u, bits[3] ? 0x80000000u : 0u};
  return vld1q_u32(m);
}

void cx_mul_conj_scale_neon(const cf32* a, const cf32* b, float s, cf32* out,
                            std::size_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float32x4_t va = vld1q_f32(fp(a + i));
    const float32x4_t vb = vld1q_f32(fp(b + i));
    vst1q_f32(fp(out + i), vmulq_f32(mul_conj2(va, vb), sv));
  }
  for (; i < n; ++i) {
    out[i] = d::mul_conj_scale(a[i], b[i], s);
  }
}

void eq_qpsk_llr_neon(const cf32* rx, const cf32* h, float k, float* out,
                      std::size_t n) {
  const float32x4_t kv = vdupq_n_f32(k);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float32x4_t vrx = vld1q_f32(fp(rx + i));
    const float32x4_t vh = vld1q_f32(fp(h + i));
    vst1q_f32(out + 2 * i, vmulq_f32(mul_conj2(vrx, vh), kv));
  }
  for (; i < n; ++i) {
    d::eq_qpsk_llr_one(rx[i], h[i], k, out + 2 * i);
  }
}

void descramble_neon(float* llrs, const std::uint8_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t mask = byte_sign_mask(bits + i);
    const uint32x4_t v = vreinterpretq_u32_f32(vld1q_f32(llrs + i));
    vst1q_f32(llrs + i, vreinterpretq_f32_u32(veorq_u32(v, mask)));
  }
  for (; i < n; ++i) {
    llrs[i] = d::descramble_one(llrs[i], bits[i]);
  }
}

void polar_f_neon(const float* a, const float* b, float* out,
                  std::size_t n) {
  const uint32x4_t sign_all = vdupq_n_u32(0x80000000u);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t va = vld1q_f32(a + i);
    const float32x4_t vb = vld1q_f32(b + i);
    const uint32x4_t sign = vandq_u32(
        veorq_u32(vreinterpretq_u32_f32(va), vreinterpretq_u32_f32(vb)),
        sign_all);
    // The scalar std::min(|a|, |b|) as a select: |a| unless |b| < |a|, so a
    // NaN in b yields |a| (FMIN would yield NaN).
    const float32x4_t abs_a = vabsq_f32(va);
    const float32x4_t abs_b = vabsq_f32(vb);
    const float32x4_t m =
        vbslq_f32(vcltq_f32(abs_b, abs_a), abs_b, abs_a);
    vst1q_f32(out + i, vreinterpretq_f32_u32(
                           vorrq_u32(vreinterpretq_u32_f32(m), sign)));
  }
  for (; i < n; ++i) {
    out[i] = d::polar_f_one(a[i], b[i]);
  }
}

void polar_g_neon(const float* a, const float* b, const std::uint8_t* x,
                  float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t mask = byte_sign_mask(x + i);
    const float32x4_t va = vld1q_f32(a + i);
    const float32x4_t vb = vld1q_f32(b + i);
    const float32x4_t flipped = vreinterpretq_f32_u32(
        veorq_u32(vreinterpretq_u32_f32(va), mask));
    vst1q_f32(out + i, vaddq_f32(vb, flipped));
  }
  for (; i < n; ++i) {
    out[i] = d::polar_g_one(a[i], b[i], x[i]);
  }
}

void polar_combine_neon(std::uint8_t* x, const std::uint8_t* c,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t vx = vld1q_u8(x + i);
    const uint8x16_t vc = vld1q_u8(c + i);
    vst1q_u8(x + i, veorq_u8(vx, vc));
    vst1q_u8(x + n + i, vc);
  }
  for (; i < n; ++i) {
    x[i] = static_cast<std::uint8_t>(x[i] ^ c[i]);
    x[n + i] = c[i];
  }
}

const KernelTable kNeonTable = [] {
  KernelTable t = *scalar_table();
  t.isa = Isa::kNeon;
  t.cx_mul_conj_scale = cx_mul_conj_scale_neon;
  t.eq_qpsk_llr = eq_qpsk_llr_neon;
  t.descramble = descramble_neon;
  t.polar_f = polar_f_neon;
  t.polar_g = polar_g_neon;
  t.polar_combine = polar_combine_neon;
  return t;
}();

}  // namespace

const KernelTable* neon_table() { return &kNeonTable; }

}  // namespace nrs::kernels

#else  // !AArch64 NEON

#include "phy/kernels/kernels.h"

namespace nrs::kernels {
const KernelTable* neon_table() { return nullptr; }
}  // namespace nrs::kernels

#endif
