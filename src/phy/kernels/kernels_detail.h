// Shared scalar building blocks for the kernel backends.
//
// Every backend (scalar, AVX2 tail loops, NEON tail loops) includes this
// header so that the element-level arithmetic — operand order, sign-bit
// handling, lane assignment of blocked reductions — is written exactly
// once.  All functions are branch-light plain-float code; the backend TUs
// are compiled with -ffp-contract=off so no FMA contraction can make one
// backend differ from another.  Everything here has internal linkage (an
// unnamed namespace): the header is compiled into the scalar TU and into
// the -mavx2 TU, and an out-of-line copy with external linkage would be a
// weak symbol in each, of which the linker keeps one for both backends.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace nrs::kernels::detail {
namespace {

/// Accumulator state for the blocked (4 complex lane) reductions: 8 floats
/// of interleaved re/im lane sums plus 8 floats of per-component energy
/// sums.  Lane j holds elements j, j+4, j+8, ... — exactly the lanes of a
/// 256-bit vector of 4 complex values.
struct CorrAcc {
  float c[8] = {0, 0, 0, 0, 0, 0, 0, 0};  ///< interleaved corr lanes
  float e[8] = {0, 0, 0, 0, 0, 0, 0, 0};  ///< per-component |a|^2 lanes
};

/// Accumulate one element into lane `lane` (= global index % 4).
inline void corr_acc_element(CorrAcc& acc, cf32 a, float w,
                             std::size_t lane) {
  const float ar = a.real();
  const float ai = a.imag();
  acc.c[2 * lane] += ar * w;
  acc.c[2 * lane + 1] += ai * w;
  acc.e[2 * lane] += ar * ar;
  acc.e[2 * lane + 1] += ai * ai;
}

/// Fixed-order horizontal reduction of 4 interleaved complex lanes.
inline cf32 reduce_lanes_cplx(const float c[8]) {
  const float re = (c[0] + c[2]) + (c[4] + c[6]);
  const float im = (c[1] + c[3]) + (c[5] + c[7]);
  return {re, im};
}

/// Fixed-order horizontal reduction of 8 scalar lanes.
inline float reduce_lanes(const float e[8]) {
  return ((e[0] + e[1]) + (e[2] + e[3])) + ((e[4] + e[5]) + (e[6] + e[7]));
}

/// s * (a * conj(b)) with the operand order shared by the SIMD backends:
/// re = ar*br + ai*bi, im = ai*br - ar*bi (addsub lane order).
inline cf32 mul_conj_scale(cf32 a, cf32 b, float s) {
  const float ar = a.real();
  const float ai = a.imag();
  const float br = b.real();
  const float bi = b.imag();
  return {s * (ar * br + ai * bi), s * (ai * br - ar * bi)};
}

/// a * b with the addsub lane order: re = ar*br - ai*bi,
/// im = ai*br + ar*bi.
inline cf32 mul_cplx(cf32 a, cf32 b) {
  const float ar = a.real();
  const float ai = a.imag();
  const float br = b.real();
  const float bi = b.imag();
  return {ar * br - ai * bi, ai * br + ar * bi};
}

// --- Stockham radix-2 FFT ---------------------------------------------
//
// The stage of half-size h combines, for every butterfly index k < h and
// every s < r = n / (2h), the h-point sub-transforms s and s + r of the
// previous stage into the 2h-point sub-transform s.  Stockham keeps point
// k of sub-transform s at index k * r + s, so the input needs no
// bit-reversal and the last stage (r = 1) writes natural order.  The
// in-place bit-reversal transform runs the very same butterflies (same
// even, odd and twiddle), only at other addresses.

/// a * s, componentwise (the inverse's 1/n).
inline cf32 scale_cplx(cf32 a, float s) {
  return {a.real() * s, a.imag() * s};
}

/// One Stockham stage from `in` to `out` (see KernelTable::fft); `tw` is
/// the stage's twiddle row.  With kNormalize both outputs of every
/// butterfly are multiplied by 1/n.
template <bool kNormalize>
inline void stockham_stage(const cf32* in, cf32* out, const cf32* tw,
                           std::size_t n, std::size_t half) {
  const std::size_t r = n / (2 * half);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t k = 0; k < half; ++k) {
    const cf32* even = in + 2 * k * r;
    const cf32* odd = even + r;
    cf32* lo = out + k * r;
    cf32* hi = lo + n / 2;
    const cf32 w = tw[k];
    for (std::size_t s = 0; s < r; ++s) {
      const cf32 p = mul_cplx(odd[s], w);
      cf32 sum = even[s] + p;
      cf32 diff = even[s] - p;
      if constexpr (kNormalize) {
        sum = scale_cplx(sum, inv_n);
        diff = scale_cplx(diff, inv_n);
      }
      lo[s] = sum;
      hi[s] = diff;
    }
  }
}

/// The scalar transform (KernelTable::fft): stages half = 1, 2, ..., n/2,
/// ping-ponging between `out` and `scratch` so that the last one lands in
/// `out`.  n = 1 is a copy (times 1/1 with `normalize`, as every inverse
/// output is scaled).
inline void fft_radix2(const cf32* in, cf32* out, cf32* scratch,
                       const cf32* tw, std::size_t n, bool normalize) {
  if (n == 1) {
    out[0] = normalize ? scale_cplx(in[0], 1.0f) : in[0];
    return;
  }
  const cf32* src = in;
  cf32* dst = std::countr_zero(n) % 2 == 1 ? out : scratch;
  for (std::size_t half = 1; half < n; half <<= 1) {
    if (2 * half == n && normalize) {
      stockham_stage<true>(src, dst, tw + (half - 1), n, half);
    } else {
      stockham_stage<false>(src, dst, tw + (half - 1), n, half);
    }
    src = dst;
    dst = dst == out ? scratch : out;
  }
}

// --- multipath FIR ------------------------------------------------------

/// The scalar FIR (KernelTable::multipath), outputs from the last to the
/// first: output i reads x[i - d] for d >= 0 only, so every input it reads
/// is still unmodified when it is written.  Each output sums the taps with
/// delay <= i from +0 in tap order.
inline void multipath_fir(cf32* x, std::size_t n, const cf32* gains,
                          const unsigned* delays, std::size_t n_taps) {
  for (std::size_t i = n; i-- > 0;) {
    cf32 acc{};
    for (std::size_t t = 0; t < n_taps; ++t) {
      if (i >= delays[t]) {
        const cf32 p = mul_cplx(x[i - delays[t]], gains[t]);
        acc = {acc.real() + p.real(), acc.imag() + p.imag()};
      }
    }
    x[i] = acc;
  }
}

/// Min-sum f with IEEE sign-bit semantics (matches SIMD xor/andnot):
/// out = (signbit(a) ^ signbit(b)) | min(|a|, |b|).
inline float polar_f_one(float a, float b) {
  const auto ua = std::bit_cast<std::uint32_t>(a);
  const auto ub = std::bit_cast<std::uint32_t>(b);
  const std::uint32_t sign = (ua ^ ub) & 0x80000000u;
  const float m = std::min(std::fabs(a), std::fabs(b));
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(m) | sign);
}

/// g node: b + (x ? -a : a), via sign-bit flip (exact for ±0 too).
inline float polar_g_one(float a, float b, std::uint8_t x) {
  const auto ua = std::bit_cast<std::uint32_t>(a);
  const std::uint32_t flipped = ua ^ (x ? 0x80000000u : 0u);
  return b + std::bit_cast<float>(flipped);
}

/// Lane input `in`'s root value at position i (see
/// KernelTable::polar_interleave).
inline float polar_root_one(const float* in, std::size_t e, std::size_t n,
                            float shortened, std::size_t i) {
  if (e < n) {
    return i < e ? in[i] : shortened;
  }
  float v = 0.0f;
  for (std::size_t j = i; j < e; j += n) {
    v += in[j];
  }
  return v;
}

/// The scalar dematch (KernelTable::polar_interleave), one position row
/// of all lanes after another.
inline bool polar_interleave_rows(const float* const* in, std::size_t lanes,
                                  std::size_t e, std::size_t n,
                                  float shortened, float bound,
                                  float* root) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const float v = polar_root_one(in[l], e, n, shortened, i);
      root[i * lanes + l] = v;
      ok &= std::fabs(v) <= bound;
    }
  }
  return ok;
}

/// Descramble one LLR: flip the sign bit when the scramble bit is 1.
inline float descramble_one(float llr, std::uint8_t bit) {
  const auto u = std::bit_cast<std::uint32_t>(llr);
  return std::bit_cast<float>(u ^ (bit ? 0x80000000u : 0u));
}

/// Fused ZF-equalize + QPSK demap for one RE (see KernelTable::eq_qpsk_llr).
inline void eq_qpsk_llr_one(cf32 rx, cf32 h, float k, float* out) {
  const cf32 mf = mul_conj_scale(rx, h, 1.0f);
  out[0] = k * mf.real();
  out[1] = k * mf.imag();
}

/// Max-log Gray PAM recursion for one symbol (per_axis >= 1); writes
/// 2*per_axis LLRs at out[2k + axis].
inline void qam_llr_one(cf32 sym, unsigned per_axis, float a, float scale,
                        float* out) {
  for (unsigned axis = 0; axis < 2; ++axis) {
    float metric = axis == 0 ? sym.real() : sym.imag();
    for (unsigned k = 0; k < per_axis; ++k) {
      out[2 * k + axis] = scale * metric;
      const float level = a * static_cast<float>(1u << (per_axis - 1 - k));
      metric = level - std::fabs(metric);
    }
  }
}

/// One Viterbi ACS lane (see KernelTable::viterbi_acs).
inline void viterbi_acs_one(const float* metric, float la, float lb,
                            const float* ca0, const float* cb0,
                            const float* ca1, const float* cb1,
                            const std::int32_t* sv0, const std::int32_t* sv1,
                            std::size_t ns, float* next,
                            std::int32_t* surv) {
  const float bm0 = ca0[ns] * la + cb0[ns] * lb;
  const float bm1 = ca1[ns] * la + cb1[ns] * lb;
  const float m0 = metric[ns >> 1] + bm0;
  const float m1 = metric[(ns >> 1) + 32] + bm1;
  const bool take1 = m1 > m0;
  next[ns] = take1 ? m1 : m0;
  surv[ns] = take1 ? sv1[ns] : sv0[ns];
}

// --- counter-based AWGN (Philox4x32-10 + Box-Muller) -------------------
//
// Noise for sample s of slot t under key k comes from the Philox4x32-10
// block (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
// SC'11) with key (k_lo, k_hi) and counter (s >> 1, t_lo, t_hi, 0).  The
// block's four words serve two samples: the even one takes words 0-1, the
// odd one words 2-3.  A sample's first word sets the Box-Muller radius,
// its second the angle.  Nothing is carried between calls, so any split
// of a slot into calls yields the same bytes.
//
// Every backend runs exactly the operation sequence below (no FMA, the
// same polynomial evaluation order, IEEE sqrt), so the outputs are
// bit-identical across ISAs.

inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;  ///< key bumps
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;
inline constexpr int kPhiloxRounds = 10;

struct PhiloxBlock {
  std::uint32_t v[4];
};

/// Philox4x32-10 of `ctr` under key (k0, k1).
inline PhiloxBlock philox4x32_10(PhiloxBlock ctr, std::uint32_t k0,
                                 std::uint32_t k1) {
  for (int round = 0; round < kPhiloxRounds; ++round) {
    if (round > 0) {
      k0 += kPhiloxW0;
      k1 += kPhiloxW1;
    }
    const std::uint64_t p0 = std::uint64_t{kPhiloxM0} * ctr.v[0];
    const std::uint64_t p1 = std::uint64_t{kPhiloxM1} * ctr.v[2];
    ctr = {{static_cast<std::uint32_t>(p1 >> 32) ^ ctr.v[1] ^ k0,
            static_cast<std::uint32_t>(p1),
            static_cast<std::uint32_t>(p0 >> 32) ^ ctr.v[3] ^ k1,
            static_cast<std::uint32_t>(p0)}};
  }
  return ctr;
}

/// The block holding samples 2*pair and 2*pair + 1 of `slot`.
inline PhiloxBlock awgn_block(std::uint64_t key, std::uint64_t slot,
                              std::uint64_t pair) {
  return philox4x32_10({{static_cast<std::uint32_t>(pair),
                         static_cast<std::uint32_t>(slot),
                         static_cast<std::uint32_t>(slot >> 32), 0u}},
                       static_cast<std::uint32_t>(key),
                       static_cast<std::uint32_t>(key >> 32));
}

/// Uniform on (0, 1] from the top 31 bits of `w`: (w/2 + 1/2) * 2^-31.
/// Never 0, so the log below stays finite; the smallest value, 2^-32,
/// puts the radius tail at sqrt(64 ln 2) = 6.66 sigma.
inline float awgn_uniform(std::uint32_t w) {
  return (static_cast<float>(static_cast<std::int32_t>(w >> 1)) + 0.5f) *
         0x1p-31f;
}

// Natural log on (0, 1] (Cephes logf): u = 2^e * m, m in [sqrt(1/2),
// sqrt(2)), then a degree-9 polynomial in m - 1.
inline constexpr float kLogSqrtHalf = 0.707106781186547524f;
inline constexpr float kLogP[9] = {
    7.0376836292E-2f, -1.1514610310E-1f, 1.1676998740E-1f,
    -1.2420140846E-1f, 1.4249322787E-1f, -1.6668057665E-1f,
    2.0000714765E-1f, -2.4999993993E-1f, 3.3333331174E-1f};
inline constexpr float kLogQ1 = -2.12194440E-4f;  ///< ln 2, low part
inline constexpr float kLogQ2 = 0.693359375f;     ///< ln 2, high part

inline float awgn_log(float u) {
  const auto bits = std::bit_cast<std::uint32_t>(u);
  auto e = static_cast<std::int32_t>(bits >> 23) - 126;
  float m = std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F000000u);
  const bool below = m < kLogSqrtHalf;
  const float tmp = below ? m : 0.0f;
  e -= below ? 1 : 0;
  m = m - 1.0f;
  m = m + tmp;
  const float z = m * m;
  float y = kLogP[0];
  for (int k = 1; k < 9; ++k) {
    y = y * m + kLogP[k];
  }
  y = y * m;
  y = y * z;
  const float fe = static_cast<float>(e);
  y = y + fe * kLogQ1;
  y = y + z * -0.5f;
  float x = m + y;
  x = x + fe * kLogQ2;
  return x;
}

// Angle from the top 24 bits of w: 2 bits pick the quadrant q, 22 bits a
// uniform x in (-pi/4, pi/4); the direction is x + q * pi/2.  Sine and
// cosine of x use the Cephes sinf/cosf polynomials for |x| <= pi/4.
inline constexpr float kAngleStep = 0x1.921fb6p-22f;    ///< (pi/2) / 2^22
inline constexpr float kAngleOffset = -0x1.921faep-1f;  ///< step/2 - pi/4
inline constexpr float kSinP[3] = {-1.9515295891E-4f, 8.3321608736E-3f,
                                   -1.6666654611E-1f};
inline constexpr float kCosP[3] = {2.443315711809948E-5f,
                                   -1.388731625493765E-3f,
                                   4.166664568298827E-2f};

/// (cos, sin) of the angle encoded in `w`.
inline void awgn_direction(std::uint32_t w, float& c, float& s) {
  const std::uint32_t m = w >> 8;
  const std::uint32_t q = m >> 22;
  const float x =
      static_cast<float>(static_cast<std::int32_t>(m & 0x3FFFFFu)) *
          kAngleStep +
      kAngleOffset;
  const float z = x * x;
  float sp = kSinP[0];
  sp = sp * z + kSinP[1];
  sp = sp * z + kSinP[2];
  sp = sp * z;
  sp = sp * x;
  sp = sp + x;
  float cp = kCosP[0];
  cp = cp * z + kCosP[1];
  cp = cp * z + kCosP[2];
  cp = cp * z;
  cp = cp * z;
  cp = cp - z * 0.5f;
  cp = cp + 1.0f;
  // Rotate by q quarter turns: swap for odd q, then flip signs.
  const bool swap = (q & 1u) != 0;
  const float a = swap ? sp : cp;
  const float b = swap ? cp : sp;
  c = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) ^
                           (((q ^ (q >> 1)) & 1u) << 31));
  s = std::bit_cast<float>(std::bit_cast<std::uint32_t>(b) ^
                           (((q >> 1) & 1u) << 31));
}

/// x += sigma * (Box-Muller pair of words (w_radius, w_angle)).
inline void awgn_add_one(cf32& x, std::uint32_t w_radius,
                         std::uint32_t w_angle, float sigma) {
  const float r = std::sqrt(-2.0f * awgn_log(awgn_uniform(w_radius))) * sigma;
  float c = 0.0f;
  float s = 0.0f;
  awgn_direction(w_angle, c, s);
  x = cf32(x.real() + r * c, x.imag() + r * s);
}

/// Reference loop over samples [first, first + n) of `slot`, one Philox
/// block per sample pair (half a block at an odd start or even end).
inline void awgn_add_range(cf32* x, std::size_t n, std::uint64_t key,
                           std::uint64_t slot, std::uint64_t first,
                           float sigma) {
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t index = first + i;
    const PhiloxBlock b = awgn_block(key, slot, index >> 1);
    if ((index & 1) == 0) {
      awgn_add_one(x[i++], b.v[0], b.v[1], sigma);
      if (i == n) {
        break;
      }
    }
    awgn_add_one(x[i++], b.v[2], b.v[3], sigma);
  }
}

}  // namespace
}  // namespace nrs::kernels::detail
