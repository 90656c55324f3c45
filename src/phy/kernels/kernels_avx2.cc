// AVX2 backend.  Compiled only on x86 with NRS_ENABLE_SIMD; the TU gets
// -mavx2 -ffp-contract=off.  Every kernel mirrors the scalar backend's
// arithmetic exactly: complex products use the addsub lane order, no FMA
// is emitted, reductions keep the 4-complex-lane blocked accumulation and
// reduce through the shared fixed-order helpers, and all tails fall back
// to the shared per-element code in kernels_detail.h.
#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "phy/kernels/kernels.h"
#include "phy/kernels/kernels_detail.h"

namespace nrs::kernels {
namespace {

namespace d = detail;

const float* fp(const cf32* p) {
  return reinterpret_cast<const float*>(p);
}
float* fp(cf32* p) { return reinterpret_cast<float*>(p); }

/// [w0 w1 w2 w3] -> [w0 w0 w1 w1 w2 w2 w3 w3].
__m256 dup_pairs(__m128 v) {
  const __m256 vv = _mm256_set_m128(v, v);
  const __m256i idx = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  return _mm256_permutevar8x32_ps(vv, idx);
}

const __m256 kSignMask =
    _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
const __m256 kAbsMask =
    _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));

/// a * b, four complex lanes (addsub order: re = ar*br - ai*bi,
/// im = ai*br + ar*bi), with b's real and imaginary parts each spread over
/// both floats of a lane.
__m256 mul_cplx4_parts(__m256 a, __m256 br, __m256 bi) {
  const __m256 t1 = _mm256_mul_ps(a, br);
  const __m256 swapped = _mm256_permute_ps(a, 0xB1);
  const __m256 t2 = _mm256_mul_ps(swapped, bi);
  return _mm256_addsub_ps(t1, t2);
}

/// a * b, four complex lanes.
__m256 mul_cplx4(__m256 a, __m256 b) {
  return mul_cplx4_parts(a, _mm256_moveldup_ps(b), _mm256_movehdup_ps(b));
}

/// a * conj(b): re = ar*br + ai*bi, im = ai*br - ar*bi.
__m256 mul_conj4(__m256 a, __m256 b) {
  const __m256 t1 = _mm256_mul_ps(a, _mm256_moveldup_ps(b));
  const __m256 swapped = _mm256_permute_ps(a, 0xB1);
  const __m256 t2 = _mm256_mul_ps(swapped, _mm256_movehdup_ps(b));
  return _mm256_addsub_ps(t1, _mm256_xor_ps(t2, kSignMask));
}

/// Sign-flip mask (0x80000000 where bits[i] != 0) from 8 scramble bytes.
__m256 byte_sign_mask(const std::uint8_t* bits) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bits));
  const __m256i wide = _mm256_cvtepu8_epi32(bytes);
  const __m256i nonzero =
      _mm256_cmpgt_epi32(wide, _mm256_setzero_si256());
  return _mm256_and_ps(_mm256_castsi256_ps(nonzero), kSignMask);
}

void corr_energy_real_avx2(const cf32* a, const float* w, std::size_t n,
                           cf32* corr, float* energy) {
  __m256 accc = _mm256_setzero_ps();
  __m256 acce = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(fp(a + i));
    const __m256 wd = dup_pairs(_mm_loadu_ps(w + i));
    accc = _mm256_add_ps(accc, _mm256_mul_ps(v, wd));
    acce = _mm256_add_ps(acce, _mm256_mul_ps(v, v));
  }
  d::CorrAcc acc;
  _mm256_storeu_ps(acc.c, accc);
  _mm256_storeu_ps(acc.e, acce);
  for (; i < n; ++i) {
    d::corr_acc_element(acc, a[i], w[i], i % 4);
  }
  *corr = d::reduce_lanes_cplx(acc.c);
  *energy = d::reduce_lanes(acc.e);
}

float energy_avx2(const cf32* a, std::size_t n) {
  __m256 acce = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(fp(a + i));
    acce = _mm256_add_ps(acce, _mm256_mul_ps(v, v));
  }
  float e[8];
  _mm256_storeu_ps(e, acce);
  for (; i < n; ++i) {
    const std::size_t lane = i % 4;
    e[2 * lane] += a[i].real() * a[i].real();
    e[2 * lane + 1] += a[i].imag() * a[i].imag();
  }
  return d::reduce_lanes(e);
}

void cx_mul_conj_scale_avx2(const cf32* a, const cf32* b, float s, cf32* out,
                            std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 va = _mm256_loadu_ps(fp(a + i));
    const __m256 vb = _mm256_loadu_ps(fp(b + i));
    _mm256_storeu_ps(fp(out + i), _mm256_mul_ps(mul_conj4(va, vb), sv));
  }
  for (; i < n; ++i) {
    out[i] = d::mul_conj_scale(a[i], b[i], s);
  }
}

/// One complex value in all four lanes.
__m256 broadcast_cplx(const cf32* p) {
  return _mm256_castpd_ps(
      _mm256_broadcast_sd(reinterpret_cast<const double*>(p)));
}

/// One radix-2 butterfly on four lanes: lo = e + o*w, hi = e - o*w.
void butterfly4(__m256 e, __m256 o, __m256 w, __m256& lo, __m256& hi) {
  const __m256 p = mul_cplx4(o, w);
  lo = _mm256_add_ps(e, p);
  hi = _mm256_sub_ps(e, p);
}

// Stockham passes (index layout in kernels_detail.h).  A pass runs two
// stages in registers; every butterfly reads the operands and twiddle
// the scalar stage gives it.  Within a stage of r >= 4 sub-transforms
// per butterfly index, s runs over contiguous points under one broadcast
// twiddle.

/// Stages h and 2h in one pass, r = n / (2h) >= 8.  Stage h's butterflies
/// (k, s) and (k, s + r/2) feed stage 2h's butterflies k (their lo
/// outputs) and k + h (their hi outputs) at point s.
void fft_pass_pair(const cf32* in, cf32* out, const cf32* tw, std::size_t n,
                   std::size_t half) {
  const std::size_t r = n / (2 * half);
  const std::size_t q = r / 2;  // stage 2h's r
  const cf32* row1 = tw + (half - 1);
  const cf32* row2 = tw + (2 * half - 1);
  for (std::size_t k = 0; k < half; ++k) {
    const __m256 w1 = broadcast_cplx(row1 + k);
    const __m256 w2_lo = broadcast_cplx(row2 + k);
    const __m256 w2_hi = broadcast_cplx(row2 + k + half);
    const float* a = fp(in + 2 * k * r);
    float* c_lo = fp(out + k * q);
    float* c_hi = fp(out + (k + half) * q);
    for (std::size_t s = 0; s < 2 * q; s += 8) {
      __m256 lo0;
      __m256 hi0;
      __m256 lo1;
      __m256 hi1;
      butterfly4(_mm256_loadu_ps(a + s), _mm256_loadu_ps(a + 2 * r + s), w1,
                 lo0, hi0);
      butterfly4(_mm256_loadu_ps(a + 2 * q + s),
                 _mm256_loadu_ps(a + 2 * r + 2 * q + s), w1, lo1, hi1);
      __m256 c0;
      __m256 c1;
      __m256 c2;
      __m256 c3;
      butterfly4(lo0, lo1, w2_lo, c0, c1);
      butterfly4(hi0, hi1, w2_hi, c2, c3);
      _mm256_storeu_ps(c_lo + s, c0);
      _mm256_storeu_ps(c_lo + n + s, c1);
      _mm256_storeu_ps(c_hi + s, c2);
      _mm256_storeu_ps(c_hi + n + s, c3);
    }
  }
}

/// The last two stages (r = 2 and r = 1) in one pass, four butterfly
/// indices k of stage n/4 per step, n >= 16.  Index k's four inputs
/// (even, even, odd, odd at s = 0, 1) are contiguous, so a 4x4 transpose
/// of complex values gathers them per lane.  Stage n/2 then combines k's
/// two lo outputs (butterfly k) and its two hi outputs (butterfly
/// k + n/4).  With `normalize` every output is multiplied by 1/n.
void fft_pass_last(const cf32* in, cf32* out, const cf32* tw, std::size_t n,
                   bool normalize) {
  const std::size_t quarter = n / 4;
  const cf32* row1 = tw + (quarter - 1);
  const cf32* row2 = tw + (2 * quarter - 1);
  const __m256 inv_n = _mm256_set1_ps(1.0f / static_cast<float>(n));
  for (std::size_t k = 0; k < quarter; k += 4) {
    const auto* src = reinterpret_cast<const double*>(in + 4 * k);
    const __m256d v0 = _mm256_loadu_pd(src);
    const __m256d v1 = _mm256_loadu_pd(src + 4);
    const __m256d v2 = _mm256_loadu_pd(src + 8);
    const __m256d v3 = _mm256_loadu_pd(src + 12);
    const __m256d t0 = _mm256_unpacklo_pd(v0, v1);
    const __m256d t1 = _mm256_unpackhi_pd(v0, v1);
    const __m256d t2 = _mm256_unpacklo_pd(v2, v3);
    const __m256d t3 = _mm256_unpackhi_pd(v2, v3);
    const __m256 e0 = _mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x20));
    const __m256 o0 = _mm256_castpd_ps(_mm256_permute2f128_pd(t0, t2, 0x31));
    const __m256 e1 = _mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x20));
    const __m256 o1 = _mm256_castpd_ps(_mm256_permute2f128_pd(t1, t3, 0x31));
    const __m256 w1 = _mm256_loadu_ps(fp(row1 + k));
    __m256 lo0;
    __m256 hi0;
    __m256 lo1;
    __m256 hi1;
    butterfly4(e0, o0, w1, lo0, hi0);
    butterfly4(e1, o1, w1, lo1, hi1);
    __m256 c[4];
    butterfly4(lo0, lo1, _mm256_loadu_ps(fp(row2 + k)), c[0], c[2]);
    butterfly4(hi0, hi1, _mm256_loadu_ps(fp(row2 + k + quarter)), c[1],
               c[3]);
    for (int j = 0; j < 4; ++j) {
      const __m256 v = normalize ? _mm256_mul_ps(c[j], inv_n) : c[j];
      _mm256_storeu_ps(fp(out + k + j * quarter), v);
    }
  }
}

void fft_avx2(const cf32* in, cf32* out, cf32* scratch, const cf32* tw,
              std::size_t n, bool normalize) {
  if (n < 16) {  // under four butterflies per stage and lane group
    d::fft_radix2(in, out, scratch, tw, n, normalize);
    return;
  }
  // The first stage alone when the stages before the last two are odd in
  // number (32, 128, 512 and 2048 points; it runs scalar), then pairs of
  // stages while stage 2h's r >= 4, then the last two; the passes
  // ping-pong so the last lands in `out`.
  const int paired = std::countr_zero(n) - 2;
  const int passes = paired % 2 + paired / 2 + 1;
  const cf32* src = in;
  cf32* dst = passes % 2 == 1 ? out : scratch;
  const auto next = [&] {
    src = dst;
    dst = dst == out ? scratch : out;
  };
  std::size_t half = 1;
  if (paired % 2 == 1) {
    d::stockham_stage<false>(src, dst, tw, n, 1);
    next();
    half = 2;
  }
  for (; 16 * half <= n; half *= 4) {
    fft_pass_pair(src, dst, tw, n, half);
    next();
  }
  fft_pass_last(src, dst, tw, n, normalize);
}

void eq_qpsk_llr_avx2(const cf32* rx, const cf32* h, float k, float* out,
                      std::size_t n) {
  const __m256 kv = _mm256_set1_ps(k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 vrx = _mm256_loadu_ps(fp(rx + i));
    const __m256 vh = _mm256_loadu_ps(fp(h + i));
    _mm256_storeu_ps(out + 2 * i,
                     _mm256_mul_ps(mul_conj4(vrx, vh), kv));
  }
  for (; i < n; ++i) {
    d::eq_qpsk_llr_one(rx[i], h[i], k, out + 2 * i);
  }
}

void qam_llr_avx2(const cf32* syms, std::size_t n, unsigned per_axis,
                  float a, float scale, float* out) {
  const unsigned qm = 2 * per_axis;
  const __m256 sv = _mm256_set1_ps(scale);
  std::size_t s = 0;
  if (per_axis == 1) {
    for (; s + 4 <= n; s += 4) {
      const __m256 v = _mm256_loadu_ps(fp(syms + s));
      _mm256_storeu_ps(out + 2 * s, _mm256_mul_ps(v, sv));
    }
  } else {
    float tmp[4][8];
    for (; s + 4 <= n; s += 4) {
      __m256 m = _mm256_loadu_ps(fp(syms + s));
      for (unsigned k = 0; k < per_axis; ++k) {
        _mm256_storeu_ps(tmp[k], _mm256_mul_ps(m, sv));
        const float level =
            a * static_cast<float>(1u << (per_axis - 1 - k));
        m = _mm256_sub_ps(_mm256_set1_ps(level),
                          _mm256_and_ps(m, kAbsMask));
      }
      for (unsigned j = 0; j < 4; ++j) {
        float* dst = out + (s + j) * qm;
        for (unsigned k = 0; k < per_axis; ++k) {
          dst[2 * k] = tmp[k][2 * j];
          dst[2 * k + 1] = tmp[k][2 * j + 1];
        }
      }
    }
  }
  for (; s < n; ++s) {
    d::qam_llr_one(syms[s], per_axis, a, scale, out + s * qm);
  }
}

void descramble_avx2(float* llrs, const std::uint8_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = byte_sign_mask(bits + i);
    const __m256 v = _mm256_loadu_ps(llrs + i);
    _mm256_storeu_ps(llrs + i, _mm256_xor_ps(v, mask));
  }
  for (; i < n; ++i) {
    llrs[i] = d::descramble_one(llrs[i], bits[i]);
  }
}

void polar_f_avx2(const float* a, const float* b, float* out,
                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256 sign =
        _mm256_and_ps(_mm256_xor_ps(va, vb), kSignMask);
    // min_ps(x, y) is x < y ? x : y, so (|b|, |a|) is std::min(|a|, |b|)
    // exactly, NaN operands included.
    const __m256 m = _mm256_min_ps(_mm256_and_ps(vb, kAbsMask),
                                   _mm256_and_ps(va, kAbsMask));
    _mm256_storeu_ps(out + i, _mm256_or_ps(m, sign));
  }
  for (; i < n; ++i) {
    out[i] = d::polar_f_one(a[i], b[i]);
  }
}

void polar_g_avx2(const float* a, const float* b, const std::uint8_t* x,
                  float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = byte_sign_mask(x + i);
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    _mm256_storeu_ps(out + i, _mm256_add_ps(vb, _mm256_xor_ps(va, mask)));
  }
  for (; i < n; ++i) {
    out[i] = d::polar_g_one(a[i], b[i], x[i]);
  }
}

void polar_combine_avx2(std::uint8_t* x, const std::uint8_t* c,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<__m256i*>(x + i));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i),
                        _mm256_xor_si256(vx, vc));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + n + i), vc);
  }
  for (; i < n; ++i) {
    x[i] = static_cast<std::uint8_t>(x[i] ^ c[i]);
    x[n + i] = c[i];
  }
}

/// Lanes below k (k < 8) set, the rest clear.
__m256i first_lanes(std::size_t k) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(k)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Lane input `in`'s root values at positions [i, i + 8) (see
/// KernelTable::polar_interleave), each as d::polar_root_one computes it.
/// A copy that ends past e is read under a mask and adds +0 where it has
/// no value, which leaves the sum as it was: a sum started from +0 is
/// never -0, and a NaN stays the same NaN.
__m256 polar_root8(const float* in, std::size_t e, std::size_t n,
                   __m256 shortened, std::size_t i) {
  if (e >= n) {
    __m256 v = _mm256_setzero_ps();
    for (std::size_t j = i; j < e; j += n) {
      const __m256 copy = j + 8 <= e
                              ? _mm256_loadu_ps(in + j)
                              : _mm256_maskload_ps(in + j, first_lanes(e - j));
      v = _mm256_add_ps(v, copy);
    }
    return v;
  }
  if (i + 8 <= e) {
    return _mm256_loadu_ps(in + i);
  }
  if (i >= e) {
    return shortened;
  }
  const __m256i mask = first_lanes(e - i);
  return _mm256_blendv_ps(shortened, _mm256_maskload_ps(in + i, mask),
                          _mm256_castsi256_ps(mask));
}

/// Lanes first to first + 3 of the root block at positions [i, i + 8)
/// (zero rows past `lanes`), transposed: s[j] holds positions i + j and
/// i + j + 4, four lanes each.  `ok` keeps the positions whose values are
/// all within +-bound (an ordered compare, so a NaN clears them).
void polar_rows4(const float* const* in, std::size_t lanes, std::size_t first,
                 std::size_t e, std::size_t n, __m256 shortened, __m256 bound,
                 std::size_t i, __m256& ok, __m256 s[4]) {
  __m256 r[4];
  for (std::size_t k = 0; k < 4; ++k) {
    if (first + k < lanes) {
      r[k] = polar_root8(in[first + k], e, n, shortened, i);
      ok = _mm256_and_ps(ok, _mm256_cmp_ps(_mm256_and_ps(r[k], kAbsMask),
                                           bound, _CMP_LE_OQ));
    } else {
      r[k] = _mm256_setzero_ps();
    }
  }
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  s[0] = _mm256_shuffle_ps(t0, t2, 0x44);
  s[1] = _mm256_shuffle_ps(t0, t2, 0xEE);
  s[2] = _mm256_shuffle_ps(t1, t3, 0x44);
  s[3] = _mm256_shuffle_ps(t1, t3, 0xEE);
}

/// The rows of positions [i, i + 8) at dst, `lanes` floats per position.
/// Each position is stored as four floats (kWide: eight) from the first of
/// its lanes, in position order, so a store's values past its lanes are
/// overwritten by the next position's; the last one spills past the block.
template <bool kWide>
void polar_block8(const float* const* in, std::size_t lanes, std::size_t e,
                  std::size_t n, __m256 shortened, __m256 bound,
                  std::size_t i, __m256& ok, float* dst) {
  __m256 s[4];
  polar_rows4(in, lanes, 0, e, n, shortened, bound, i, ok, s);
  if constexpr (kWide) {
    __m256 t[4];
    polar_rows4(in, lanes, 4, e, n, shortened, bound, i, ok, t);
    for (std::size_t p = 0; p < 4; ++p) {
      _mm256_storeu_ps(dst + p * lanes,
                       _mm256_permute2f128_ps(s[p], t[p], 0x20));
    }
    for (std::size_t p = 0; p < 4; ++p) {
      _mm256_storeu_ps(dst + (p + 4) * lanes,
                       _mm256_permute2f128_ps(s[p], t[p], 0x31));
    }
  } else {
    for (std::size_t p = 0; p < 4; ++p) {
      _mm_storeu_ps(dst + p * lanes, _mm256_castps256_ps128(s[p]));
    }
    for (std::size_t p = 0; p < 4; ++p) {
      _mm_storeu_ps(dst + (p + 4) * lanes, _mm256_extractf128_ps(s[p], 1));
    }
  }
}

/// Eight positions per step, the lanes' rows transposed in registers (two
/// 4 x 8 transposes above four lanes).  The last block goes through a
/// local buffer when its final store would spill past the root.
template <bool kWide>
bool polar_interleave_blocks(const float* const* in, std::size_t lanes,
                             std::size_t e, std::size_t n, float shortened,
                             float bound, float* root) {
  constexpr std::size_t kStore = kWide ? 8 : 4;
  const __m256 fill = _mm256_set1_ps(shortened);
  const __m256 limit = _mm256_set1_ps(bound);
  __m256 ok = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  for (std::size_t i = 0; i < n; i += 8) {
    if (i + 8 < n || kStore == lanes) {
      polar_block8<kWide>(in, lanes, e, n, fill, limit, i, ok,
                          root + i * lanes);
    } else {
      float last[7 * 8 + kStore];
      polar_block8<kWide>(in, lanes, e, n, fill, limit, i, ok, last);
      std::copy(last, last + 8 * lanes, root + i * lanes);
    }
  }
  const bool all_ok = _mm256_movemask_ps(ok) == 0xFF;
  _mm256_zeroupper();
  return all_ok;
}

bool polar_interleave_avx2(const float* const* in, std::size_t lanes,
                           std::size_t e, std::size_t n, float shortened,
                           float bound, float* root) {
  return lanes > 4 ? polar_interleave_blocks<true>(in, lanes, e, n,
                                                   shortened, bound, root)
                   : polar_interleave_blocks<false>(in, lanes, e, n,
                                                    shortened, bound, root);
}

/// The multipath FIR (see kernels_detail.h), sixteen outputs per step from
/// the buffer's end while every tap reaches inside the buffer: the step's
/// four accumulators take each tap's product in tap order and are stored
/// after the last tap, so the step reads only unmodified inputs.  The
/// first outputs, where some taps would reach before x[0], run scalar.
void multipath_avx2(cf32* x, std::size_t n, const cf32* gains,
                    const unsigned* delays, std::size_t n_taps) {
  constexpr std::size_t kStep = 16;
  std::size_t reach = 0;
  for (std::size_t t = 0; t < n_taps; ++t) {
    reach = std::max<std::size_t>(reach, delays[t]);
  }
  std::size_t i = n;
  for (; i >= reach + kStep; i -= kStep) {
    float* out = fp(x + i - kStep);
    // Four named accumulators, not an array: GCC at -O2 keeps an array on
    // the stack and chains every add through a store.
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const float* g = fp(gains + t);
      const __m256 gr = _mm256_broadcast_ss(g);
      const __m256 gi = _mm256_broadcast_ss(g + 1);
      const float* in = out - 2 * std::size_t{delays[t]};
      acc0 = _mm256_add_ps(acc0,
                           mul_cplx4_parts(_mm256_loadu_ps(in), gr, gi));
      acc1 = _mm256_add_ps(acc1,
                           mul_cplx4_parts(_mm256_loadu_ps(in + 8), gr, gi));
      acc2 = _mm256_add_ps(acc2,
                           mul_cplx4_parts(_mm256_loadu_ps(in + 16), gr, gi));
      acc3 = _mm256_add_ps(acc3,
                           mul_cplx4_parts(_mm256_loadu_ps(in + 24), gr, gi));
    }
    _mm256_storeu_ps(out, acc0);
    _mm256_storeu_ps(out + 8, acc1);
    _mm256_storeu_ps(out + 16, acc2);
    _mm256_storeu_ps(out + 24, acc3);
  }
  d::multipath_fir(x, i, gains, delays, n_taps);
}

// --- counter-based AWGN: eight Philox blocks (sixteen samples) per step,
// each operation a lane-wise copy of the shared scalar sequence.

/// lo/hi 32-bit halves of m * c for all eight lanes.
void mulhilo8(__m256i c, __m256i m, __m256i& lo, __m256i& hi) {
  const __m256i even = _mm256_mul_epu32(c, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(c, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

__m256 awgn_uniform8(__m256i w) {
  return _mm256_mul_ps(
      _mm256_add_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(w, 1)),
                    _mm256_set1_ps(0.5f)),
      _mm256_set1_ps(0x1p-31f));
}

__m256 awgn_log8(__m256 u) {
  const __m256i bits = _mm256_castps_si256(u);
  __m256i e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23),
                               _mm256_set1_epi32(126));
  __m256 m = _mm256_castsi256_ps(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x007FFFFF)),
      _mm256_set1_epi32(0x3F000000)));
  const __m256 below =
      _mm256_cmp_ps(m, _mm256_set1_ps(d::kLogSqrtHalf), _CMP_LT_OQ);
  const __m256 tmp = _mm256_and_ps(below, m);
  e = _mm256_add_epi32(e, _mm256_castps_si256(below));  // mask is -1
  m = _mm256_sub_ps(m, _mm256_set1_ps(1.0f));
  m = _mm256_add_ps(m, tmp);
  const __m256 z = _mm256_mul_ps(m, m);
  __m256 y = _mm256_set1_ps(d::kLogP[0]);
  for (int k = 1; k < 9; ++k) {
    y = _mm256_add_ps(_mm256_mul_ps(y, m), _mm256_set1_ps(d::kLogP[k]));
  }
  y = _mm256_mul_ps(y, m);
  y = _mm256_mul_ps(y, z);
  const __m256 fe = _mm256_cvtepi32_ps(e);
  y = _mm256_add_ps(y, _mm256_mul_ps(fe, _mm256_set1_ps(d::kLogQ1)));
  y = _mm256_add_ps(y, _mm256_mul_ps(z, _mm256_set1_ps(-0.5f)));
  __m256 x = _mm256_add_ps(m, y);
  x = _mm256_add_ps(x, _mm256_mul_ps(fe, _mm256_set1_ps(d::kLogQ2)));
  return x;
}

void awgn_direction8(__m256i w, __m256& c, __m256& s) {
  const __m256i m = _mm256_srli_epi32(w, 8);
  const __m256i q = _mm256_srli_epi32(m, 22);
  const __m256 x = _mm256_add_ps(
      _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_and_si256(
                        m, _mm256_set1_epi32(0x3FFFFF))),
                    _mm256_set1_ps(d::kAngleStep)),
      _mm256_set1_ps(d::kAngleOffset));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 sp = _mm256_set1_ps(d::kSinP[0]);
  sp = _mm256_add_ps(_mm256_mul_ps(sp, z), _mm256_set1_ps(d::kSinP[1]));
  sp = _mm256_add_ps(_mm256_mul_ps(sp, z), _mm256_set1_ps(d::kSinP[2]));
  sp = _mm256_mul_ps(sp, z);
  sp = _mm256_mul_ps(sp, x);
  sp = _mm256_add_ps(sp, x);
  __m256 cp = _mm256_set1_ps(d::kCosP[0]);
  cp = _mm256_add_ps(_mm256_mul_ps(cp, z), _mm256_set1_ps(d::kCosP[1]));
  cp = _mm256_add_ps(_mm256_mul_ps(cp, z), _mm256_set1_ps(d::kCosP[2]));
  cp = _mm256_mul_ps(cp, z);
  cp = _mm256_mul_ps(cp, z);
  cp = _mm256_sub_ps(cp, _mm256_mul_ps(z, _mm256_set1_ps(0.5f)));
  cp = _mm256_add_ps(cp, _mm256_set1_ps(1.0f));
  const __m256 swap = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(q, _mm256_set1_epi32(1)), _mm256_set1_epi32(1)));
  const __m256 a = _mm256_blendv_ps(cp, sp, swap);
  const __m256 b = _mm256_blendv_ps(sp, cp, swap);
  const __m256i flip_c =
      _mm256_slli_epi32(_mm256_xor_si256(q, _mm256_srli_epi32(q, 1)), 31);
  const __m256i flip_s = _mm256_slli_epi32(_mm256_srli_epi32(q, 1), 31);
  c = _mm256_xor_ps(a, _mm256_castsi256_ps(flip_c));
  s = _mm256_xor_ps(b, _mm256_castsi256_ps(flip_s));
}

/// sigma * Box-Muller pairs for eight samples: (re, im) in SoA lanes.
void awgn_pairs8(__m256i w_radius, __m256i w_angle, __m256 sigma,
                 __m256& re, __m256& im) {
  const __m256 l = awgn_log8(awgn_uniform8(w_radius));
  const __m256 r = _mm256_mul_ps(
      _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0f), l)), sigma);
  __m256 c;
  __m256 s;
  awgn_direction8(w_angle, c, s);
  re = _mm256_mul_ps(r, c);
  im = _mm256_mul_ps(r, s);
}

/// The ten round keys of one Philox4x32-10 key, broadcast once per call.
struct PhiloxKeys8 {
  __m256i k0[d::kPhiloxRounds];
  __m256i k1[d::kPhiloxRounds];
};

PhiloxKeys8 philox_keys8(std::uint64_t key) {
  PhiloxKeys8 keys;
  auto k0 = static_cast<std::uint32_t>(key);
  auto k1 = static_cast<std::uint32_t>(key >> 32);
  for (int round = 0; round < d::kPhiloxRounds; ++round) {
    if (round > 0) {
      k0 += d::kPhiloxW0;
      k1 += d::kPhiloxW1;
    }
    keys.k0[round] = _mm256_set1_epi32(static_cast<int>(k0));
    keys.k1[round] = _mm256_set1_epi32(static_cast<int>(k1));
  }
  return keys;
}

/// Counters of the eight blocks holding samples [index, index + 16) of
/// `slot`, `index` even: c[j] is word j of each lane's block.
void awgn_counters8(std::uint64_t index, std::uint64_t slot, __m256i c[4]) {
  const auto pair = static_cast<std::uint32_t>(index >> 1);
  c[0] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(pair)),
                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  c[1] = _mm256_set1_epi32(static_cast<int>(slot));
  c[2] = _mm256_set1_epi32(static_cast<int>(slot >> 32));
  c[3] = _mm256_setzero_si256();
}

/// One Philox round over eight blocks.
void philox_round8(__m256i c[4], __m256i k0, __m256i k1) {
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(d::kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(d::kPhiloxM1));
  __m256i lo0;
  __m256i hi0;
  __m256i lo1;
  __m256i hi1;
  mulhilo8(c[0], m0, lo0, hi0);
  mulhilo8(c[2], m1, lo1, hi1);
  const __m256i n0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c[1]), k0);
  const __m256i n2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c[3]), k1);
  c[0] = n0;
  c[1] = lo1;
  c[2] = n2;
  c[3] = lo0;
}

/// x[0, 16) += the noise of the eight finished blocks `c`.
void awgn_add16(cf32* x, const __m256i c[4], __m256 sigma) {
  // Lane k is pair `pair + k`: the even sample takes words 0-1, the odd
  // one words 2-3.
  __m256 even_re;
  __m256 even_im;
  __m256 odd_re;
  __m256 odd_im;
  awgn_pairs8(c[0], c[1], sigma, even_re, even_im);
  awgn_pairs8(c[2], c[3], sigma, odd_re, odd_im);
  // SoA -> interleaved complex in sample order E0 O0 E1 O1 ... E7 O7.
  const __m256d a = _mm256_castps_pd(_mm256_unpacklo_ps(even_re, even_im));
  const __m256d b = _mm256_castps_pd(_mm256_unpackhi_ps(even_re, even_im));
  const __m256d c2 = _mm256_castps_pd(_mm256_unpacklo_ps(odd_re, odd_im));
  const __m256d dd = _mm256_castps_pd(_mm256_unpackhi_ps(odd_re, odd_im));
  const __m256d p0 = _mm256_unpacklo_pd(a, c2);  // E0 O0 | E4 O4
  const __m256d p1 = _mm256_unpackhi_pd(a, c2);  // E1 O1 | E5 O5
  const __m256d p2 = _mm256_unpacklo_pd(b, dd);  // E2 O2 | E6 O6
  const __m256d p3 = _mm256_unpackhi_pd(b, dd);  // E3 O3 | E7 O7
  const __m256 noise[4] = {
      _mm256_castpd_ps(_mm256_permute2f128_pd(p0, p1, 0x20)),
      _mm256_castpd_ps(_mm256_permute2f128_pd(p2, p3, 0x20)),
      _mm256_castpd_ps(_mm256_permute2f128_pd(p0, p1, 0x31)),
      _mm256_castpd_ps(_mm256_permute2f128_pd(p2, p3, 0x31))};
  float* out = fp(x);
  for (int k = 0; k < 4; ++k) {
    _mm256_storeu_ps(out + 8 * k,
                     _mm256_add_ps(_mm256_loadu_ps(out + 8 * k), noise[k]));
  }
}

void awgn_add_avx2(cf32* x, std::size_t n, std::uint64_t key,
                   std::uint64_t slot, std::uint64_t first, float sigma) {
  std::size_t i = 0;
  if (n > 0 && (first & 1) != 0) {
    d::awgn_add_range(x, 1, key, slot, first, sigma);  // odd start
    i = 1;
  }
  const PhiloxKeys8 keys = philox_keys8(key);
  const __m256 sv = _mm256_set1_ps(sigma);
  // Four independent 16-sample steps per iteration, their rounds
  // interleaved so one step's multiplies hide another's latency.
  for (; i + 64 <= n; i += 64) {
    __m256i c[4][4];
    for (int s = 0; s < 4; ++s) {
      awgn_counters8(first + i + 16 * s, slot, c[s]);
    }
    for (int round = 0; round < d::kPhiloxRounds; ++round) {
      for (int s = 0; s < 4; ++s) {
        philox_round8(c[s], keys.k0[round], keys.k1[round]);
      }
    }
    for (int s = 0; s < 4; ++s) {
      awgn_add16(x + i + 16 * s, c[s], sv);
    }
  }
  for (; i + 16 <= n; i += 16) {
    __m256i c[4];
    awgn_counters8(first + i, slot, c);
    for (int round = 0; round < d::kPhiloxRounds; ++round) {
      philox_round8(c, keys.k0[round], keys.k1[round]);
    }
    awgn_add16(x + i, c, sv);
  }
  // GCC emits no vzeroupper on this path (its helpers take 256-bit
  // arguments); dirty upper halves would slow every legacy-SSE
  // instruction the caller runs next.
  _mm256_zeroupper();
  d::awgn_add_range(x + i, n - i, key, slot, first + i, sigma);
}

void viterbi_acs_avx2(const float* metric, float la, float lb,
                      const float* ca0, const float* cb0, const float* ca1,
                      const float* cb1, const std::int32_t* sv0,
                      const std::int32_t* sv1, bool tail, float* next,
                      std::int32_t* surv) {
  const __m256 la8 = _mm256_set1_ps(la);
  const __m256 lb8 = _mm256_set1_ps(lb);
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const __m256 neginf = _mm256_set1_ps(kNegInf);
  const __m256 oddmask = _mm256_castsi256_ps(
      _mm256_setr_epi32(0, -1, 0, -1, 0, -1, 0, -1));
  for (std::size_t base = 0; base < kViterbiStates; base += 8) {
    const __m256 pred0 = dup_pairs(_mm_loadu_ps(metric + base / 2));
    const __m256 pred1 = dup_pairs(_mm_loadu_ps(metric + 32 + base / 2));
    const __m256 bm0 =
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(ca0 + base), la8),
                      _mm256_mul_ps(_mm256_loadu_ps(cb0 + base), lb8));
    const __m256 bm1 =
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(ca1 + base), la8),
                      _mm256_mul_ps(_mm256_loadu_ps(cb1 + base), lb8));
    const __m256 m0 = _mm256_add_ps(pred0, bm0);
    const __m256 m1 = _mm256_add_ps(pred1, bm1);
    const __m256 take1 = _mm256_cmp_ps(m1, m0, _CMP_GT_OQ);
    __m256 vnext = _mm256_blendv_ps(m0, m1, take1);
    if (tail) {
      vnext = _mm256_blendv_ps(vnext, neginf, oddmask);
    }
    _mm256_storeu_ps(next + base, vnext);
    const __m256 s0 = _mm256_castsi256_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sv0 + base)));
    const __m256 s1 = _mm256_castsi256_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sv1 + base)));
    const __m256 sel = _mm256_blendv_ps(s0, s1, take1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(surv + base),
                        _mm256_castps_si256(sel));
  }
}

const KernelTable kAvx2Table = {
    .isa = Isa::kAvx2,
    .corr_energy_real = corr_energy_real_avx2,
    .energy = energy_avx2,
    .cx_mul_conj_scale = cx_mul_conj_scale_avx2,
    .fft = fft_avx2,
    .eq_qpsk_llr = eq_qpsk_llr_avx2,
    .qam_llr = qam_llr_avx2,
    .descramble = descramble_avx2,
    .polar_f = polar_f_avx2,
    .polar_g = polar_g_avx2,
    .polar_combine = polar_combine_avx2,
    .polar_interleave = polar_interleave_avx2,
    .multipath = multipath_avx2,
    .awgn_add = awgn_add_avx2,
    .viterbi_acs = viterbi_acs_avx2,
};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace nrs::kernels

#else  // !defined(__AVX2__)

#include "phy/kernels/kernels.h"

namespace nrs::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace nrs::kernels

#endif
