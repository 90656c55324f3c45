// Scalar reference backend.  Every other backend must match this one
// bit-for-bit (see kernels.h for how); the property tests in
// tests/phy/test_kernels.cc enforce it.
#include <cstddef>
#include <cstdint>
#include <limits>

#include "phy/kernels/kernels.h"
#include "phy/kernels/kernels_detail.h"

namespace nrs::kernels {
namespace {

namespace d = detail;

void corr_energy_real_scalar(const cf32* a, const float* w, std::size_t n,
                             cf32* corr, float* energy) {
  d::CorrAcc acc;
  for (std::size_t i = 0; i < n; ++i) {
    d::corr_acc_element(acc, a[i], w[i], i % 4);
  }
  *corr = d::reduce_lanes_cplx(acc.c);
  *energy = d::reduce_lanes(acc.e);
}

float energy_scalar(const cf32* a, std::size_t n) {
  float e[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = i % 4;
    e[2 * lane] += a[i].real() * a[i].real();
    e[2 * lane + 1] += a[i].imag() * a[i].imag();
  }
  return d::reduce_lanes(e);
}

void cx_mul_conj_scale_scalar(const cf32* a, const cf32* b, float s,
                              cf32* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = d::mul_conj_scale(a[i], b[i], s);
  }
}

void eq_qpsk_llr_scalar(const cf32* rx, const cf32* h, float k, float* out,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    d::eq_qpsk_llr_one(rx[i], h[i], k, out + 2 * i);
  }
}

void qam_llr_scalar(const cf32* syms, std::size_t n, unsigned per_axis,
                    float a, float scale, float* out) {
  const unsigned qm = 2 * per_axis;
  for (std::size_t s = 0; s < n; ++s) {
    d::qam_llr_one(syms[s], per_axis, a, scale, out + s * qm);
  }
}

void descramble_scalar(float* llrs, const std::uint8_t* bits,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    llrs[i] = d::descramble_one(llrs[i], bits[i]);
  }
}

void polar_f_scalar(const float* a, const float* b, float* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = d::polar_f_one(a[i], b[i]);
  }
}

void polar_g_scalar(const float* a, const float* b, const std::uint8_t* x,
                    float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = d::polar_g_one(a[i], b[i], x[i]);
  }
}

void polar_combine_scalar(std::uint8_t* x, const std::uint8_t* c,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::uint8_t>(x[i] ^ c[i]);
    x[n + i] = c[i];
  }
}

void awgn_add_scalar(cf32* x, std::size_t n, std::uint64_t key,
                     std::uint64_t slot, std::uint64_t first, float sigma) {
  d::awgn_add_range(x, n, key, slot, first, sigma);
}

void viterbi_acs_scalar(const float* metric, float la, float lb,
                        const float* ca0, const float* cb0, const float* ca1,
                        const float* cb1, const std::int32_t* sv0,
                        const std::int32_t* sv1, bool tail, float* next,
                        std::int32_t* surv) {
  for (std::size_t ns = 0; ns < kViterbiStates; ++ns) {
    d::viterbi_acs_one(metric, la, lb, ca0, cb0, ca1, cb1, sv0, sv1, ns,
                       next, surv);
  }
  if (tail) {
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    for (std::size_t ns = 1; ns < kViterbiStates; ns += 2) {
      next[ns] = kNegInf;
    }
  }
}

constexpr KernelTable kScalarTable = {
    .isa = Isa::kScalar,
    .corr_energy_real = corr_energy_real_scalar,
    .energy = energy_scalar,
    .cx_mul_conj_scale = cx_mul_conj_scale_scalar,
    .fft = d::fft_radix2,
    .eq_qpsk_llr = eq_qpsk_llr_scalar,
    .qam_llr = qam_llr_scalar,
    .descramble = descramble_scalar,
    .polar_f = polar_f_scalar,
    .polar_g = polar_g_scalar,
    .polar_combine = polar_combine_scalar,
    .polar_interleave = d::polar_interleave_rows,
    .multipath = d::multipath_fir,
    .awgn_add = awgn_add_scalar,
    .viterbi_acs = viterbi_acs_scalar,
};

}  // namespace

const KernelTable* scalar_table() { return &kScalarTable; }

}  // namespace nrs::kernels
