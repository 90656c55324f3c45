// Runtime-dispatched SIMD kernel layer for the per-slot PHY inner loops.
//
// Every hot loop in the decode path — the FFT, PSS/SSS correlation,
// LS channel estimation, ZF-equalize + QAM soft demap, descrambling, polar
// rate dematching, polar SC node operations and Viterbi add-compare-select
// — funnels through the function-pointer table below, as does the
// simulated channel (the fading links' multipath FIR and the counter-based
// AWGN).  One implementation
// table exists per ISA (scalar always; AVX2 on x86 when compiled in; NEON on
// ARM) and the active table is chosen exactly once at startup from CPUID,
// overridable with the `NRS_SIMD=off|avx2|neon|auto` environment variable
// and the `select()` testing hook.
//
// Equivalence contract (CI-guarded, see tests/phy/test_kernels.cc): for the
// same inputs every backend produces *bit-identical* outputs.  This is
// achieved by construction:
//   - reductions (correlation, energy) use a fixed 4-complex-lane blocked
//     accumulation; the scalar backend mirrors the SIMD lane assignment and
//     both reduce the lane accumulators in the same fixed order
//     (kernels_detail.h);
//   - elementwise kernels use the exact same operation sequence with FMA
//     contraction disabled (-ffp-contract=off on every backend TU); the
//     multipath FIR sums each sample's taps from +0 in tap order in every
//     backend;
//   - sign manipulation (min-sum, descrambling) is done with IEEE sign-bit
//     arithmetic in all backends, so ±0 behaves identically;
//   - the AWGN kernel's log, sine and cosine are the same polynomial
//     sequence in every backend and its sqrt is IEEE-rounded.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace nrs::kernels {

enum class Isa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

const char* to_string(Isa isa);

/// Number of trellis states of the rate-1/2 K=7 convolutional code; the
/// viterbi_acs kernel is specialized to this width.
inline constexpr std::size_t kViterbiStates = 64;

/// One ISA's implementation of every hot-loop primitive.  All pointers are
/// non-null in a registered table.
struct KernelTable {
  Isa isa;

  // --- reductions (blocked 4-complex-lane accumulation) ---------------

  /// corr = sum_i a[i] * w[i] (complex times real weight) and
  /// energy = sum_i |a[i]|^2, in one pass.  Used by PSS/SSS segment
  /// correlation.
  void (*corr_energy_real)(const cf32* a, const float* w, std::size_t n,
                           cf32* corr, float* energy);

  /// sum_i |a[i]|^2 (the PSS search energy gate).
  float (*energy)(const cf32* a, std::size_t n);

  // --- elementwise complex --------------------------------------------

  /// out[i] = s * (a[i] * conj(b[i])).  LS channel estimation:
  /// ls = rx * conj(ref) / |ref|^2 with s = 1/|ref|^2.
  void (*cx_mul_conj_scale)(const cf32* a, const cf32* b, float s, cf32* out,
                            std::size_t n);

  // --- FFT -------------------------------------------------------------

  /// Whole n-point radix-2 DIT FFT (n a power of two), out of place.
  /// Stockham autosort stages ping-pong between `out` and `scratch` (n
  /// points each, neither overlapping `in`, which is only read).  The
  /// stage of half-size h takes twiddles tw[h - 1 + k], k < h (Fft's
  /// per-stage table), and every butterfly is
  ///   p = odd * tw (mul_cplx order);  even + p;  even - p
  /// on the operands of the in-place bit-reversal transform, so the output
  /// is bit-identical to it.  With `normalize` the last stage's outputs are
  /// multiplied by 1/n (the inverse's scaling).
  void (*fft)(const cf32* in, cf32* out, cf32* scratch, const cf32* tw,
              std::size_t n, bool normalize);

  // --- soft demap ------------------------------------------------------

  /// Fused ZF-equalize + QPSK max-log demap with a per-RE channel:
  /// out[2i] = k * Re(rx[i] * conj(h[i])), out[2i+1] = k * Im(...).
  /// (The ZF division by |h|^2 cancels against the effective noise
  /// variance |h|^2 scaling of the LLR, leaving the matched-filter form.)
  void (*eq_qpsk_llr)(const cf32* rx, const cf32* h, float k, float* out,
                      std::size_t n);

  /// Gray-mapped square-QAM max-log demap (Qm = 2*per_axis bits/symbol):
  /// per axis, metric_0 = component; out[s*Qm + 2k + axis] =
  /// scale*metric_k; metric_{k+1} = a*2^{per_axis-1-k} - |metric_k|.
  void (*qam_llr)(const cf32* syms, std::size_t n, unsigned per_axis,
                  float a, float scale, float* out);

  /// llrs[i] = bits[i] ? -llrs[i] : llrs[i] (Gold-sequence descrambling).
  void (*descramble)(float* llrs, const std::uint8_t* bits, std::size_t n);

  // --- polar SC node ops ----------------------------------------------

  /// Min-sum f: out[i] = sign(a[i])*sign(b[i]) * min(|a[i]|, |b[i]|)
  /// with IEEE sign-bit semantics.
  void (*polar_f)(const float* a, const float* b, float* out, std::size_t n);

  /// g: out[i] = b[i] + (x[i] ? -a[i] : a[i]).
  void (*polar_g)(const float* a, const float* b, const std::uint8_t* x,
                  float* out, std::size_t n);

  /// Partial-sum combine: x[i] ^= c[i]; x[n+i] = c[i] for i < n.
  void (*polar_combine)(std::uint8_t* x, const std::uint8_t* c,
                        std::size_t n);

  /// Polar rate dematching of `lanes` codewords (1 to 8) into the
  /// lane-interleaved root of the SC tree: lane l reads e LLRs at in[l],
  /// and for every position i < n (n a power of two, at least 8)
  ///   root[i * lanes + l] = +0 + in[l][i] + in[l][i + n] + ... over the
  ///                         indices below e, in index order, when e >= n
  ///                         (repetition; +0 + -0 is +0);
  ///                       = in[l][i] for i < e, `shortened` for i >= e,
  ///                         when e < n.
  /// Returns true when every root value v has |v| <= bound (so none is
  /// NaN).  The root is written one position row (all lanes) at a time.
  bool (*polar_interleave)(const float* const* in, std::size_t lanes,
                           std::size_t e, std::size_t n, float shortened,
                           float bound, float* root);

  // --- simulated channel -------------------------------------------------

  /// Multipath FIR in place over x[0, n):
  ///   x[i] <- sum over t < n_taps, in tap order from +0, of
  ///           gains[t] * x[i - delays[t]]   (terms with i < delays[t] omitted)
  /// where every x on the right is an input value.  Each product is
  /// (gr*xr - gi*xi, gr*xi + gi*xr), rounded after every operation
  /// (mul_cplx's order, no FMA): what GCC's std::complex<float> product
  /// gives for finite operands, without its __mulsc3 fallback.
  void (*multipath)(cf32* x, std::size_t n, const cf32* gains,
                    const unsigned* delays, std::size_t n_taps);

  /// Counter-based complex AWGN for the simulated channel:
  /// x[i] += sigma * (g_re, g_im), where (g_re, g_im) is the Box-Muller pair
  /// of sample index first + i of `slot` under `key`, drawn from
  /// Philox4x32-10 (key and counter layout in kernels_detail.h).  A
  /// sample's noise depends only on (key, slot, first + i), so the result
  /// does not depend on how a slot is split across calls.
  void (*awgn_add)(cf32* x, std::size_t n, std::uint64_t key,
                   std::uint64_t slot, std::uint64_t first, float sigma);

  // --- Viterbi add-compare-select (64 states) --------------------------

  /// For every next-state ns in [0, 64):
  ///   m0 = metric[ns>>1]        + (ca0[ns]*la + cb0[ns]*lb)
  ///   m1 = metric[(ns>>1) + 32] + (ca1[ns]*la + cb1[ns]*lb)
  ///   next[ns] = max(m0, m1);  surv[ns] = m1 > m0 ? sv1[ns] : sv0[ns]
  /// When `tail` is set, odd next-states (input bit 1) are forced to
  /// -inf — the terminated trellis only shifts in zeros.
  void (*viterbi_acs)(const float* metric, float la, float lb,
                      const float* ca0, const float* cb0, const float* ca1,
                      const float* cb1, const std::int32_t* sv0,
                      const std::int32_t* sv1, bool tail, float* next,
                      std::int32_t* surv);
};

/// The active table.  First call resolves dispatch: `NRS_SIMD` override if
/// set (off/scalar → scalar, avx2/neon → that ISA when available, auto →
/// CPUID pick), otherwise the best ISA the CPU supports.
const KernelTable& active();

/// True when `isa`'s backend is compiled in and the CPU supports it.
bool available(Isa isa);

/// Testing hook: force the active table.  Returns false (and leaves the
/// dispatch unchanged) when the ISA is unavailable.
bool select(Isa isa);

/// The table for one ISA, or nullptr when unavailable.
const KernelTable* table_for(Isa isa);

/// Backends (internal registration; use table_for()).
const KernelTable* scalar_table();
const KernelTable* avx2_table();  // nullptr when not compiled in
const KernelTable* neon_table();  // nullptr when not compiled in

}  // namespace nrs::kernels
