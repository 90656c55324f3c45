#include "phy/polar.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "phy/kernels/kernels.h"
#include "phy/kernels/kernels_detail.h"

namespace nrs {
namespace {

/// LLR value representing a bit known to be zero (shortened positions).
constexpr float kKnownZeroLlr = 1e9f;

/// Below this node size the per-element helpers beat a kernel dispatch.
/// The helpers are the exact code every backend's tail uses, so results
/// are independent of the active ISA.
constexpr std::size_t kKernelCutover = 8;

}  // namespace

std::vector<unsigned> PolarCode::reliability_order(unsigned n) {
  if (!((n & (n - 1)) == 0) || n == 0) {
    throw std::invalid_argument("reliability_order: n must be a power of 2");
  }
  // Beta-expansion (Polarization Weight): w(i) = sum_j b_j(i) * beta^j with
  // beta = 2^(1/4).  Larger weight = more reliable input position.
  const double beta = std::pow(2.0, 0.25);
  std::vector<double> weight(n, 0.0);
  for (unsigned i = 0; i < n; ++i) {
    double w = 0.0;
    double pw = 1.0;
    for (unsigned j = 0; (1u << j) < n; ++j, pw *= beta) {
      if (i & (1u << j)) {
        w += pw;
      }
    }
    weight[i] = w;
  }
  std::vector<unsigned> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return weight[a] < weight[b];
  });
  return order;  // ascending reliability
}

PolarCode::PolarCode(unsigned k, unsigned e) : k_(k), e_(e) {
  if (k == 0 || e == 0) {
    throw std::invalid_argument("PolarCode: zero K or E");
  }
  // Mother code: smallest power of two >= E, capped at kMaxN (then
  // repetition covers the excess).
  n_ = 32;
  while (n_ < e_ && n_ < kMaxN) {
    n_ <<= 1;
  }
  const unsigned shortened = e_ < n_ ? n_ - e_ : 0;
  if (k_ + shortened > n_) {
    throw std::invalid_argument("PolarCode: K too large for E");
  }
  // Choose the K most reliable inputs, excluding the shortened tail
  // [n - shortened, n) whose inputs must stay frozen (known zero).
  const std::vector<unsigned> order = reliability_order(n_);
  info_set_.reserve(k_);
  for (auto it = order.rbegin(); it != order.rend() && info_set_.size() < k_;
       ++it) {
    if (*it < n_ - shortened) {
      info_set_.push_back(*it);
    }
  }
  if (info_set_.size() < k_) {
    throw std::invalid_argument("PolarCode: cannot place info bits");
  }
  std::sort(info_set_.begin(), info_set_.end());
  is_info_.assign(n_, 0);
  for (unsigned idx : info_set_) {
    is_info_[idx] = 1;
  }
  info_prefix_.assign(n_ + 1, 0);
  for (unsigned i = 0; i < n_; ++i) {
    info_prefix_[i + 1] = info_prefix_[i] + is_info_[i];
  }
}

void PolarCode::polar_transform(std::span<std::uint8_t> x) const {
  for (unsigned len = 1; len < n_; len <<= 1) {
    for (unsigned i = 0; i < n_; i += 2 * len) {
      for (unsigned j = 0; j < len; ++j) {
        x[i + j] = static_cast<std::uint8_t>(x[i + j] ^ x[i + j + len]);
      }
    }
  }
}

void PolarCode::encode(std::span<const std::uint8_t> info,
                       PolarScratch& scratch,
                       std::span<std::uint8_t> out) const {
  if (info.size() != k_) {
    throw std::invalid_argument("PolarCode::encode: wrong info length");
  }
  if (out.size() != e_) {
    throw std::invalid_argument("PolarCode::encode: wrong output length");
  }
  if (scratch.u.size() < n_) {
    scratch.u.resize(n_);
  }
  const std::span<std::uint8_t> x(scratch.u.data(), n_);
  std::fill(x.begin(), x.end(), std::uint8_t{0});
  for (unsigned i = 0; i < k_; ++i) {
    x[info_set_[i]] = info[i] & 1;
  }
  polar_transform(x);
  if (e_ >= n_) {
    for (unsigned i = 0; i < e_; ++i) {
      out[i] = x[i % n_];  // repetition
    }
  } else {
    std::copy(x.begin(), x.begin() + e_, out.begin());  // shortening
  }
}

BitVector PolarCode::encode(std::span<const std::uint8_t> info) const {
  PolarScratch scratch;
  BitVector out(e_);
  encode(info, scratch, out);
  return out;
}

void PolarScratch::prepare(std::size_t n) {
  // Grow-only: a scratch shared across (K, E) instances keeps the largest
  // geometry's capacity.  The offsets depend on n, so recompute them into
  // the retained vector (its capacity covers log2(kMaxN)+1 levels after
  // the first call).
  if (mother.size() < n) {
    mother.resize(n);
    u.resize(n);
  }
  if (llr.size() < 2 * n) {
    llr.resize(2 * n);
    x.resize(2 * n);
  }
  offset.clear();
  std::size_t off = 0;
  for (std::size_t len = n; len >= 1; len >>= 1) {
    offset.push_back(off);
    off += len;
  }
}

namespace {

/// Recursive SC over the flat workspace.  `level`'s LLR slice is already
/// filled; decided codeword bits land in `level`'s x slice, input bits in
/// `u` (indexed from `base`).  Node operations dispatch through the SIMD
/// kernel table above the cutover size.
void sc_decode(PolarScratch& ws, const kernels::KernelTable& kt,
               std::size_t n, std::size_t level, std::size_t base,
               std::span<std::uint8_t> u,
               const std::vector<std::uint8_t>& is_info,
               const std::vector<unsigned>& info_prefix) {
  float* llr = ws.llr.data() + ws.offset[level];
  std::uint8_t* x = ws.x.data() + ws.offset[level];
  // Rate-0 pruning: a subtree with no info bits decodes to all zeros no
  // matter what its LLRs say (frozen leaves are 0, XOR-combines of zeros
  // stay zero), so skip its f/g recursion entirely.  This touches no
  // floats, so it cannot perturb scalar/SIMD equivalence.
  if (info_prefix[base + n] == info_prefix[base]) {
    std::fill(u.begin() + static_cast<std::ptrdiff_t>(base),
              u.begin() + static_cast<std::ptrdiff_t>(base + n),
              std::uint8_t{0});
    std::fill(x, x + n, std::uint8_t{0});
    return;
  }
  if (n == 1) {
    const std::uint8_t bit =
        is_info[base] ? static_cast<std::uint8_t>(llr[0] < 0.0f) : 0;
    u[base] = bit;
    x[0] = bit;
    return;
  }
  const std::size_t half = n / 2;
  float* child_llr = ws.llr.data() + ws.offset[level + 1];
  std::uint8_t* child_x = ws.x.data() + ws.offset[level + 1];
  // Left child: LLRs of x_first XOR x_second (min-sum f).
  if (half >= kKernelCutover) {
    kt.polar_f(llr, llr + half, child_llr, half);
  } else {
    for (std::size_t i = 0; i < half; ++i) {
      child_llr[i] = kernels::detail::polar_f_one(llr[i], llr[i + half]);
    }
  }
  sc_decode(ws, kt, half, level + 1, base, u, is_info, info_prefix);
  // Stash the left codeword in the left half of this level's x slice
  // before the right child overwrites the shared child slice.
  for (std::size_t i = 0; i < half; ++i) {
    x[i] = child_x[i];
  }
  // Right child: combine with the left decision (g node).
  if (half >= kKernelCutover) {
    kt.polar_g(llr, llr + half, x, child_llr, half);
  } else {
    for (std::size_t i = 0; i < half; ++i) {
      child_llr[i] =
          kernels::detail::polar_g_one(llr[i], llr[i + half], x[i]);
    }
  }
  sc_decode(ws, kt, half, level + 1, base + half, u, is_info, info_prefix);
  if (half >= kKernelCutover) {
    kt.polar_combine(x, child_x, half);
  } else {
    for (std::size_t i = 0; i < half; ++i) {
      x[i] = static_cast<std::uint8_t>(x[i] ^ child_x[i]);
      x[i + half] = child_x[i];
    }
  }
}

}  // namespace

void PolarCode::decode(std::span<const float> llrs, PolarScratch& scratch,
                       std::span<std::uint8_t> info_out) const {
  if (llrs.size() != e_) {
    throw std::invalid_argument("PolarCode::decode: wrong LLR length");
  }
  if (info_out.size() != k_) {
    throw std::invalid_argument("PolarCode::decode: wrong output length");
  }
  scratch.prepare(n_);
  // Rate dematching into mother-code LLRs.
  float* mother = scratch.mother.data();
  if (e_ >= n_) {
    std::fill(mother, mother + n_, 0.0f);
    for (unsigned i = 0; i < e_; ++i) {
      mother[i % n_] += llrs[i];  // combine repetitions
    }
  } else {
    for (unsigned i = 0; i < e_; ++i) {
      mother[i] = llrs[i];
    }
    for (unsigned i = e_; i < n_; ++i) {
      mother[i] = kKnownZeroLlr;  // shortened bits are known zero
    }
  }
  std::copy(mother, mother + n_, scratch.llr.begin());
  const std::span<std::uint8_t> u(scratch.u.data(), n_);
  sc_decode(scratch, kernels::active(), n_, 0, 0, u, is_info_, info_prefix_);
  for (unsigned i = 0; i < k_; ++i) {
    info_out[i] = u[info_set_[i]];
  }
}

BitVector PolarCode::decode(std::span<const float> llrs) const {
  PolarScratch scratch;
  BitVector info(k_);
  decode(llrs, scratch, std::span(info.data(), info.size()));
  return info;
}

}  // namespace nrs
