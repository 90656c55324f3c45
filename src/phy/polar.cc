#include "phy/polar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "phy/kernels/kernels.h"
#include "phy/kernels/kernels_detail.h"

namespace nrs {
namespace {

/// LLR value representing a bit known to be zero (shortened positions).
constexpr float kKnownZeroLlr = 1e9f;

/// Largest root LLR magnitude a multi-lane batch decodes together.  Below
/// it every tree node's LLR stays finite (a node's LLR is at most the sum
/// of N = 512 root magnitudes, far below FLT_MAX), so no inf - inf and no
/// NaN can arise; far above the ~1e8 the PDCCH demapper can produce.
constexpr float kMaxBatchLlr = 1e30f;

/// The partial sums a repetition node's g runs over: all zero.
constexpr std::uint8_t kZeroBits[PolarCode::kMaxN / 2 *
                                 PolarCode::kMaxLanes] = {};

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
  std::vector<std::uint8_t> is_info(n_, 0);
  for (unsigned idx : info_set_) {
    is_info[idx] = 1;
  }
  info_prefix_.assign(n_ + 1, 0);
  for (unsigned i = 0; i < n_; ++i) {
    info_prefix_[i + 1] = info_prefix_[i] + is_info[i];
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
  // Grow-only and sized for the lane cap: a scratch shared across (K, E)
  // instances keeps the largest geometry's capacity, and a batch of any
  // width then fits without reallocating.
  const std::size_t width = n * PolarCode::kMaxLanes;
  if (u.size() < width) {
    u.resize(width);
  }
  if (llr.size() < 2 * width) {
    llr.resize(2 * width);
    x.resize(2 * width);
  }
}

namespace {

/// Successive cancellation over L lane-interleaved codewords.  A node of
/// size m at tree level j owns m * L LLRs and partial-sum bits starting at
/// its level's slice; its children's slice follows it directly (level
/// j + 1 starts m * L entries later), so the recursion passes pointers.
/// Every f, g and combine covers all L lanes of a node in one sweep, so a
/// node's fixed cost is paid once per batch instead of once per codeword.
class LaneDecoder {
 public:
  LaneDecoder(const kernels::KernelTable& kt,
              const std::vector<unsigned>& info_prefix, std::size_t lanes,
              std::uint8_t* u)
      : kt_(kt), info_prefix_(info_prefix), lanes_(lanes), u_(u) {}

  /// Decode the subtree of inputs [base, base + m) from the m * L LLRs at
  /// `llr`; its codeword bits land in `x`, its input bits in u.  Frozen
  /// inputs are never written: the caller reads info positions only.
  void node(float* llr, std::uint8_t* x, std::size_t base,
            std::size_t m) const {
    const std::size_t width = m * lanes_;
    if (m == 1) {  // an info leaf: parents never descend into frozen ones
      for (std::size_t l = 0; l < lanes_; ++l) {
        const auto bit = static_cast<std::uint8_t>(llr[l] < 0.0f);
        x[l] = bit;
        u_[base * lanes_ + l] = bit;
      }
      return;
    }
    // Repetition node: its only info input is its last.  The recursion
    // fills each left half of the partial sums with zeros, runs g (b + a,
    // as x = 0) down to one value per lane, decides that value and
    // combines the bit into every codeword position.  Run the same g calls
    // and decisions without it.
    if (repetition(base, m)) {
      float* level = llr;
      for (std::size_t size = m; size > 1; size /= 2) {
        const std::size_t hw = size / 2 * lanes_;
        g(level, level + hw, kZeroBits, level + size * lanes_, hw);
        level += size * lanes_;
      }
      std::uint8_t* u = u_ + (base + m - 1) * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) {
        const auto bit = static_cast<std::uint8_t>(level[l] < 0.0f);
        x[l] = bit;
        u[l] = bit;
      }
      for (std::size_t done = lanes_; done < width; done *= 2) {
        std::copy(x, x + done, x + done);
      }
      return;
    }
    // Rate-1 shortcut: with no ±0 and no NaN among the LLRs, f keeps a
    // nonzero magnitude and g adds same-sign values, so by induction the
    // SC codeword is the hard decision of the node's LLRs and its inputs
    // are that codeword's polar transform — exactly what the recursion
    // below would decide.  One dirty lane sends all lanes down the
    // recursion.
    if (info_prefix_[base + m] - info_prefix_[base] == m &&
        hard_decide(llr, x, width)) {
      std::uint8_t* u = u_ + base * lanes_;
      std::copy(x, x + width, u);
      for (std::size_t len = 1; len < m; len <<= 1) {
        for (std::size_t i = 0; i < m; i += 2 * len) {
          std::uint8_t* lo = u + i * lanes_;
          const std::uint8_t* hi = lo + len * lanes_;
          for (std::size_t j = 0; j < len * lanes_; ++j) {
            lo[j] = static_cast<std::uint8_t>(lo[j] ^ hi[j]);
          }
        }
      }
      return;
    }
    const std::size_t half = m / 2;
    const std::size_t hw = half * lanes_;
    float* child_llr = llr + width;
    std::uint8_t* child_x = x + width;
    // Rate-0 pruning: a subtree with no info bits decodes to all zeros no
    // matter what its LLRs say, so its LLRs are never computed.
    if (rate0(base, half)) {
      std::fill(x, x + hw, std::uint8_t{0});
    } else {
      f(llr, llr + hw, child_llr, hw);
      node(child_llr, child_x, base, half);
      // Stash the left codeword in the left half of this node's x before
      // the right child overwrites the shared child slice.
      std::copy(child_x, child_x + hw, x);
    }
    if (rate0(base + half, half)) {
      std::fill(x + hw, x + width, std::uint8_t{0});  // [x_L ^ 0, 0]
      return;
    }
    g(llr, llr + hw, x, child_llr, hw);
    node(child_llr, child_x, base + half, half);
    combine(x, child_x, hw);
  }

 private:
  /// Below this many values the per-element helpers beat a kernel
  /// dispatch.  The helpers are the exact code every backend's tail uses,
  /// so results are independent of the active ISA.
  static constexpr std::size_t kKernelCutover = 8;

  [[nodiscard]] bool rate0(std::size_t base, std::size_t m) const {
    return info_prefix_[base + m] == info_prefix_[base];
  }

  /// Inputs [base, base + m) hold one info bit, the last.
  [[nodiscard]] bool repetition(std::size_t base, std::size_t m) const {
    return info_prefix_[base + m] - info_prefix_[base] == 1 &&
           info_prefix_[base + m - 1] == info_prefix_[base];
  }

  /// x[i] = sign bit of llr[i]; true when no value is ±0 or NaN (then the
  /// sign bit is the SC leaf decision llr < 0).
  static bool hard_decide(const float* llr, std::uint8_t* x,
                          std::size_t n) {
    std::uint32_t dirty = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto bits = std::bit_cast<std::uint32_t>(llr[i]);
      x[i] = static_cast<std::uint8_t>(bits >> 31);
      // |v| - 1 wraps for ±0 and exceeds +inf's pattern for NaN.
      dirty |= static_cast<std::uint32_t>((bits & 0x7FFFFFFFu) - 1u >=
                                          0x7F800000u);
    }
    return dirty == 0;
  }

  void f(const float* a, const float* b, float* out, std::size_t n) const {
    if (n >= kKernelCutover) {
      kt_.polar_f(a, b, out, n);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = kernels::detail::polar_f_one(a[i], b[i]);
    }
  }

  void g(const float* a, const float* b, const std::uint8_t* x, float* out,
         std::size_t n) const {
    if (n >= kKernelCutover) {
      kt_.polar_g(a, b, x, out, n);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = kernels::detail::polar_g_one(a[i], b[i], x[i]);
    }
  }

  void combine(std::uint8_t* x, const std::uint8_t* c, std::size_t n) const {
    if (n >= kKernelCutover) {
      kt_.polar_combine(x, c, n);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<std::uint8_t>(x[i] ^ c[i]);
      x[i + n] = c[i];
    }
  }

  const kernels::KernelTable& kt_;
  const std::vector<unsigned>& info_prefix_;
  std::size_t lanes_;
  std::uint8_t* u_;
};

}  // namespace

void PolarCode::decode_lanes(std::span<const float* const> llrs,
                             PolarScratch& scratch,
                             std::span<std::uint8_t* const> info_out) const {
  const std::size_t lanes = llrs.size();
  if (lanes == 0 || lanes > kMaxLanes || info_out.size() != lanes) {
    throw std::invalid_argument("PolarCode::decode_lanes: bad lane count");
  }
  // Rate dematching straight into the root's interleaved LLR slice.
  scratch.prepare(n_);
  float* root = scratch.llr.data();
  const kernels::KernelTable& kt = kernels::active();
  const bool finite = kt.polar_interleave(llrs.data(), lanes, e_, n_,
                                          kKnownZeroLlr, kMaxBatchLlr, root);
  // The kernels equal the per-element helpers on every value but a NaN,
  // whose sign follows how a compiler orders an addition, and which
  // nodes take a kernel depends on L.  A batch whose root could give rise
  // to a NaN (a NaN, or a magnitude that could sum to ±inf and meet its
  // opposite) therefore decodes one lane at a time, as each would alone.
  if (lanes > 1 && !finite) {
    for (std::size_t l = 0; l < lanes; ++l) {
      decode_lanes(llrs.subspan(l, 1), scratch, info_out.subspan(l, 1));
    }
    return;
  }
  const LaneDecoder decoder(kt, info_prefix_, lanes, scratch.u.data());
  decoder.node(root, scratch.x.data(), 0, n_);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (unsigned i = 0; i < k_; ++i) {
      info_out[l][i] = scratch.u[info_set_[i] * lanes + l];
    }
  }
}

void PolarCode::decode(std::span<const float> llrs, PolarScratch& scratch,
                       std::span<std::uint8_t> info_out) const {
  if (llrs.size() != e_) {
    throw std::invalid_argument("PolarCode::decode: wrong LLR length");
  }
  if (info_out.size() != k_) {
    throw std::invalid_argument("PolarCode::decode: wrong output length");
  }
  const float* in = llrs.data();
  std::uint8_t* out = info_out.data();
  decode_lanes(std::span(&in, 1), scratch, std::span(&out, 1));
}

BitVector PolarCode::decode(std::span<const float> llrs) const {
  PolarScratch scratch;
  BitVector info(k_);
  decode(llrs, scratch, std::span(info.data(), info.size()));
  return info;
}

}  // namespace nrs
