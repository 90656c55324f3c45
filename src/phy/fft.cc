#include "phy/fft.h"

#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>

#include "phy/kernels/kernels.h"

namespace nrs {

Fft::Fft(std::size_t size) : size_(size), scratch_(size) {
  if (!is_pow2(size)) {
    throw std::invalid_argument("Fft size must be a power of two");
  }
  // Per-stage contiguous twiddles (kernel-friendly layout): the stage with
  // half-size h needs W_N^(k * N/(2h)) for k in [0, h); packing stages
  // back-to-back puts stage h at offset h - 1 (= 1 + 2 + ... + h/2) and
  // the whole table at N - 1 entries.  The inverse table holds the
  // conjugates so the transform never branches per butterfly.
  twiddles_.resize(size_ > 1 ? size_ - 1 : 0);
  inv_twiddles_.resize(twiddles_.size());
  for (std::size_t half = 1; half < size_; half <<= 1) {
    const std::size_t stride = size_ / (2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * stride) /
                           static_cast<double>(size_);
      const cf32 w(static_cast<float>(std::cos(angle)),
                   static_cast<float>(std::sin(angle)));
      twiddles_[half - 1 + k] = w;
      inv_twiddles_[half - 1 + k] = std::conj(w);
    }
  }
}

void Fft::transform(std::span<const cf32> in, std::span<cf32> out,
                    bool inverse) {
  if (in.size() != size_ || out.size() != size_) {
    throw std::invalid_argument("Fft: buffer size mismatch");
  }
  const std::less<const cf32*> before;
  if (before(in.data(), out.data() + size_) &&
      before(out.data(), in.data() + size_)) {
    throw std::invalid_argument("Fft: input and output overlap");
  }
  const std::vector<cf32>& tw = inverse ? inv_twiddles_ : twiddles_;
  kernels::active().fft(in.data(), out.data(), scratch_.data(), tw.data(),
                        size_, inverse);
}

void Fft::forward(std::span<const cf32> in, std::span<cf32> out) {
  transform(in, out, false);
}

void Fft::inverse(std::span<const cf32> in, std::span<cf32> out) {
  transform(in, out, true);
}

}  // namespace nrs
