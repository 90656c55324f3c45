// Polar coding for the PDCCH / PBCH chains (3GPP TS 38.212 5.3.1).
//
// Substitution note (see DESIGN.md): the information-set reliability order
// is generated with the beta-expansion (Polarization Weight) construction —
// the same method 3GPP used to design Table 5.3.1.2-1 — instead of copying
// the table.  Encoder and decoder share the construction, so the chain's
// behaviour (rate matching, SC decoding, CRC-aided detection, BLER-vs-SNR
// shape) is preserved.
//
// Rate matching: repetition when E >= N; shortening when E < N (the last
// N - E coded bits are not transmitted and the corresponding tail input
// bits are frozen, so the decoder knows them to be zero).  DCI code rates
// are above 7/16, where 3GPP also shortens.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bit_io.h"

namespace nrs {

/// Reusable successive-cancellation decoder workspace (hot-path memory
/// discipline, DESIGN.md).  The decoder runs L <= PolarCode::kMaxLanes
/// codewords of one (K, E) together, element-major: entry i of lane l sits
/// at [i * L + l].  Tree level j holds (N >> j) * L LLRs and partial-sum
/// bits, and the slices of all levels fit in 2NL entries.  The buffers
/// grow once to the largest mother code seen, sized for the lane cap, and
/// are then reused allocation-free at any lane count.  A scratch belongs
/// to one thread at a time.
struct PolarScratch {
  std::vector<std::uint8_t> u;  ///< N*L decided input bits (encode: N)
  std::vector<float> llr;       ///< 2NL floats, sliced per tree level
  std::vector<std::uint8_t> x;  ///< 2NL partial-sum bits, sliced per level

  /// Size every buffer for mother code n at the lane cap (grow-only).
  void prepare(std::size_t n);
};

/// A (K, E) polar code instance: K information bits (payload + CRC already
/// attached by the caller) carried over E transmitted bits.
class PolarCode {
 public:
  /// Maximum mother-code size used by NR DCI (TS 38.212: n_max = 9).
  static constexpr unsigned kMaxN = 512;

  PolarCode(unsigned k, unsigned e);

  /// Encode `info` (size K) into E transmitted bits.
  [[nodiscard]] BitVector encode(std::span<const std::uint8_t> info) const;

  /// Allocation-free encode into `out` (size exactly E); the N-bit
  /// transform runs in place in `scratch.u` (grow-only).
  void encode(std::span<const std::uint8_t> info, PolarScratch& scratch,
              std::span<std::uint8_t> out) const;

  /// Most codewords one decode_lanes call runs together.  Every tree node
  /// costs a fixed amount per call whatever its width, so a PDCCH batch
  /// decodes its candidates of one (K, E) up to this many at a time.
  static constexpr std::size_t kMaxLanes = 8;

  /// Successive-cancellation decode from E channel LLRs
  /// (positive = bit 0).  Always returns K bits; the caller validates them
  /// with the attached CRC — a failed CRC is a "DCI miss" upstream.
  /// Builds a fresh workspace on every call.
  [[nodiscard]] BitVector decode(std::span<const float> llrs) const;

  /// Allocation-free decode: identical bits to the overload above, written
  /// into `info_out` (size exactly K) using the caller's workspace.
  void decode(std::span<const float> llrs, PolarScratch& scratch,
              std::span<std::uint8_t> info_out) const;

  /// Decode `llrs.size()` codewords (1 to kMaxLanes) together: lane l reads
  /// E LLRs at `llrs[l]` and writes K bits to `info_out[l]`.  Each lane's
  /// bits equal a decode of that lane alone, bit for bit; the overloads
  /// above are this call with one lane.
  void decode_lanes(std::span<const float* const> llrs, PolarScratch& scratch,
                    std::span<std::uint8_t* const> info_out) const;

  [[nodiscard]] unsigned k() const { return k_; }
  [[nodiscard]] unsigned e() const { return e_; }
  [[nodiscard]] unsigned n() const { return n_; }

  /// The beta-expansion reliability order for a mother code of size n
  /// (ascending reliability: least reliable first).  Exposed for tests.
  static std::vector<unsigned> reliability_order(unsigned n);

 private:
  unsigned k_;
  unsigned e_;
  unsigned n_;                       // mother code size (power of two)
  std::vector<unsigned> info_set_;   // input indices carrying info bits
  // info_prefix_[i] = info bits among inputs [0, i); lets the SC decoder
  // spot all-frozen (rate-0) and all-info (rate-1) subtrees in O(1).
  std::vector<unsigned> info_prefix_;

  void polar_transform(std::span<std::uint8_t> x) const;
};

}  // namespace nrs
