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
/// discipline, DESIGN.md): level l of the decode tree uses a slice of size
/// N >> l; slices for all levels fit in 2N entries.  One decode runs per
/// PDCCH candidate per TTI (paper Fig. 12 profiles exactly this loop), so
/// the buffers grow once to the largest mother code seen and are then
/// reused allocation-free.  A scratch belongs to one thread at a time.
struct PolarScratch {
  std::vector<float> mother;    ///< N rate-dematched LLRs
  std::vector<std::uint8_t> u;  ///< N decided input bits
  std::vector<float> llr;       ///< 2N floats, sliced per tree level
  std::vector<std::uint8_t> x;  ///< 2N partial-sum bits, sliced per level
  std::vector<std::size_t> offset;  ///< per-level slice offsets

  /// Size every buffer for mother code n (grow-only; recomputes offsets).
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

  /// Successive-cancellation decode from E channel LLRs
  /// (positive = bit 0).  Always returns K bits; the caller validates them
  /// with the attached CRC — a failed CRC is a "DCI miss" upstream.
  /// Builds a fresh workspace on every call.
  [[nodiscard]] BitVector decode(std::span<const float> llrs) const;

  /// Allocation-free decode: identical bits to the overload above, written
  /// into `info_out` (size exactly K) using the caller's workspace.
  void decode(std::span<const float> llrs, PolarScratch& scratch,
              std::span<std::uint8_t> info_out) const;

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
  std::vector<std::uint8_t> is_info_;
  // info_prefix_[i] = info bits among inputs [0, i); lets the SC decoder
  // prune all-frozen (rate-0) subtrees in O(1) per node.
  std::vector<unsigned> info_prefix_;

  void polar_transform(std::span<std::uint8_t> x) const;
};

}  // namespace nrs
