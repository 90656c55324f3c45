// Allocation-tracking hooks for the hot-path memory discipline (see
// DESIGN.md "Hot-path memory discipline").  The library side is just a set
// of relaxed atomic counters; they only move when a binary also links an
// operator new/delete replacement that forwards to record_alloc() /
// record_free() — see common/alloc_shim.h, which test and bench binaries
// include in exactly one translation unit.  Production binaries pay
// nothing: without the shim every function here is a no-op counter read.
//
// The pipeline publishes the totals as alloc.* gauges each slot, so a
// steady-state run can assert (tests) or report (benches) heap
// traffic per slot.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nrs::alloc {

/// Process-wide allocation totals since start (or the last reset()).
struct Totals {
  std::uint64_t allocs = 0;  ///< operator new calls
  std::uint64_t frees = 0;   ///< operator delete calls
  std::uint64_t bytes = 0;   ///< cumulative bytes requested

  [[nodiscard]] bool operator==(const Totals&) const = default;
};

/// Called by the operator new replacement (alloc_shim.h).
void record_alloc(std::size_t bytes) noexcept;

/// Called by the operator delete replacement.
void record_free() noexcept;

/// True once a shim has reported at least one allocation — lets callers
/// distinguish "zero allocations" from "no shim linked".
[[nodiscard]] bool hooks_active() noexcept;

[[nodiscard]] Totals totals() noexcept;

/// Zero the counters (e.g. after warm-up, before a measured region).
void reset() noexcept;

}  // namespace nrs::alloc
