// Lease table for the distributed fleet: one lease per cell, granted to
// one worker at a time with a TTL.  Heartbeats renew a lease; a lease that
// expires (or whose worker dies) is released back to the unassigned pool,
// held out of placement for the kLeaseBackoff wait, and its handoff
// counter bumps — the next grant carries a higher incarnation, so the
// receiving worker draws a fresh but reproducible stream for the cell.
// Like the catalog, this is a plain data structure mutated only on the
// coordinator's io thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/backoff.h"

namespace nrs {

enum class LeaseState : std::uint8_t {
  kUnassigned = 0,  ///< nobody runs this cell (waiting for capacity/backoff)
  kPending = 1,     ///< granted, kLeaseAck not yet received
  kActive = 2,      ///< acked; renewed by worker heartbeats
};

const char* to_string(LeaseState state);

/// The coordinator's per-cell reassignment backoff: the first penalized
/// release holds the cell out of placement for 0.05 s, and each further
/// one doubles the hold, up to 1 s.
inline constexpr BackoffPolicy kLeaseBackoff{0.05, 1.0, 2.0, 0.0};

struct Lease {
  std::uint32_t cell_index = 0;
  LeaseState state = LeaseState::kUnassigned;
  std::uint64_t lease_id = 0;    ///< 0 = never granted
  std::uint64_t worker_id = 0;   ///< catalog id of the holder
  /// Times this cell's lease has been released (worker death, expiry,
  /// revoke).  Used as the incarnation of the next grant.
  unsigned handoffs = 0;
  std::chrono::steady_clock::time_point expires_at{};
  std::chrono::steady_clock::time_point retry_at{};
  /// Penalized releases since the cell last made progress: the next one
  /// holds the cell out for backoff_base_delay(kLeaseBackoff, failures).
  unsigned failures = 0;
};

class LeaseTable {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// `ttl_s` is how long a grant, an ack or a renewal keeps a lease live.
  LeaseTable(std::size_t n_cells, double ttl_s);

  /// Grant cell `cell_index` to `worker_id`: a fresh lease id, state
  /// kPending, TTL clock running.  The grant's incarnation is the cell's
  /// current handoff count.
  std::uint64_t grant(std::uint32_t cell_index, std::uint64_t worker_id,
                      TimePoint now);

  /// Apply a worker's accepting kLeaseAck: the lease turns kActive and its
  /// TTL clock restarts.  (A refusal is a penalized release().)  False
  /// when the lease id no longer matches any live lease.
  bool ack(std::uint64_t lease_id, TimePoint now);

  /// Extend the lease's TTL (a heartbeat listed it).  False when the id
  /// does not match a live lease.
  bool renew(std::uint64_t lease_id, TimePoint now);

  /// Release the cell's current lease back to kUnassigned and bump its
  /// handoff counter.  `penalize` holds the cell out of placement for the
  /// next kLeaseBackoff delay; a deliberate release (rebalance) passes
  /// false and reassigns immediately.
  void release(std::uint32_t cell_index, bool penalize, TimePoint now);

  /// The cell made real progress under its current lease: its next
  /// penalized release waits the initial delay again, like the fleet
  /// supervisor's kHealthySlots rule.
  void note_progress(std::uint32_t cell_index);

  // -- Replication / failover support ----------------------------------

  /// Rebuild the table for `n_cells` cells, dropping all state.  A standby
  /// applying its first snapshot uses this: its config carried no cell
  /// list, the snapshot is authoritative.
  void reset(std::size_t n_cells);

  /// Mirror one cell's replicated lease binding verbatim (standby apply
  /// path).  Does not touch next_lease_id_ — see set_next_lease_id().
  void restore(std::uint32_t cell_index, LeaseState state,
               std::uint64_t lease_id, std::uint64_t worker_id,
               unsigned handoffs, TimePoint now);

  /// Ensure future grants use ids >= `next` (never reuse a replicated
  /// live id).  Only ratchets forward.
  void set_next_lease_id(std::uint64_t next);
  [[nodiscard]] std::uint64_t next_lease_id() const {
    return next_lease_id_;
  }

  /// Restart every granted lease's TTL clock.  A just-promoted standby
  /// calls this so healthy workers get one full TTL to reconnect and
  /// re-confirm before their mirrored leases are treated as expired.
  void extend_all(TimePoint now);

  /// Re-confirmation after failover: bind a live lease to the catalog id
  /// its (reconnected) holder registered under with the new primary.  The
  /// lease id, state and handoff count are untouched — this is the same
  /// lease continuing, not a reassignment.  False when the id is unknown.
  bool rebind(std::uint64_t lease_id, std::uint64_t new_worker_id);

  /// Live lease lookup by id (nullptr when no cell currently holds it).
  [[nodiscard]] Lease* by_id(std::uint64_t lease_id);

  [[nodiscard]] Lease& cell(std::uint32_t cell_index) {
    return leases_[cell_index];
  }
  [[nodiscard]] const Lease& cell(std::uint32_t cell_index) const {
    return leases_[cell_index];
  }
  [[nodiscard]] std::size_t n_cells() const { return leases_.size(); }

  /// Cells whose granted lease (pending or active) `worker_id` holds, in
  /// ascending order: the one record of a worker's holdings.
  [[nodiscard]] std::vector<std::uint32_t> held_by(
      std::uint64_t worker_id) const;
  /// Cells whose granted lease (pending or active) has outlived its TTL.
  [[nodiscard]] std::vector<std::uint32_t> expired(TimePoint now) const;
  /// Unassigned cells whose backoff has elapsed.
  [[nodiscard]] std::vector<std::uint32_t> assignable(TimePoint now) const;
  [[nodiscard]] std::size_t active_count() const;

 private:
  double ttl_s_;
  std::vector<Lease> leases_;  ///< indexed by cell_index
  std::uint64_t next_lease_id_ = 0;
};

}  // namespace nrs
