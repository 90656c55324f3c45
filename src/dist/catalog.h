// Worker catalog for the distributed fleet coordinator: who is connected,
// how many cells each worker can carry, and when it last proved it was
// alive.  Which cells a worker holds is the lease table's record
// (LeaseTable::held_by), not the catalog's.  The catalog is a plain data
// structure — all mutation happens on the coordinator's io thread — so it
// is unit-testable without sockets.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dist/lease.h"

namespace nrs {

struct WorkerEntry {
  std::uint64_t id = 0;
  std::string name;
  std::uint32_t capacity = 1;  ///< max concurrent cell leases
  int fd = -1;                 ///< the worker's socket (not owned)
  bool alive = true;
  std::chrono::steady_clock::time_point last_seen{};
};

class WorkerCatalog {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Register a freshly-greeted worker; returns its catalog id (never 0).
  std::uint64_t add(std::string name, std::uint32_t capacity, int fd,
                    TimePoint now);

  /// Mirror a replicated catalog entry under its original id (standby
  /// apply path).  The entry has no socket (fd = -1) — after a promotion
  /// it is a "ghost" that holds its cells until the real worker reconnects
  /// and its leases are rebound, or the heartbeat timeout declares it
  /// dead.  Ratchets next_id_ past `id` so fresh joins never collide.
  void restore(std::uint64_t id, std::string name, std::uint32_t capacity,
               TimePoint now);

  /// Drop every entry (standby re-applying a fresh snapshot).
  void clear();

  /// Restart every entry's liveness clock (promotion grace: ghosts get a
  /// full heartbeat timeout to re-appear before being declared dead).
  void touch_all(TimePoint now);

  [[nodiscard]] WorkerEntry* find(std::uint64_t id);
  [[nodiscard]] const WorkerEntry* find(std::uint64_t id) const;

  /// Record proof of life (a heartbeat or any inbound frame).
  void touch(std::uint64_t id, TimePoint now);

  /// Declare a worker dead.  Its leases are left for the caller to walk
  /// (the lease table owns the reassignment); remove() erases the entry
  /// once the caller is done with it.
  void mark_dead(std::uint64_t id);
  void remove(std::uint64_t id);

  /// The alive *connected* worker with free capacity carrying the fewest
  /// cells in `leases` (ties: lowest id, so placement is deterministic).
  /// Ghost entries (fd < 0, mirrored from a dead primary) are skipped —
  /// there is no socket to send a grant on.  nullopt when the fleet is
  /// saturated or empty.
  [[nodiscard]] std::optional<std::uint64_t> pick_least_loaded(
      const LeaseTable& leases) const;

  /// Workers that have been silent for longer than `timeout_s`.
  [[nodiscard]] std::vector<std::uint64_t> silent_since(
      TimePoint now, double timeout_s) const;

  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::size_t size() const { return workers_.size(); }
  [[nodiscard]] const std::map<std::uint64_t, WorkerEntry>& workers() const {
    return workers_;
  }

 private:
  std::map<std::uint64_t, WorkerEntry> workers_;
  std::uint64_t next_id_ = 0;
};

}  // namespace nrs
