#include "dist/lease.h"

#include <algorithm>

namespace nrs {

namespace {

LeaseTable::TimePoint after(LeaseTable::TimePoint now, double seconds) {
  return now + std::chrono::duration_cast<LeaseTable::TimePoint::duration>(
                   std::chrono::duration<double>(seconds));
}

}  // namespace

const char* to_string(LeaseState state) {
  switch (state) {
    case LeaseState::kUnassigned: return "unassigned";
    case LeaseState::kPending: return "pending";
    case LeaseState::kActive: return "active";
  }
  return "unknown";
}

LeaseTable::LeaseTable(std::size_t n_cells, double ttl_s)
    : ttl_s_(ttl_s), leases_(n_cells) {
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    leases_[i].cell_index = static_cast<std::uint32_t>(i);
  }
}

std::uint64_t LeaseTable::grant(std::uint32_t cell_index,
                                std::uint64_t worker_id, TimePoint now) {
  Lease& lease = leases_[cell_index];
  lease.lease_id = ++next_lease_id_;
  lease.worker_id = worker_id;
  lease.state = LeaseState::kPending;
  lease.expires_at = after(now, ttl_s_);
  return lease.lease_id;
}

Lease* LeaseTable::by_id(std::uint64_t lease_id) {
  if (lease_id == 0) {
    return nullptr;
  }
  for (Lease& lease : leases_) {
    if (lease.lease_id == lease_id &&
        lease.state != LeaseState::kUnassigned) {
      return &lease;
    }
  }
  return nullptr;
}

bool LeaseTable::ack(std::uint64_t lease_id, TimePoint now) {
  Lease* lease = by_id(lease_id);
  if (lease == nullptr) {
    return false;
  }
  lease->state = LeaseState::kActive;
  lease->expires_at = after(now, ttl_s_);
  return true;
}

bool LeaseTable::renew(std::uint64_t lease_id, TimePoint now) {
  Lease* lease = by_id(lease_id);
  if (lease == nullptr) {
    return false;
  }
  lease->expires_at = after(now, ttl_s_);
  return true;
}

void LeaseTable::release(std::uint32_t cell_index, bool penalize,
                         TimePoint now) {
  Lease& lease = leases_[cell_index];
  if (lease.state == LeaseState::kUnassigned) {
    return;
  }
  lease.state = LeaseState::kUnassigned;
  lease.lease_id = 0;
  lease.worker_id = 0;
  ++lease.handoffs;
  lease.retry_at =
      penalize
          ? after(now, backoff_base_delay(kLeaseBackoff, lease.failures++))
          : now;
}

void LeaseTable::note_progress(std::uint32_t cell_index) {
  leases_[cell_index].failures = 0;
}

void LeaseTable::reset(std::size_t n_cells) {
  leases_.assign(n_cells, Lease{});
  for (std::size_t i = 0; i < leases_.size(); ++i) {
    leases_[i].cell_index = static_cast<std::uint32_t>(i);
  }
}

void LeaseTable::restore(std::uint32_t cell_index, LeaseState state,
                         std::uint64_t lease_id, std::uint64_t worker_id,
                         unsigned handoffs, TimePoint now) {
  Lease& lease = leases_[cell_index];
  lease.state = state;
  lease.lease_id = lease_id;
  lease.worker_id = worker_id;
  lease.handoffs = handoffs;
  lease.expires_at = after(now, ttl_s_);
  lease.retry_at = now;
}

void LeaseTable::set_next_lease_id(std::uint64_t next) {
  next_lease_id_ = std::max(next_lease_id_, next);
}

void LeaseTable::extend_all(TimePoint now) {
  for (Lease& lease : leases_) {
    if (lease.state != LeaseState::kUnassigned) {
      lease.expires_at = after(now, ttl_s_);
    }
  }
}

bool LeaseTable::rebind(std::uint64_t lease_id,
                        std::uint64_t new_worker_id) {
  Lease* lease = by_id(lease_id);
  if (lease == nullptr) {
    return false;
  }
  lease->worker_id = new_worker_id;
  return true;
}

std::vector<std::uint32_t> LeaseTable::held_by(
    std::uint64_t worker_id) const {
  std::vector<std::uint32_t> out;
  for (const Lease& lease : leases_) {
    if (lease.state != LeaseState::kUnassigned &&
        lease.worker_id == worker_id) {
      out.push_back(lease.cell_index);
    }
  }
  return out;
}

std::vector<std::uint32_t> LeaseTable::expired(TimePoint now) const {
  std::vector<std::uint32_t> out;
  for (const Lease& lease : leases_) {
    if (lease.state != LeaseState::kUnassigned && now >= lease.expires_at) {
      out.push_back(lease.cell_index);
    }
  }
  return out;
}

std::vector<std::uint32_t> LeaseTable::assignable(TimePoint now) const {
  std::vector<std::uint32_t> out;
  for (const Lease& lease : leases_) {
    if (lease.state == LeaseState::kUnassigned && now >= lease.retry_at) {
      out.push_back(lease.cell_index);
    }
  }
  return out;
}

std::size_t LeaseTable::active_count() const {
  std::size_t n = 0;
  for (const Lease& lease : leases_) {
    n += lease.state == LeaseState::kActive ? 1 : 0;
  }
  return n;
}

}  // namespace nrs
