#include "dist/catalog.h"

#include <algorithm>
#include <utility>

namespace nrs {

std::uint64_t WorkerCatalog::add(std::string name, std::uint32_t capacity,
                                 int fd, TimePoint now) {
  const std::uint64_t id = ++next_id_;
  WorkerEntry entry;
  entry.id = id;
  entry.name = std::move(name);
  entry.capacity = capacity;
  entry.fd = fd;
  entry.alive = true;
  entry.last_seen = now;
  workers_.emplace(id, std::move(entry));
  return id;
}

void WorkerCatalog::restore(std::uint64_t id, std::string name,
                            std::uint32_t capacity, TimePoint now) {
  WorkerEntry entry;
  entry.id = id;
  entry.name = std::move(name);
  entry.capacity = capacity;
  entry.fd = -1;
  entry.alive = true;
  entry.last_seen = now;
  workers_.insert_or_assign(id, std::move(entry));
  next_id_ = std::max(next_id_, id);
}

void WorkerCatalog::clear() { workers_.clear(); }

void WorkerCatalog::touch_all(TimePoint now) {
  for (auto& [id, entry] : workers_) {
    entry.last_seen = now;
  }
}

WorkerEntry* WorkerCatalog::find(std::uint64_t id) {
  const auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : &it->second;
}

const WorkerEntry* WorkerCatalog::find(std::uint64_t id) const {
  const auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : &it->second;
}

void WorkerCatalog::touch(std::uint64_t id, TimePoint now) {
  if (WorkerEntry* entry = find(id)) {
    entry->last_seen = now;
  }
}

void WorkerCatalog::mark_dead(std::uint64_t id) {
  if (WorkerEntry* entry = find(id)) {
    entry->alive = false;
  }
}

void WorkerCatalog::remove(std::uint64_t id) { workers_.erase(id); }

std::optional<std::uint64_t> WorkerCatalog::pick_least_loaded(
    const LeaseTable& leases) const {
  std::optional<std::uint64_t> best;
  std::size_t best_load = 0;
  for (const auto& [id, entry] : workers_) {
    if (!entry.alive || entry.fd < 0) {
      continue;
    }
    const std::size_t load = leases.held_by(id).size();
    if (load < entry.capacity && (!best || load < best_load)) {
      best = id;
      best_load = load;
    }
  }
  return best;
}

std::vector<std::uint64_t> WorkerCatalog::silent_since(
    TimePoint now, double timeout_s) const {
  const auto timeout = std::chrono::duration_cast<TimePoint::duration>(
      std::chrono::duration<double>(timeout_s));
  std::vector<std::uint64_t> silent;
  for (const auto& [id, entry] : workers_) {
    if (entry.alive && now - entry.last_seen > timeout) {
      silent.push_back(id);
    }
  }
  return silent;
}

std::size_t WorkerCatalog::alive_count() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : workers_) {
    n += entry.alive ? 1 : 0;
  }
  return n;
}

}  // namespace nrs
