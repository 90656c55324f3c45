#include "nrscope/slot_sink.h"

#include <sstream>
#include <stdexcept>

namespace nrs {

// ---- SinkChain -------------------------------------------------------

SinkChain::SinkChain(MetricsRegistry* registry, std::string metric_prefix)
    : registry_(registry), prefix_(std::move(metric_prefix)) {
  if (registry_ != nullptr) {
    total_errors_ = &registry_->counter(prefix_ + "sink_errors");
  }
}

std::string SinkChain::add(std::string name, std::shared_ptr<SlotSink> sink) {
  if (!sink) {
    return {};
  }
  std::lock_guard lock(mutex_);
  if (name.empty()) {
    name = "sink" + std::to_string(auto_names_++);
  }
  // Duplicate names would alias the per-sink error counter; suffix them.
  auto taken = [this](const std::string& candidate) {
    for (const Entry& entry : entries_) {
      if (entry.name == candidate) {
        return true;
      }
    }
    return false;
  };
  std::string unique = name;
  for (unsigned suffix = 2; taken(unique); ++suffix) {
    unique = name + "#" + std::to_string(suffix);
  }
  Entry entry;
  entry.name = unique;
  entry.sink = std::move(sink);
  if (registry_ != nullptr) {
    entry.errors = &registry_->counter(prefix_ + "sink." + unique +
                                       ".errors");
  }
  entries_.push_back(std::move(entry));
  return unique;
}

bool SinkChain::detach(std::string_view name) {
  std::lock_guard lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name == name) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::size_t SinkChain::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

bool SinkChain::empty() const {
  std::lock_guard lock(mutex_);
  return entries_.empty();
}

std::vector<std::string> SinkChain::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(entry.name);
  }
  return out;
}

void SinkChain::drop_failed_locked(std::size_t i) {
  if (total_errors_ != nullptr) {
    total_errors_->inc();
  }
  if (entries_[i].errors != nullptr) {
    entries_[i].errors->inc();
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
}

void SinkChain::deliver_slot(const SlotResult& result) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < entries_.size();) {
    try {
      entries_[i].sink->on_slot(result);
      ++i;
    } catch (...) {
      drop_failed_locked(i);
    }
  }
}

void SinkChain::deliver_finish() {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < entries_.size();) {
    try {
      entries_[i].sink->on_finish();
      ++i;
    } catch (...) {
      drop_failed_locked(i);
    }
  }
}

// ---- MetricsCsvSink --------------------------------------------------

MetricsCsvSink::MetricsCsvSink(const std::string& path,
                               const MetricsRegistry& registry,
                               std::uint64_t period_slots)
    : out_(path), registry_(&registry),
      period_slots_(period_slots > 0 ? period_slots : 1) {
  if (!out_) {
    throw std::runtime_error("MetricsCsvSink: cannot open " + path);
  }
  out_ << "slot," << MetricsSnapshot::csv_header() << '\n';
}

void MetricsCsvSink::on_slot(const SlotResult& result) {
  last_slot_ = result.slot;
  if (++seen_ % period_slots_ == 0) {
    dump();
  }
}

void MetricsCsvSink::on_finish() {
  dump();
  out_.flush();
}

void MetricsCsvSink::dump() {
  const MetricsSnapshot snap = registry_->snapshot();
  // Prefix every row of the snapshot's CSV with the slot column.
  std::istringstream rows(snap.to_csv());
  std::string row;
  while (std::getline(rows, row)) {
    out_ << last_slot_ << ',' << row << '\n';
  }
}

}  // namespace nrs
