#include "nrscope/sync_monitor.h"

namespace nrs {

const char* to_string(SyncLossCause cause) {
  switch (cause) {
    case SyncLossCause::kNone:
      return "none";
    case SyncLossCause::kSsbQuality:
      return "ssb_quality";
    case SyncLossCause::kBlindDecode:
      return "blind_decode";
  }
  return "?";
}

std::optional<std::string> SyncMonitorConfig::validate() const {
  if (empty_slot_limit == 0) {
    return "sync.empty_slot_limit must be > 0";
  }
  if (resync_grace_slots == 0) {
    return "sync.resync_grace_slots must be > 0";
  }
  return std::nullopt;
}

SyncMonitor::SyncMonitor(const SyncMonitorConfig& config,
                         MetricsRegistry& registry)
    : config_(config) {
  m_sync_losses_ = &registry.counter("nrscope.sync_losses");
  m_resyncs_ = &registry.counter("nrscope.resyncs");
  m_pci_changes_ = &registry.counter("nrscope.pci_changes");
  m_abandoned_ = &registry.counter("nrscope.resyncs_abandoned");
  m_resync_duration_ =
      &registry.histogram("nrscope.resync_duration_slots");
  m_health_ = &registry.gauge("nrscope.sync_health_ppm");
  m_health_->set(0);
}

void SyncMonitor::on_lock() {
  quality_ = 1.0;
  weak_run_ = 0;
  empty_run_ = 0;
  m_health_->set(1000000);
}

void SyncMonitor::observe_ssb(float correlation) {
  quality_ = (1.0 - kSsbAlpha) * quality_ +
             kSsbAlpha * static_cast<double>(correlation);
  if (correlation < kSsbWeakThreshold) {
    ++weak_run_;
  } else {
    weak_run_ = 0;
  }
  m_health_->set(static_cast<std::int64_t>(quality_ * 1e6));
}

void SyncMonitor::observe_slot(std::size_t n_user_dcis, bool have_ues) {
  if (!have_ues || n_user_dcis > 0) {
    empty_run_ = 0;
  } else {
    ++empty_run_;
  }
}

SyncHealth SyncMonitor::health() const {
  if (weak_run_ >= kSsbFailLimit || empty_run_ >= config_.empty_slot_limit) {
    return SyncHealth::kLost;
  }
  if (quality_ < kDegradedThreshold ||
      empty_run_ >= config_.empty_slot_limit / 2) {
    return SyncHealth::kDegraded;
  }
  return SyncHealth::kHealthy;
}

SyncLossCause SyncMonitor::loss_cause() const {
  if (weak_run_ >= kSsbFailLimit) {
    return SyncLossCause::kSsbQuality;
  }
  if (empty_run_ >= config_.empty_slot_limit) {
    return SyncLossCause::kBlindDecode;
  }
  return SyncLossCause::kNone;
}

void SyncMonitor::resync_started(std::uint64_t slot) {
  resync_started_slot_ = slot;
  m_sync_losses_->inc();
  m_health_->set(0);
}

void SyncMonitor::resync_finished(std::uint64_t slot, bool pci_changed) {
  m_resyncs_->inc();
  m_resync_duration_->observe(
      static_cast<double>(slot - resync_started_slot_));
  if (pci_changed) {
    m_pci_changes_->inc();
  }
}

void SyncMonitor::resync_abandoned(std::uint64_t slot) {
  m_abandoned_->inc();
  m_resync_duration_->observe(
      static_cast<double>(slot - resync_started_slot_));
}

}  // namespace nrs
