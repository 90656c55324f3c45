#include "nrscope/sync_monitor.h"

#include <cmath>

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
  if (std::isnan(ssb_alpha) || ssb_alpha <= 0.0 || ssb_alpha > 1.0) {
    return "sync.ssb_alpha must be in (0, 1], got " +
           std::to_string(ssb_alpha);
  }
  if (std::isnan(ssb_weak_threshold) || ssb_weak_threshold < 0.0f ||
      ssb_weak_threshold > 1.0f) {
    return "sync.ssb_weak_threshold must be in [0, 1], got " +
           std::to_string(ssb_weak_threshold);
  }
  if (ssb_fail_limit == 0) {
    return "sync.ssb_fail_limit must be > 0";
  }
  if (std::isnan(degraded_threshold) || degraded_threshold < 0.0 ||
      degraded_threshold > 1.0) {
    return "sync.degraded_threshold must be in [0, 1], got " +
           std::to_string(degraded_threshold);
  }
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
  quality_ = (1.0 - config_.ssb_alpha) * quality_ +
             config_.ssb_alpha * static_cast<double>(correlation);
  if (correlation < config_.ssb_weak_threshold) {
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
  if (weak_run_ >= config_.ssb_fail_limit ||
      empty_run_ >= config_.empty_slot_limit) {
    return SyncHealth::kLost;
  }
  if (quality_ < config_.degraded_threshold ||
      empty_run_ >= config_.empty_slot_limit / 2) {
    return SyncHealth::kDegraded;
  }
  return SyncHealth::kHealthy;
}

SyncLossCause SyncMonitor::loss_cause() const {
  if (weak_run_ >= config_.ssb_fail_limit) {
    return SyncLossCause::kSsbQuality;
  }
  if (empty_run_ >= config_.empty_slot_limit) {
    return SyncLossCause::kBlindDecode;
  }
  return SyncLossCause::kNone;
}

void SyncMonitor::resync_started(std::uint64_t slot) {
  resync_started_slot_ = slot;
  ++sync_losses_;
  m_sync_losses_->inc();
  m_health_->set(0);
}

void SyncMonitor::resync_finished(std::uint64_t slot, bool pci_changed) {
  ++resyncs_;
  m_resyncs_->inc();
  m_resync_duration_->observe(
      static_cast<double>(slot - resync_started_slot_));
  if (pci_changed) {
    ++pci_changes_;
    m_pci_changes_->inc();
  }
}

void SyncMonitor::resync_abandoned(std::uint64_t slot) {
  ++abandoned_;
  m_abandoned_->inc();
  m_resync_duration_->observe(
      static_cast<double>(slot - resync_started_slot_));
}

}  // namespace nrs
