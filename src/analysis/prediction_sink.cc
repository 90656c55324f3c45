#include "analysis/prediction_sink.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace nrs {

std::optional<std::string> PredictionSinkConfig::validate() const {
  if (auto err = features.validate()) {
    return err;
  }
  if (period_slots == 0) {
    return "period_slots must be positive";
  }
  return std::nullopt;
}

PredictionSink::PredictionSink(
    std::shared_ptr<const ThroughputPredictor> predictor,
    const PredictionSinkConfig& config, MetricsRegistry* registry,
    Emitter emitter)
    : predictor_(std::move(predictor)),
      config_(config),
      emitter_(std::move(emitter)),
      extractor_(config.features) {
  if (predictor_ == nullptr) {
    throw std::invalid_argument("PredictionSink: predictor is null");
  }
  if (auto err = config_.validate()) {
    throw std::invalid_argument("PredictionSinkConfig: " + *err);
  }
  horizon_slots_ = predictor_->weights().horizon_slots;
  horizon_s_ = static_cast<double>(horizon_slots_) *
               slot_duration_s(config_.features.scs);
  // Worst case forecasts in flight: every UE forecast each period across
  // one horizon, plus one period of slack.
  const std::size_t capacity =
      kFeatureMaxUes *
      (static_cast<std::size_t>(horizon_slots_ / config_.period_slots) + 2);
  pending_.assign(capacity, PendingForecast{});
  set_.horizon_slots = static_cast<std::uint32_t>(horizon_slots_);
  set_.model_version = predictor_->weights().model_version;
  set_.entries.reserve(2 * kFeatureMaxUes);
  if (registry != nullptr) {
    m_made_ = &registry->counter("analysis.predictions");
    m_matured_ = &registry->counter("analysis.predictions_matured");
    m_dropped_ = &registry->counter("analysis.predictions_dropped");
    m_degraded_ = &registry->counter("analysis.predictions_degraded");
    m_within20_ = &registry->counter("analysis.predictions_within20");
    m_abs_err_ = &registry->histogram(
        "analysis.prediction_abs_error_mbps",
        {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0});
  }
}

void PredictionSink::mature_pending(std::uint64_t now) {
  while (pending_count_ > 0) {
    const PendingForecast& p = pending_[pending_head_];
    if (now < p.made_slot + horizon_slots_) {
      break;
    }
    // The UE may have been evicted (and its slot reused) since the
    // forecast was made; the generation stamp detects that.
    const bool alive = p.ue_index < extractor_.n_ues() &&
                       extractor_.generation_at(p.ue_index) == p.generation;
    if (alive) {
      const double actual_mbps =
          static_cast<double>(extractor_.dl_bits_total(p.ue_index) -
                              p.bits_at_make) /
          horizon_s_ / 1e6;
      const double err = std::fabs(p.predicted_mbps - actual_mbps);
      ++matured_;
      abs_err_sum_mbps_ += err;
      const bool within = err <= std::max(0.2 * actual_mbps, 0.25);
      if (within) {
        ++within20_;
      }
      if (p.degraded) {
        ++degraded_matured_;
        degraded_abs_err_sum_mbps_ += err;
      }
      if (m_matured_ != nullptr) {
        m_matured_->inc();
        m_abs_err_->observe(err);
        if (within) {
          m_within20_->inc();
        }
      }
      PredictionEntry entry;
      entry.rnti = p.rnti;
      entry.has_actual = true;
      entry.degraded = p.degraded;
      entry.predicted_bps = p.predicted_mbps * 1e6;
      entry.actual_bps = actual_mbps * 1e6;
      entry.abs_error_bps = err * 1e6;
      set_.entries.push_back(entry);
    } else {
      ++dropped_;
      if (m_dropped_ != nullptr) {
        m_dropped_->inc();
      }
    }
    pending_head_ = (pending_head_ + 1) % pending_.size();
    --pending_count_;
  }
}

void PredictionSink::forecast(const SlotResult& result, std::uint64_t now) {
  const bool degraded =
      result.degraded || result.sync_state != SyncState::kTracking;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = extractor_.n_ues();
  for (std::size_t i = 0; i < n; ++i) {
    if (pending_count_ == pending_.size()) {
      // Ring full (horizon much longer than the drain rate): shed the
      // oldest outstanding forecast rather than growing.
      ++dropped_;
      if (m_dropped_ != nullptr) {
        m_dropped_->inc();
      }
      pending_head_ = (pending_head_ + 1) % pending_.size();
      --pending_count_;
    }
    extractor_.features(i, scratch_);
    const double predicted_mbps = predictor_->predict_mbps(scratch_);
    PendingForecast& p =
        pending_[(pending_head_ + pending_count_) % pending_.size()];
    p.rnti = extractor_.rnti_at(i);
    p.ue_index = i;
    p.generation = extractor_.generation_at(i);
    p.made_slot = now;
    p.bits_at_make = extractor_.dl_bits_total(i);
    p.predicted_mbps = predicted_mbps;
    p.degraded = degraded;
    ++pending_count_;
    ++made_;
    if (degraded) {
      ++degraded_;
    }
    PredictionEntry entry;
    entry.rnti = p.rnti;
    entry.has_actual = false;
    entry.degraded = degraded;
    entry.predicted_bps = predicted_mbps * 1e6;
    set_.entries.push_back(entry);
  }
  const auto t1 = std::chrono::steady_clock::now();
  infer_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count());
  if (m_made_ != nullptr && n > 0) {
    m_made_->inc(n);
    if (degraded) {
      m_degraded_->inc(n);
    }
  }
}

void PredictionSink::on_slot(const SlotResult& result) {
  extractor_.observe_slot(result);
  const std::uint64_t now = extractor_.slots_observed();
  set_.entries.clear();
  mature_pending(now);
  // Warm-up: no forecast until the short window has filled.
  if (now >= extractor_.window_slots()[0] &&
      now % config_.period_slots == 0) {
    forecast(result, now);
  }
  if (!set_.entries.empty() && emitter_) {
    set_.slot = now;
    emitter_(set_);
  }
}

double PredictionSink::mae_mbps() const {
  return matured_ == 0 ? 0.0
                       : abs_err_sum_mbps_ / static_cast<double>(matured_);
}

double PredictionSink::within20_rate() const {
  return matured_ == 0
             ? 0.0
             : static_cast<double>(within20_) / static_cast<double>(matured_);
}

double PredictionSink::degraded_mae_mbps() const {
  return degraded_matured_ == 0
             ? 0.0
             : degraded_abs_err_sum_mbps_ /
                   static_cast<double>(degraded_matured_);
}

}  // namespace nrs
