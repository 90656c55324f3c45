// SlotSink that runs the online predictor on the sniffer slot path: every
// `period_slots` it reads each tracked UE's FeatureVector, forecasts its
// downlink throughput over the model horizon, and scores earlier
// forecasts whose horizon just matured against the realized byte counts.
// Output goes three ways — analysis.* metrics, an accumulated
// PredictionEval-style running score (accessors below, what the bench
// tabulates), and an optional emit callback handed a reused PredictionSet
// buffer for the kPrediction wire frame.
//
// Hot-path discipline: after the feature extractor's per-UE warm-up and
// one reserve of the pending ring / emit buffer, on_slot() allocates
// nothing.  Forecasts made while the engine is blind or degraded
// (SlotResult::degraded, kResync) are still produced — applications keep
// getting numbers across a resync — but carry the degraded flag so
// consumers and the accuracy accounting can separate them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "analysis/features.h"
#include "analysis/predictor.h"
#include "common/metrics.h"
#include "net/wire.h"
#include "nrscope/slot_sink.h"

namespace nrs {

struct PredictionSinkConfig {
  FeatureConfig features;
  /// Forecast every this many slots (40 slots = 20 ms at 30 kHz SCS), once
  /// the short feature window has filled.
  std::uint64_t period_slots = 40;

  [[nodiscard]] std::optional<std::string> validate() const;
};

class PredictionSink : public SlotSink {
 public:
  /// Called (on the engine thread) with the freshly filled set each
  /// emit; the reference is only valid during the call.
  using Emitter = std::function<void(const PredictionSet&)>;

  /// Throws std::invalid_argument on invalid config.  `registry`
  /// (optional) receives the analysis.* metrics; `emitter` (optional)
  /// receives the per-period PredictionSet.
  PredictionSink(std::shared_ptr<const ThroughputPredictor> predictor,
                 const PredictionSinkConfig& config,
                 MetricsRegistry* registry = nullptr,
                 Emitter emitter = nullptr);

  void on_slot(const SlotResult& result) override;

  // Running totals (single engine thread writes; read after the run
  // or between slots).
  [[nodiscard]] std::uint64_t predictions_made() const { return made_; }
  [[nodiscard]] std::uint64_t predictions_matured() const {
    return matured_;
  }
  [[nodiscard]] std::uint64_t predictions_dropped() const {
    return dropped_;
  }
  [[nodiscard]] std::uint64_t degraded_predictions() const {
    return degraded_;
  }
  /// MAE over matured forecasts, Mbps (0 when none matured yet).
  [[nodiscard]] double mae_mbps() const;
  /// Fraction of matured forecasts within max(20% of actual, 0.25 Mbps).
  [[nodiscard]] double within20_rate() const;
  /// Same pair restricted to forecasts made while degraded/blind.
  [[nodiscard]] double degraded_mae_mbps() const;
  /// Total nanoseconds spent inside predict_mbps (inference only).
  [[nodiscard]] std::uint64_t inference_ns() const { return infer_ns_; }

  [[nodiscard]] const FeatureExtractor& extractor() const {
    return extractor_;
  }
  [[nodiscard]] const ThroughputPredictor& predictor() const {
    return *predictor_;
  }

 private:
  struct PendingForecast {
    Rnti rnti = 0;
    std::size_t ue_index = 0;
    std::uint64_t generation = 0;  ///< extractor generation at make time
    std::uint64_t made_slot = 0;
    std::uint64_t bits_at_make = 0;
    double predicted_mbps = 0.0;
    bool degraded = false;
  };

  void mature_pending(std::uint64_t now);
  void forecast(const SlotResult& result, std::uint64_t now);

  std::shared_ptr<const ThroughputPredictor> predictor_;
  PredictionSinkConfig config_;
  Emitter emitter_;
  FeatureExtractor extractor_;
  std::uint64_t horizon_slots_ = 0;
  double horizon_s_ = 0.0;

  // Fixed-capacity FIFO of outstanding forecasts, ordered by made_slot.
  std::vector<PendingForecast> pending_;
  std::size_t pending_head_ = 0;
  std::size_t pending_count_ = 0;

  PredictionSet set_;       ///< reused emit buffer
  FeatureVector scratch_{};  ///< reused feature read buffer

  std::uint64_t made_ = 0;
  std::uint64_t matured_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t degraded_matured_ = 0;
  double abs_err_sum_mbps_ = 0.0;
  double degraded_abs_err_sum_mbps_ = 0.0;
  std::uint64_t within20_ = 0;
  std::uint64_t infer_ns_ = 0;

  Counter* m_made_ = nullptr;
  Counter* m_matured_ = nullptr;
  Counter* m_dropped_ = nullptr;
  Counter* m_degraded_ = nullptr;
  Counter* m_within20_ = nullptr;
  Histogram* m_abs_err_ = nullptr;
};

}  // namespace nrs
