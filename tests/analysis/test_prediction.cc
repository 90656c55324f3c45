// Predictor, trainer and PredictionSink tests: ridge recovery of a known
// linear target, stump refinement, the weights-file round trip (saved
// output reloads and reproduces the training-set MAE), the pinned
// checked-in weights, and the sink's forecast/maturation bookkeeping on a
// synthetic slot stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/prediction_sink.h"
#include "analysis/predictor.h"
#include "analysis/training.h"
#include "nr/rach.h"

namespace nrs {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

/// Deterministic synthetic training set: y depends linearly on features 0
/// and 5 plus a threshold effect on feature 10 (so stumps have work).
TrainingSet synthetic_set(std::size_t n, bool with_step = false) {
  TrainingSet data;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector x{};
    x[0] = static_cast<double>(i % 17) * 0.5;
    x[5] = static_cast<double>((i * 7) % 13) * 0.3;
    x[10] = static_cast<double>(i % 4);
    double y = 1.5 + 2.0 * x[0] + 0.8 * x[5];
    if (with_step && x[10] >= 2.0) {
      y += 3.0;
    }
    data.x.push_back(x);
    data.y_mbps.push_back(y);
  }
  return data;
}

TEST(Training, RidgeRecoversLinearTarget) {
  const TrainingSet data = synthetic_set(400);
  TrainOptions opt;
  opt.stump_rounds = 0;
  const PredictorWeights w = train_predictor(data, opt, 200, 3);
  EXPECT_EQ(w.model, PredictorModel::kRidge);
  EXPECT_EQ(w.model_version, 3u);
  EXPECT_EQ(w.horizon_slots, 200u);
  EXPECT_FALSE(w.validate().has_value());

  const ThroughputPredictor p(w);
  const PredictionEval eval = evaluate_predictor(p, data);
  EXPECT_EQ(eval.n, data.size());
  EXPECT_LT(eval.mae_mbps, 0.05) << "an exactly linear target must fit";
  EXPECT_GT(eval.within20_rate, 0.95);
}

TEST(Training, StumpsImproveOnStepTarget) {
  const TrainingSet data = synthetic_set(400, /*with_step=*/true);
  TrainOptions ridge_only;
  ridge_only.stump_rounds = 0;
  TrainOptions boosted;
  boosted.stump_rounds = 32;
  const ThroughputPredictor ridge(train_predictor(data, ridge_only, 200));
  const ThroughputPredictor gbt(train_predictor(data, boosted, 200));
  EXPECT_EQ(gbt.weights().model, PredictorModel::kRidgeGbt);
  EXPECT_FALSE(gbt.weights().stumps.empty());
  const double ridge_mae = evaluate_predictor(ridge, data).mae_mbps;
  const double gbt_mae = evaluate_predictor(gbt, data).mae_mbps;
  EXPECT_LT(gbt_mae, ridge_mae)
      << "stumps must pick up the step the linear model cannot";
}

TEST(Training, SaveLoadReproducesTrainingSetMae) {
  const TrainingSet data = synthetic_set(300, /*with_step=*/true);
  TrainOptions opt;
  opt.stump_rounds = 16;
  const PredictorWeights w = train_predictor(data, opt, 120, 5);
  const ThroughputPredictor trained(w);
  const double mae_before = evaluate_predictor(trained, data).mae_mbps;

  const std::string path = temp_path("roundtrip_weights.txt");
  ASSERT_TRUE(w.save(path));
  const auto loaded = PredictorWeights::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, w) << "text round trip must be exact field for field";

  const ThroughputPredictor reloaded(*loaded);
  const double mae_after = evaluate_predictor(reloaded, data).mae_mbps;
  EXPECT_NEAR(mae_after, mae_before, 1e-9)
      << "the reloaded model must reproduce the training-set MAE";
  std::remove(path.c_str());
}

TEST(Training, LoadRejectsCorruptFiles) {
  EXPECT_FALSE(PredictorWeights::load("/nonexistent/weights.txt"));

  const std::string bad_header = temp_path("bad_header.txt");
  {
    std::ofstream out(bad_header);
    out << "not-a-weights-file v9\n";
  }
  EXPECT_FALSE(PredictorWeights::load(bad_header));
  std::remove(bad_header.c_str());

  // A structurally valid save that is then truncated must not load.
  const TrainingSet data = synthetic_set(100);
  const PredictorWeights w = train_predictor(data, {}, 200);
  const std::string truncated = temp_path("truncated.txt");
  ASSERT_TRUE(w.save(truncated));
  std::string contents;
  {
    std::ifstream in(truncated);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(truncated);
    out << contents.substr(0, contents.size() / 2);
  }
  EXPECT_FALSE(PredictorWeights::load(truncated));
  std::remove(truncated.c_str());
}

TEST(Predictor, BaselineIsPersistenceOnMidWindow) {
  const ThroughputPredictor baseline(PredictorWeights::baseline(200));
  EXPECT_EQ(baseline.weights().model_version, 0u);
  FeatureVector x{};
  x[5] = 4.25;  // dl_mbps_mid
  EXPECT_NEAR(baseline.predict_mbps(x), 4.25, 1e-9);
  x[5] = -3.0;  // never negative, whatever the features claim
  EXPECT_GE(baseline.predict_mbps(x), 0.0);
}

TEST(Predictor, RejectsInvalidWeights) {
  PredictorWeights w = PredictorWeights::baseline(200);
  w.scale[3] = 0.0;
  EXPECT_TRUE(w.validate().has_value());
  EXPECT_THROW(ThroughputPredictor{w}, std::invalid_argument);

  w = PredictorWeights::baseline(200);
  w.stumps.push_back({kPredictionFeatureCount, 0.0, 0.0, 0.0});
  EXPECT_TRUE(w.validate().has_value());
}

// The checked-in weights file every runtime consumer defaults to: it must
// load, validate, and carry a real (non-baseline) trained model.
TEST(Predictor, PinnedWeightsFileLoads) {
  const auto pinned = PredictorWeights::load(NRS_PREDICTOR_WEIGHTS);
  ASSERT_TRUE(pinned.has_value())
      << "pinned weights missing or invalid: " << NRS_PREDICTOR_WEIGHTS;
  EXPECT_FALSE(pinned->validate().has_value());
  EXPECT_GE(pinned->model_version, 1u);
  EXPECT_GT(pinned->horizon_slots, 0u);
  const ThroughputPredictor p(*pinned);
  FeatureVector x{};
  x[0] = x[5] = x[10] = 2.0;
  const double y = p.predict_mbps(x);
  EXPECT_TRUE(std::isfinite(y));
  EXPECT_GE(y, 0.0);
}

// ---------------------------------------------------------------------------
// PredictionSink on a synthetic constant-rate stream: with the persistence
// baseline, predicted == realized, so every matured forecast scores within
// tolerance.  At 30 kHz SCS the short feature window, which is also the
// sink's warm-up, is 200 slots.

DecodedDci constant_dci(Rnti rnti, unsigned tbs_bits) {
  DecodedDci dci;
  dci.rnti = rnti;
  dci.grant.rnti = rnti;
  dci.grant.format = DciFormat::kDl1_1;
  dci.grant.prb_len = 8;
  dci.grant.mcs = 12;
  dci.grant.tbs = tbs_bits;
  return dci;
}

PredictionSinkConfig sink_config() {
  PredictionSinkConfig cfg;
  cfg.features.scs = Scs::kHz30;
  cfg.features.n_prb = 51;
  cfg.period_slots = 16;
  return cfg;
}

TEST(PredictionSink, ForecastsMatureAndScoreOnSteadyStream) {
  auto predictor = std::make_shared<const ThroughputPredictor>(
      PredictorWeights::baseline(/*horizon_slots=*/64));
  std::uint64_t emits = 0;
  std::uint64_t emitted_entries = 0;
  PredictionSink sink(predictor, sink_config(), nullptr,
                      [&](const PredictionSet& set) {
                        ++emits;
                        emitted_entries += set.entries.size();
                        EXPECT_EQ(set.horizon_slots, 64u);
                        EXPECT_EQ(set.model_version, 0u);
                      });

  const Rnti rnti = kFirstTcRnti;
  SlotResult result;
  result.sync_state = SyncState::kTracking;
  result.dcis.push_back(constant_dci(rnti, 1000));
  for (int i = 0; i < 207; ++i) {
    sink.on_slot(result);
  }
  EXPECT_EQ(sink.predictions_made(), 0u)
      << "no forecast before the short window has filled and a period ends";
  sink.on_slot(result);  // slot 208: the first period end past warm-up
  EXPECT_EQ(sink.predictions_made(), 1u);
  for (int i = 208; i < 400; ++i) {
    sink.on_slot(result);
  }
  EXPECT_GT(sink.predictions_matured(), 0u);
  EXPECT_EQ(sink.predictions_dropped(), 0u);
  EXPECT_EQ(sink.degraded_predictions(), 0u);
  // Persistence on a constant stream is exact once windows are full.
  EXPECT_LT(sink.mae_mbps(), 0.05);
  EXPECT_GT(sink.within20_rate(), 0.99);
  EXPECT_GT(emits, 0u);
  EXPECT_GT(emitted_entries, sink.predictions_made())
      << "emits carry both fresh forecasts and matured scores";
}

TEST(PredictionSink, DegradedSlotsAreFlaggedNotDropped) {
  auto predictor = std::make_shared<const ThroughputPredictor>(
      PredictorWeights::baseline(/*horizon_slots=*/64));
  PredictionSink sink(predictor, sink_config());

  const Rnti rnti = kFirstTcRnti;
  SlotResult clean;
  clean.sync_state = SyncState::kTracking;
  clean.dcis.push_back(constant_dci(rnti, 1000));
  SlotResult blind;
  blind.sync_state = SyncState::kResync;

  for (int i = 0; i < 300; ++i) {
    sink.on_slot(clean);
  }
  const std::uint64_t made_clean = sink.predictions_made();
  EXPECT_EQ(sink.degraded_predictions(), 0u);
  for (int i = 0; i < 64; ++i) {
    sink.on_slot(blind);  // forecasting continues right through the resync
  }
  EXPECT_GT(sink.predictions_made(), made_clean);
  EXPECT_GT(sink.degraded_predictions(), 0u);
  for (int i = 0; i < 200; ++i) {
    sink.on_slot(clean);
  }
  EXPECT_GT(sink.predictions_matured(), 0u);
  EXPECT_GT(sink.degraded_mae_mbps(), 0.0)
      << "blind-window forecasts matured and were scored separately";
}

TEST(PredictionSink, EvictedUeForecastsAreDroppedNotMisscored) {
  auto predictor = std::make_shared<const ThroughputPredictor>(
      PredictorWeights::baseline(/*horizon_slots=*/64));
  PredictionSink sink(predictor, sink_config(), nullptr);

  const Rnti a = kFirstTcRnti;
  SlotResult alone;
  alone.sync_state = SyncState::kTracking;
  alone.dcis.push_back(constant_dci(a, 1000));
  for (int i = 0; i < 210; ++i) {
    sink.on_slot(alone);  // past warm-up: UE a's forecast is outstanding
  }
  ASSERT_EQ(sink.predictions_made(), 1u);

  // A full table's worth of newcomers, all heard after a: the last one
  // evicts a at the 64-UE bound and takes over its table slot.
  SlotResult crowd;
  crowd.sync_state = SyncState::kTracking;
  for (std::size_t k = 1; k <= kFeatureMaxUes; ++k) {
    crowd.dcis.push_back(constant_dci(static_cast<Rnti>(a + k), 2000));
  }
  for (int i = 0; i < 200; ++i) {
    sink.on_slot(crowd);  // a's slot is reused; its forecast must not score
  }
  EXPECT_EQ(sink.extractor().find(a), FeatureExtractor::npos);
  EXPECT_EQ(sink.extractor().evictions(), 1u);
  EXPECT_EQ(sink.predictions_dropped(), 1u)
      << "exactly a's forecast is dropped; the newcomers' all score";
  EXPECT_GT(sink.predictions_matured(), 0u);
}

TEST(PredictionSink, RejectsBadConfig) {
  auto predictor = std::make_shared<const ThroughputPredictor>(
      PredictorWeights::baseline(64));
  PredictionSinkConfig cfg = sink_config();
  cfg.period_slots = 0;
  EXPECT_THROW(PredictionSink(predictor, cfg), std::invalid_argument);
  EXPECT_THROW(PredictionSink(nullptr, sink_config()),
               std::invalid_argument);
}

}  // namespace
}  // namespace nrs
