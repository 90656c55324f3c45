// Online-prediction benchmark: inference cost and heap discipline of the
// PredictionSink on the steady-state tracking loop, plus forecast accuracy
// (MAE / within-20%) across the sniffer channel profiles and across the
// fault-harness impairments from the resilience work — the "does the
// predictor keep producing sane numbers through a resync" question.
// Allocation numbers come from the counting operator new/delete shim
// (common/alloc_shim.h) included by this binary.
//
// The predictor weights come from --weights (default: the pinned
// tools/weights/predictor_v1.txt relative to the invocation directory);
// when the file is missing the bench falls back to the persistence
// baseline so it still runs, and says so.
//
// Flags:
//   --quick          shorter runs (CI smoke)
//   --json           additionally write BENCH_prediction.json
//   --weights FILE   trained weights file
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/prediction_sink.h"
#include "bench/bench_util.h"
#include "common/alloc_shim.h"

namespace nrs::bench {
namespace {

constexpr unsigned kUes = 4;

NrScopeConfig make_scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  return cfg;
}

std::shared_ptr<const ThroughputPredictor> load_predictor(
    const std::string& path, bool* loaded) {
  if (auto weights = PredictorWeights::load(path)) {
    *loaded = true;
    return std::make_shared<const ThroughputPredictor>(*weights);
  }
  *loaded = false;
  return std::make_shared<const ThroughputPredictor>(
      PredictorWeights::baseline(200));
}

PredictionSinkConfig make_sink_config(const CellConfig& cell) {
  PredictionSinkConfig cfg;
  cfg.features.scs = cell.scs;
  cfg.features.n_prb = cell.n_prb;
  cfg.period_slots = 40;
  return cfg;
}

// ---------------------------------------------------------------------------
// Part 1: hot path.  Recorded steady-state replay through the engine with a
// PredictionSink attached; measures the sink's own per-slot cost and the
// loop's heap traffic (target: 0 allocs/slot once warm).

struct HotpathStats {
  double sink_p50_us = 0.0;
  double sink_p99_us = 0.0;
  double allocs_per_slot = 0.0;
  double bytes_per_slot = 0.0;
  double infer_ns_per_forecast = 0.0;
  double infer_ns_per_ue_slot = 0.0;
  std::uint64_t forecasts = 0;
};

HotpathStats run_hotpath(
    const std::shared_ptr<const ThroughputPredictor>& predictor,
    unsigned n_slots) {
  const CellConfig cell = amarisoft_cell();
  GnbConfig gnb_cfg;
  gnb_cfg.cell = cell;
  gnb_cfg.seed = 5;
  GnbSim gnb(gnb_cfg);
  for (unsigned i = 0; i < kUes; ++i) {
    gnb.add_ue(make_ue(i + 1, 24.0, TrafficKind::kCbr, 2e6));
  }
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = cell.n_prb;
  radio_cfg.channel.snr_db = 28.0;
  VirtualRadio radio(radio_cfg);

  const NrScopeConfig scope_cfg = make_scope_config(cell);
  NrScope scope(scope_cfg);
  PredictionSink sink(predictor, make_sink_config(cell));

  // Record history until tracking + frame-aligned, as bench_hotpath does.
  std::vector<IqBuffer> history;
  const unsigned spf = slots_per_frame(cell.scs);
  SlotResult result;
  for (unsigned i = 0; i < 4000; ++i) {
    history.push_back(radio.capture(gnb.step()));
    scope.process_slot(history.back(), result);
    sink.on_slot(result);
    if (scope.state() == NrScope::State::kTracking &&
        scope.known_ues().size() >= kUes && history.size() % spf == 0) {
      break;
    }
  }
  if (scope.state() != NrScope::State::kTracking) {
    std::fprintf(stderr, "bench_prediction: engine never tracked\n");
    std::exit(1);
  }
  std::size_t replay_start = history.size();
  for (unsigned i = 0; i < spf; ++i) {
    history.push_back(radio.capture(gnb.step()));
  }
  auto replay = [&](std::size_t i) -> const IqBuffer& {
    return history[replay_start + i % spf];
  };

  // Warm-up replay: grow-only containers (engine rate windows, extractor
  // UE rings, pending forecast ring) must hit steady capacity, and at
  // least one full horizon must pass so maturation runs in the measured
  // loop too.
  const std::uint64_t warm_extra =
      scope_cfg.rate_window_slots + 3 * spf +
      predictor->weights().horizon_slots;
  for (std::uint64_t i = 0; i < warm_extra; ++i) {
    scope.process_slot(replay(i), result);
    sink.on_slot(result);
  }

  std::vector<double> sink_us(n_slots, 0.0);
  const std::uint64_t forecasts_before = sink.predictions_made();
  const std::uint64_t infer_before = sink.inference_ns();
  nrs::alloc::reset();
  for (unsigned i = 0; i < n_slots; ++i) {
    scope.process_slot(replay(i), result);
    const auto t0 = std::chrono::steady_clock::now();
    sink.on_slot(result);
    const auto t1 = std::chrono::steady_clock::now();
    sink_us[i] = std::chrono::duration<double, std::micro>(t1 - t0).count();
  }
  const auto totals = nrs::alloc::totals();

  HotpathStats stats;
  std::sort(sink_us.begin(), sink_us.end());
  stats.sink_p50_us = sink_us[sink_us.size() / 2];
  stats.sink_p99_us = sink_us[sink_us.size() * 99 / 100];
  stats.allocs_per_slot = static_cast<double>(totals.allocs) / n_slots;
  stats.bytes_per_slot = static_cast<double>(totals.bytes) / n_slots;
  stats.forecasts = sink.predictions_made() - forecasts_before;
  const std::uint64_t infer_ns = sink.inference_ns() - infer_before;
  if (stats.forecasts > 0) {
    stats.infer_ns_per_forecast =
        static_cast<double>(infer_ns) / static_cast<double>(stats.forecasts);
  }
  // Per tracked-UE per slot: the number the "< 1 us/UE/slot" budget is on.
  stats.infer_ns_per_ue_slot =
      static_cast<double>(infer_ns) / (static_cast<double>(kUes) * n_slots);
  return stats;
}

// ---------------------------------------------------------------------------
// Part 2: accuracy per channel profile (live run, sink scores itself).

struct AccuracyRow {
  std::string name;
  std::uint64_t matured = 0;
  double mae_mbps = 0.0;
  double within20 = 0.0;
  std::uint64_t degraded = 0;
  double degraded_mae_mbps = 0.0;
};

/// Mixed-traffic population mirroring the trainer's app mix (different
/// seeds, so this is held-out data for the pinned weights).
void attach_mixed_ues(GnbSim& gnb, ChannelProfile profile,
                      std::uint64_t seed) {
  const TrafficKind kinds[] = {TrafficKind::kCbr, TrafficKind::kVideo,
                               TrafficKind::kCbr, TrafficKind::kFullBuffer};
  const double rates[] = {1e6, 3e6, 6e6, 0.0};
  for (unsigned i = 0; i < 4; ++i) {
    gnb.add_ue(make_ue(static_cast<unsigned>(seed * 10 + i + 1),
                       14.0 + 4.0 * i, kinds[i], rates[i], profile));
  }
}

AccuracyRow run_profile(
    const std::shared_ptr<const ThroughputPredictor>& predictor,
    ChannelProfile profile, unsigned n_slots) {
  const CellConfig cell = amarisoft_cell();
  GnbConfig gnb_cfg;
  gnb_cfg.cell = cell;
  gnb_cfg.seed = 21;
  GnbSim gnb(gnb_cfg);
  attach_mixed_ues(gnb, profile, 21);

  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = cell.n_prb;
  radio_cfg.channel.snr_db = 26.0;
  radio_cfg.channel.profile = profile;
  VirtualRadio radio(radio_cfg);

  NrScope scope(make_scope_config(cell));
  PredictionSink sink(predictor, make_sink_config(cell));

  SlotResult result;
  for (unsigned i = 0; i < n_slots; ++i) {
    scope.process_slot(radio.capture(gnb.step()), result);
    sink.on_slot(result);
  }

  AccuracyRow row;
  row.name = to_string(profile);
  row.matured = sink.predictions_matured();
  row.mae_mbps = sink.mae_mbps();
  row.within20 = sink.within20_rate();
  row.degraded = sink.degraded_predictions();
  row.degraded_mae_mbps = sink.degraded_mae_mbps();
  return row;
}

// ---------------------------------------------------------------------------
// Part 3: accuracy under fault storms (graceful degradation).  Warm to
// tracking, fire one IQ-level impairment from the fault harness, and keep
// forecasting straight through detection and resync.  Forecasts made while
// blind/degraded carry the degraded flag; the split MAE shows the cost.

struct FaultScenario {
  std::string name;
  FaultSchedule faults;
};

AccuracyRow run_fault(
    const std::shared_ptr<const ThroughputPredictor>& predictor,
    const FaultScenario& scenario, unsigned horizon) {
  const CellConfig cell = amarisoft_cell();
  GnbConfig gnb_cfg;
  gnb_cfg.cell = cell;
  gnb_cfg.seed = 5;
  GnbSim gnb(gnb_cfg);
  for (unsigned i = 0; i < kUes; ++i) {
    gnb.add_ue(make_ue(i + 1, 24.0, TrafficKind::kCbr, 2e6));
  }

  NrScope scope(make_scope_config(cell));
  PredictionSink sink(predictor, make_sink_config(cell));

  // Clean warm-up radio until tracking.
  VirtualRadioConfig warm_cfg;
  warm_cfg.n_prb = cell.n_prb;
  warm_cfg.channel.snr_db = 28.0;
  VirtualRadio warm_radio(warm_cfg);
  SlotResult result;
  std::uint64_t warmup = 0;
  for (; warmup < 20000; ++warmup) {
    scope.process_slot(warm_radio.capture(gnb.step()), result);
    sink.on_slot(result);
    if (scope.state() == NrScope::State::kTracking &&
        scope.known_ues().size() >= kUes) {
      break;
    }
  }

  constexpr std::uint64_t kFaultSlot = 400;
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = cell.n_prb;
  radio_cfg.channel.snr_db = 28.0;
  radio_cfg.faults = scenario.faults;
  for (FaultEvent& ev : radio_cfg.faults.events) {
    ev.start_slot += kFaultSlot;
  }
  VirtualRadio radio(radio_cfg);
  for (std::uint64_t k = 0; k < kFaultSlot + horizon; ++k) {
    scope.process_slot(radio.capture(gnb.step()), result);
    sink.on_slot(result);
  }

  AccuracyRow row;
  row.name = scenario.name;
  row.matured = sink.predictions_matured();
  row.mae_mbps = sink.mae_mbps();
  row.within20 = sink.within20_rate();
  row.degraded = sink.degraded_predictions();
  row.degraded_mae_mbps = sink.degraded_mae_mbps();
  return row;
}

void print_row(const AccuracyRow& r) {
  std::printf("%-18s %8llu %9.3f %9.1f%% %9llu %12.3f\n", r.name.c_str(),
              static_cast<unsigned long long>(r.matured), r.mae_mbps,
              100.0 * r.within20, static_cast<unsigned long long>(r.degraded),
              r.degraded_mae_mbps);
}

void json_rows(std::ofstream& out, const std::vector<AccuracyRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AccuracyRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"matured\": " << r.matured
        << ", \"mae_mbps\": " << r.mae_mbps
        << ", \"within20\": " << r.within20
        << ", \"degraded\": " << r.degraded
        << ", \"degraded_mae_mbps\": " << r.degraded_mae_mbps << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
}

int run(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string weights_path = "tools/weights/predictor_v1.txt";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--weights") == 0 && i + 1 < argc) {
      weights_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_prediction [--quick] [--json] "
                   "[--weights FILE]\n");
      return 2;
    }
  }

  bool weights_loaded = false;
  auto predictor = load_predictor(weights_path, &weights_loaded);
  print_header("Prediction",
               "Online throughput forecasting: cost and accuracy");
  std::printf("model: %s v%u, horizon %llu slots (%s%s)\n\n",
              to_string(predictor->weights().model),
              predictor->weights().model_version,
              static_cast<unsigned long long>(
                  predictor->weights().horizon_slots),
              weights_loaded ? "weights: " : "no weights file, using "
                                             "persistence baseline; tried ",
              weights_path.c_str());

  const unsigned hot_slots = quick ? 400 : 4000;
  const unsigned profile_slots = quick ? 3000 : 8000;
  const unsigned fault_horizon = quick ? 1500 : 4000;

  const HotpathStats hot = run_hotpath(predictor, hot_slots);
  std::printf("hotpath (%u slots, %u UEs, sink attached)\n", hot_slots,
              kUes);
  std::printf("  sink p50 %.2f us   p99 %.2f us   %.2f allocs/slot   "
              "%.0f B/slot\n",
              hot.sink_p50_us, hot.sink_p99_us, hot.allocs_per_slot,
              hot.bytes_per_slot);
  std::printf("  inference %.0f ns/forecast   %.1f ns/UE/slot   "
              "(%llu forecasts)\n\n",
              hot.infer_ns_per_forecast, hot.infer_ns_per_ue_slot,
              static_cast<unsigned long long>(hot.forecasts));

  std::printf("%-18s %8s %9s %10s %9s %12s\n", "scenario", "matured", "MAE",
              "within20", "degraded", "degraded MAE");
  std::vector<AccuracyRow> profile_rows;
  const ChannelProfile profiles[] = {
      ChannelProfile::kAwgn, ChannelProfile::kPedestrian,
      ChannelProfile::kVehicle, ChannelProfile::kUrban};
  for (ChannelProfile p : profiles) {
    profile_rows.push_back(run_profile(predictor, p, profile_slots));
    print_row(profile_rows.back());
  }

  std::vector<FaultScenario> storms;
  storms.push_back(
      {"outage_35db", {{{FaultKind::kOutage, 0, 120, 35.0}}}});
  storms.push_back(
      {"sample_gap_97pct", {{{FaultKind::kSampleGap, 0, 400, 0.97}}}});
  storms.push_back(
      {"cfo_step_22khz", {{{FaultKind::kCfoStep, 0, 240, 22500.0}}}});
  std::vector<AccuracyRow> fault_rows;
  for (const FaultScenario& s : storms) {
    fault_rows.push_back(run_fault(predictor, s, fault_horizon));
    print_row(fault_rows.back());
  }
  std::printf("\n(MAE in Mbps over matured forecasts; degraded = forecasts "
              "made while blind/resyncing)\n");

  if (json) {
    std::ofstream out("BENCH_prediction.json");
    out << "{\n  \"weights_loaded\": " << (weights_loaded ? "true" : "false")
        << ",\n  \"model_version\": " << predictor->weights().model_version
        << ",\n  \"horizon_slots\": " << predictor->weights().horizon_slots
        << ",\n  \"hotpath\": {\n"
        << "    \"slots\": " << hot_slots << ",\n"
        << "    \"sink_p50_us\": " << hot.sink_p50_us << ",\n"
        << "    \"sink_p99_us\": " << hot.sink_p99_us << ",\n"
        << "    \"allocs_per_slot\": " << hot.allocs_per_slot << ",\n"
        << "    \"bytes_per_slot\": " << hot.bytes_per_slot << ",\n"
        << "    \"inference_ns_per_forecast\": " << hot.infer_ns_per_forecast
        << ",\n"
        << "    \"inference_ns_per_ue_slot\": " << hot.infer_ns_per_ue_slot
        << "\n  },\n  \"profiles\": [\n";
    json_rows(out, profile_rows);
    out << "  ],\n  \"faults\": [\n";
    json_rows(out, fault_rows);
    out << "  ]\n}\n";
    std::printf("\nwrote BENCH_prediction.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace nrs::bench

int main(int argc, char** argv) { return nrs::bench::run(argc, argv); }
