// Commercial-cell monitor (paper section 6, "Internet Measurement"):
// watch a busy cell with churning UEs — the T-Mobile "come-and-go"
// pattern of Fig. 10/11 — and print a periodic cell-load report: distinct
// UEs seen, active UEs, aggregate throughput and retransmission health.
//
// The monitor runs the full asynchronous pipeline (demod workers + in-order
// collector) in push mode: a reporting SlotSink prints the load report plus
// a MetricsSnapshot line (queue depth, drops, blind-decode p95) every few
// seconds, and a MetricsCsvSink leaves a per-stage timing record in
// cell_monitor_metrics.csv.
//
// --fault injects one mid-run impairment and lets the sniffer heal in
// place (DESIGN.md "Failure model and recovery"): outage and cfo script a
// FaultSchedule into the virtual radio, restart rebuilds the gNB under a
// new PCI.  The final line reports the sync-loss/resync statistics.
//
// --predict [--weights PATH] rides an online PredictionSink on the same
// pipeline and adds predicted-vs-actual per-UE throughput columns to each
// report (matured forecasts only; PATH defaults to the pinned
// tools/weights/predictor_v1.txt, persistence baseline as fallback).
//
// Run:  ./build/examples/cell_monitor
//       ./build/examples/cell_monitor --fault outage
//       ./build/examples/cell_monitor --predict
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>

#include "analysis/prediction_sink.h"
#include "analysis/predictor.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"
#include "radio/virtual_radio.h"
#include "ue/churn.h"

namespace {

using namespace nrs;

/// Push-mode consumer: runs on the collector thread (the only thread that
/// mutates the engine), so reading the engine's telemetry here is safe.
class MonitorSink : public SlotSink {
 public:
  MonitorSink(const NrScopePipeline& pipeline, double slot_s,
              unsigned report_every_slots)
      : pipeline_(&pipeline), slot_s_(slot_s),
        report_every_(report_every_slots) {}

  /// Wire the predicted-vs-actual columns (--predict).  Both sinks run on
  /// the collector thread, so reading the emitted set here is race-free.
  void attach_predictions(const PredictionSink* sink,
                          const PredictionSet* latest) {
    prediction_sink_ = sink;
    latest_set_ = latest;
  }

  void on_slot(const SlotResult& result) override {
    if (result.slot == 0 || result.slot % report_every_ != 0) {
      return;
    }
    const CellTelemetry& telemetry = pipeline_->engine().telemetry();
    double cell_bps = 0.0;
    std::uint64_t dcis = 0;
    std::uint64_t retx_count = 0;
    for (const auto& [rnti, telem] : telemetry.ues()) {
      distinct_.insert(rnti);
      cell_bps += telem.dl_rate_bps(result.slot, slot_s_);
      dcis += telem.harq().observed();
      retx_count += telem.harq().retransmissions();
    }
    const double retx = dcis ? 100.0 * static_cast<double>(retx_count) /
                                   static_cast<double>(dcis)
                             : 0.0;
    std::printf("%8.1f %9zu %9zu %12.2f %10.2f\n", result.slot * slot_s_,
                distinct_.size(), telemetry.ues().size(), cell_bps / 1e6,
                retx);

    const MetricsSnapshot snap = pipeline_->metrics();
    const auto* depth = snap.find_gauge("pipeline.input_queue_depth");
    const auto* blind = snap.find_histogram("nrscope.blind_decode_us");
    std::printf("         [metrics] queue_depth=%ld dropped=%llu "
                "(full=%llu finished=%llu) blind_decode_p95=%.1f us "
                "evictions=%llu\n",
                depth != nullptr ? static_cast<long>(depth->value) : 0L,
                static_cast<unsigned long long>(
                    snap.counter_value("pipeline.slots_dropped.queue_full") +
                    snap.counter_value("pipeline.slots_dropped.finished")),
                static_cast<unsigned long long>(
                    snap.counter_value("pipeline.slots_dropped.queue_full")),
                static_cast<unsigned long long>(
                    snap.counter_value("pipeline.slots_dropped.finished")),
                blind != nullptr ? blind->p95() : 0.0,
                static_cast<unsigned long long>(
                    snap.counter_value("nrscope.stale_ue_evictions")));

    if (prediction_sink_ == nullptr) {
      return;
    }
    std::printf("         [predict] made=%llu matured=%llu MAE=%.2f Mbps "
                "within20=%.0f%%\n",
                static_cast<unsigned long long>(
                    prediction_sink_->predictions_made()),
                static_cast<unsigned long long>(
                    prediction_sink_->predictions_matured()),
                prediction_sink_->mae_mbps(),
                100.0 * prediction_sink_->within20_rate());
    for (const PredictionEntry& entry : latest_set_->entries) {
      if (!entry.has_actual) {
        continue;
      }
      std::printf("           0x%04x pred %8.2f Mbps  actual %8.2f Mbps  "
                  "|err| %6.2f%s\n",
                  entry.rnti, entry.predicted_bps / 1e6,
                  entry.actual_bps / 1e6, entry.abs_error_bps / 1e6,
                  entry.degraded ? "  (degraded)" : "");
    }
  }

  [[nodiscard]] std::size_t distinct_ues() const { return distinct_.size(); }

 private:
  const NrScopePipeline* pipeline_;
  double slot_s_;
  unsigned report_every_;
  std::set<Rnti> distinct_;
  const PredictionSink* prediction_sink_ = nullptr;
  const PredictionSet* latest_set_ = nullptr;
};

}  // namespace

int main(int argc, char** argv) {
  std::string fault;
  bool predict = false;
  std::string weights_path = "tools/weights/predictor_v1.txt";
  constexpr std::uint64_t kFaultSlot = 20000;  // 10 s in: cell is warm
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      fault = argv[++i];
    } else if (std::strcmp(argv[i], "--predict") == 0) {
      predict = true;
    } else if (std::strcmp(argv[i], "--weights") == 0 && i + 1 < argc) {
      weights_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: cell_monitor [--fault outage|cfo|restart] "
                   "[--predict] [--weights PATH]\n");
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 1;
    }
  }

  GnbConfig gnb_config;
  gnb_config.cell = tmobile_cell1();
  gnb_config.seed = 9;
  auto gnb = std::make_unique<GnbSim>(std::move(gnb_config));
  const CellConfig monitored_cell = gnb->cell();

  VirtualRadioConfig radio_config;
  radio_config.n_prb = monitored_cell.n_prb;
  radio_config.channel.snr_db = 21.0;
  radio_config.channel.profile = ChannelProfile::kPedestrian;
  if (fault == "outage") {
    radio_config.faults.events.push_back(
        {FaultKind::kOutage, kFaultSlot, 150, 35.0});
  } else if (fault == "cfo") {
    radio_config.faults.events.push_back(
        {FaultKind::kCfoStep, kFaultSlot, 200, 22500.0});
  } else if (!fault.empty() && fault != "restart") {
    std::fprintf(stderr, "unknown --fault '%s' (outage, cfo, restart)\n",
                 fault.c_str());
    return 1;
  }
  VirtualRadio radio(radio_config);
  if (!fault.empty()) {
    std::printf("injecting a %s at slot %llu\n", fault.c_str(),
                static_cast<unsigned long long>(kFaultSlot));
  }

  NrScopeConfig scope_config;
  scope_config.n_prb = monitored_cell.n_prb;
  scope_config.scs = monitored_cell.scs;
  scope_config.ue_inactivity_slots = 1500;  // 1.5 s idle -> departed
  NrScopePipeline pipeline(scope_config, /*n_demod_workers=*/2);

  const double slot_s = slot_duration_s(monitored_cell.scs);
  auto monitor = std::make_shared<MonitorSink>(pipeline, slot_s,
                                               /*report_every_slots=*/3000);

  // --predict: forecast sink first, monitor second, so each report sees
  // the forecast set emitted on the same slot.
  std::shared_ptr<PredictionSink> prediction_sink;
  auto latest_set = std::make_shared<PredictionSet>();
  if (predict) {
    PredictorWeights weights = PredictorWeights::baseline(200);
    if (const auto loaded = PredictorWeights::load(weights_path)) {
      weights = *loaded;
      std::printf("predicting with %s (model v%u)\n", weights_path.c_str(),
                  weights.model_version);
    } else {
      std::printf("cannot load '%s'; predicting with the persistence "
                  "baseline\n", weights_path.c_str());
    }
    PredictionSinkConfig sink_config;
    sink_config.features.scs = monitored_cell.scs;
    sink_config.features.n_prb = monitored_cell.n_prb;
    sink_config.period_slots = 40;
    prediction_sink = std::make_shared<PredictionSink>(
        std::make_shared<ThroughputPredictor>(weights), sink_config,
        &pipeline.metrics_registry(),
        [latest_set](const PredictionSet& set) { *latest_set = set; });
    pipeline.add_sink("predict", prediction_sink);
    monitor->attach_predictions(prediction_sink.get(), latest_set.get());
  }
  pipeline.add_sink("monitor", monitor);
  pipeline.add_sink("metrics_csv", std::make_shared<MetricsCsvSink>(
      "cell_monitor_metrics.csv", pipeline.metrics_registry(),
      /*period_slots=*/3000));

  // 30 s of compressed-time churn (the paper observes 10 min windows).
  ChurnConfig churn;
  churn.arrival_rate_per_s = 0.4;
  churn.short_dwell_mean_s = 3.0;
  churn.long_dwell_mean_s = 12.0;
  churn.duration_s = 30.0;
  churn.seed = 17;
  const auto sessions = generate_churn(churn);

  const auto n_slots = static_cast<unsigned>(churn.duration_s / slot_s);
  std::size_t next_arrival = 0;
  std::vector<std::pair<double, unsigned>> departures;

  std::printf("monitoring %s for %.0f s (compressed churn)\n",
              monitored_cell.name.c_str(), churn.duration_s);
  std::printf("%8s %9s %9s %12s %10s\n", "t (s)", "distinct", "active",
              "cell Mbps", "retx %");
  for (unsigned slot = 0; slot < n_slots; ++slot) {
    const double now = slot * slot_s;
    if (fault == "restart" && slot == kFaultSlot) {
      // The gNB restarts under a new PCI: the sniffer's sync collapses,
      // it resyncs, notices the PCI change, flushes and re-locks — no
      // process restart, no pipeline teardown.
      GnbConfig restarted;
      restarted.cell = monitored_cell;
      restarted.cell.pci = static_cast<std::uint16_t>(
          (monitored_cell.pci + 7) % 1008);
      restarted.cell.coreset.shift = restarted.cell.pci;
      restarted.cell.coreset.n_id = restarted.cell.pci;
      restarted.seed = 10;
      gnb = std::make_unique<GnbSim>(std::move(restarted));
      departures.clear();  // old UE ids died with the old gNB
    }
    while (next_arrival < sessions.size() &&
           sessions[next_arrival].arrival_s <= now) {
      UeConfig ue;
      ue.channel.snr_db = 16.0 + (next_arrival % 10);
      ue.channel.profile = ChannelProfile::kPedestrian;
      ue.channel.seed = 900 + next_arrival;
      ue.dl_traffic = std::make_unique<PoissonSource>(
          60.0, 1200, 300 + next_arrival);
      ue.seed = next_arrival + 1;
      const unsigned id = gnb->add_ue(std::move(ue));
      departures.emplace_back(sessions[next_arrival].departure_s, id);
      ++next_arrival;
    }
    for (auto& [t, id] : departures) {
      if (t > 0 && t <= now) {
        gnb->remove_ue(id);
        t = -1.0;
      }
    }

    // Feed the pipeline at the radio's pace, as a real radio would: a
    // saturated queue sheds the slot (counted in
    // pipeline.slots_dropped.queue_full), and the feeder declares the lost
    // air time so the engine's frame phase stays locked.
    auto samples = pipeline.acquire_samples();
    radio.capture_into(gnb->step(), *samples);
    if (!pipeline.push_slot(std::move(samples))) {
      pipeline.skip_slots(1);
    }
  }
  pipeline.stop();  // drains the queued slots through the sinks

  std::printf("saw %zu distinct UEs; churn truth started %zu sessions\n",
              monitor->distinct_ues(), next_arrival);
  const SyncMonitor& sync = pipeline.engine().sync_monitor();
  std::printf("sync health: state=%s losses=%llu resyncs=%llu "
              "pci_changes=%llu degraded_slots=%llu\n",
              to_string(pipeline.engine().state()),
              static_cast<unsigned long long>(sync.sync_losses()),
              static_cast<unsigned long long>(sync.resyncs()),
              static_cast<unsigned long long>(sync.pci_changes()),
              static_cast<unsigned long long>(pipeline.metrics().counter_value(
                  "nrscope.degraded_slots")));
  std::printf("wrote per-stage metrics to cell_monitor_metrics.csv\n");
  return 0;
}
