// Remote telemetry consumer (the "downstream application" of the paper's
// Section 6 use cases, e.g. cloud-gaming bitrate adaptation): connects to a
// TelemetryStreamServer over TCP, decodes the wire-protocol frames, and
// reconstructs per-UE throughput / MCS / retransmission telemetry without
// ever linking against the sniffer pipeline.
//
// Modes:
//   ./build/examples/telemetry_client
//       Self-contained demo: runs a simulated cell + sniffer pipeline with
//       a streaming server sink in-process, connects a client over
//       loopback, forces one server-side disconnect mid-run to show the
//       automatic reconnect, and verifies the remotely reconstructed CSV
//       is row-identical to the local TelemetryLogWriter file.
//   ./build/examples/telemetry_client --connect HOST PORT [--csv PATH]
//       Pure remote consumer: subscribe to a live server, print a per-UE
//       report as frames arrive, optionally append DCI rows to PATH.
//   ./build/examples/telemetry_client --query HOST PORT METRIC [options]
//       One-shot history query against a server with an attached
//       HistoryStore: range scan by default, --bucket N for downsampled
//       aggregates, --topk K for the spare-capacity / per-UE ranking.
//   ./build/examples/telemetry_client --predictions [--weights PATH]
//       Online-prediction demo: the in-process pipeline carries a
//       PredictionSink whose per-period forecast sets stream to the
//       client as kPrediction frames; the client prints predicted vs.
//       realized per-UE throughput as forecasts mature.  PATH defaults
//       to the pinned tools/weights/predictor_v1.txt (falls back to the
//       persistence baseline when it cannot be loaded).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/prediction_sink.h"
#include "analysis/predictor.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "nrscope/log_writer.h"
#include "nrscope/pipeline.h"
#include "radio/virtual_radio.h"
#include "store/history_store.h"
#include "store/query.h"
#include "store/store_sink.h"

namespace {

using namespace nrs;

/// Per-UE reconstruction from SlotResult frames alone — the remote side
/// of the paper's per-UE throughput/MCS/retx telemetry.
class RemoteTelemetry {
 public:
  void on_slot(const SlotResult& result) {
    std::lock_guard lock(mutex_);
    last_slot_ = result.slot;
    ++slots_;
    for (const DecodedDci& dci : result.dcis) {
      UeStats& ue = ues_[dci.rnti];
      ++ue.dcis;
      ue.retx += dci.is_retx ? 1 : 0;
      if (is_downlink(dci.dci.format) && !dci.is_retx) {
        ue.dl_bits += dci.grant.tbs;
      }
      ue.last_mcs = dci.grant.mcs;
    }
  }

  void print_report(double slot_duration_s) {
    std::lock_guard lock(mutex_);
    const double elapsed =
        static_cast<double>(last_slot_ + 1) * slot_duration_s;
    std::printf("  %-8s %10s %6s %8s\n", "rnti", "DL Mbps", "MCS",
                "retx %");
    for (const auto& [rnti, ue] : ues_) {
      const double mbps =
          elapsed > 0 ? static_cast<double>(ue.dl_bits) / elapsed / 1e6
                      : 0.0;
      const double retx =
          ue.dcis > 0
              ? 100.0 * static_cast<double>(ue.retx) /
                    static_cast<double>(ue.dcis)
              : 0.0;
      std::printf("  0x%04x   %10.3f %6u %8.2f\n", rnti, mbps, ue.last_mcs,
                  retx);
    }
  }

  std::uint64_t slots() {
    std::lock_guard lock(mutex_);
    return slots_;
  }

 private:
  struct UeStats {
    std::uint64_t dl_bits = 0;
    std::uint64_t dcis = 0;
    std::uint64_t retx = 0;
    unsigned last_mcs = 0;
  };

  std::mutex mutex_;
  std::map<Rnti, UeStats> ues_;
  std::uint64_t last_slot_ = 0;
  std::uint64_t slots_ = 0;
};

bool files_identical(const std::string& a, const std::string& b) {
  std::ifstream in_a(a);
  std::ifstream in_b(b);
  std::stringstream text_a;
  std::stringstream text_b;
  text_a << in_a.rdbuf();
  text_b << in_b.rdbuf();
  return !text_a.str().empty() && text_a.str() == text_b.str();
}

int run_demo() {
  const std::string local_path = "telemetry_client_local.csv";
  const std::string remote_path = "telemetry_client_remote.csv";

  GnbConfig gnb_config;
  gnb_config.cell = srsran_cell();
  gnb_config.seed = 5;
  GnbSim gnb(std::move(gnb_config));
  for (unsigned u = 0; u < 2; ++u) {
    UeConfig ue;
    ue.channel.snr_db = 24.0;
    ue.dl_traffic = std::make_unique<CbrSource>(2e6 + 1e6 * u);
    ue.seed = u + 1;
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb.cell().n_prb;
  radio_config.channel.snr_db = 26.0;
  VirtualRadio radio(radio_config);

  NrScopeConfig scope_config;
  scope_config.n_prb = gnb.cell().n_prb;
  scope_config.scs = gnb.cell().scs;
  NrScopePipeline pipeline(scope_config);

  // Telemetry history lives beside the stream: the same server answers
  // kQuery frames out of this store while fanning out live slots.
  HistoryStore store({}, &pipeline.metrics_registry());

  StreamServerConfig server_config;
  server_config.metrics_period_slots = 1000;
  server_config.query_handler = history_query_handler(store);
  auto server = std::make_shared<TelemetryStreamServer>(
      server_config, &pipeline.metrics_registry());
  StoreSinkConfig store_sink_config;
  store_sink_config.n_prb = gnb.cell().n_prb;
  pipeline.add_sink("csv",
                    std::make_shared<TelemetryLogWriter>(local_path));
  pipeline.add_sink("store",
                    std::make_shared<HistoryStoreSink>(store,
                                                       store_sink_config));
  pipeline.add_sink("stream", server);
  std::printf("streaming server listening on 127.0.0.1:%u (sinks:",
              server->port());
  for (const std::string& name : pipeline.sink_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf(")\n");

  RemoteTelemetry remote;
  std::ofstream remote_csv(remote_path);
  remote_csv << TelemetryLogWriter::header() << '\n';
  std::mutex csv_mutex;
  std::uint64_t last_remote_slot = 0;
  int hellos = 0;

  StreamClientHandlers handlers;
  handlers.on_connected = [&](const HelloInfo& hello) {
    std::lock_guard lock(csv_mutex);
    ++hellos;
    std::printf("[client] connected (hello: next_slot=%llu)\n",
                static_cast<unsigned long long>(hello.next_slot));
  };
  handlers.on_slot = [&](const SlotResult& result) {
    remote.on_slot(result);
    std::lock_guard lock(csv_mutex);
    for (const DecodedDci& dci : result.dcis) {
      remote_csv << TelemetryLogWriter::format_row(dci) << '\n';
    }
    last_remote_slot = result.slot;
  };
  handlers.on_metrics = [&](const MetricsSnapshot& snapshot) {
    std::printf("[client] metrics frame: frames_sent=%llu "
                "bytes_sent=%llu clients=%lld\n",
                static_cast<unsigned long long>(
                    snapshot.counter_value("net.frames_sent")),
                static_cast<unsigned long long>(
                    snapshot.counter_value("net.bytes_sent")),
                static_cast<long long>([&] {
                  const auto* g = snapshot.find_gauge("net.clients");
                  return g != nullptr ? g->value : 0;
                }()));
  };
  handlers.on_disconnected = [] {
    std::printf("[client] disconnected; reconnecting with backoff...\n");
  };

  StreamClientConfig client_config;
  client_config.port = server->port();
  TelemetryStreamClient client(client_config, handlers);
  if (!client.wait_connected(5.0)) {
    std::fprintf(stderr, "client failed to connect\n");
    return 1;
  }

  const unsigned n_slots = 4000;
  const auto wait_remote_slot = [&](std::uint64_t target) {
    for (int i = 0; i < 5000; ++i) {
      {
        std::lock_guard lock(csv_mutex);
        if (last_remote_slot >= target) {
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };

  for (unsigned slot = 0; slot < n_slots; ++slot) {
    auto samples = pipeline.acquire_samples();
    radio.capture_into(gnb.step(), *samples);
    pipeline.push_slot_wait(std::move(samples));
    if (slot == n_slots / 2) {
      // Demonstrate resilience: hold the feed at the halfway point, boot
      // the client server-side, and wait for its resubscription.
      if (!wait_remote_slot(slot)) {
        std::fprintf(stderr, "remote consumer fell behind\n");
        return 1;
      }
      std::printf("forcing a server-side disconnect at slot %u\n", slot);
      server->kick_all_clients();
      for (int i = 0; i < 5000; ++i) {
        {
          std::lock_guard lock(csv_mutex);
          if (hellos >= 2) {
            break;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      while (server->client_count() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  // Query the history over the same connection while the stream is still
  // live: range / aggregate / top-K all answered from the embedded store.
  if (!wait_remote_slot(n_slots - 1)) {
    std::fprintf(stderr, "remote consumer fell behind\n");
    return 1;
  }
  {
    QueryRequest agg;
    agg.kind = QueryKind::kAggregate;
    agg.rnti = kStoreCellRnti;
    agg.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
    agg.slot_from = 0;
    agg.slot_to = n_slots;
    agg.bucket_slots = 500;
    if (const auto response = client.query(agg, 5.0);
        response && response->status == QueryStatus::kOk) {
      std::printf("\n[query] avg spare PRBs per 500-slot bucket:\n");
      for (const QueryBucket& bucket : response->buckets) {
        std::printf("  slots %6" PRIu64 "..%-6" PRIu64 "  %6.2f\n",
                    bucket.slot_start, bucket.slot_start + 499,
                    bucket.avg);
      }
    } else {
      std::fprintf(stderr, "aggregate query failed: %s\n",
                   response ? response->error.c_str() : "timeout");
      return 1;
    }

    QueryRequest top;
    top.kind = QueryKind::kTopK;
    top.cell = 0;
    top.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
    top.slot_from = 0;
    top.slot_to = n_slots;
    top.k = 4;
    if (const auto response = client.query(top, 5.0);
        response && response->status == QueryStatus::kOk) {
      std::printf("[query] top UEs by mean DL TBS per grant:\n");
      for (const TopKEntry& entry : response->ranking) {
        std::printf("  0x%04x  %10.0f bits (%" PRIu64 " grants)\n",
                    entry.rnti, entry.score, entry.rows);
      }
    } else {
      std::fprintf(stderr, "top-K query failed: %s\n",
                   response ? response->error.c_str() : "timeout");
      return 1;
    }
  }

  pipeline.stop();
  if (!client.wait_end_of_stream(10.0)) {
    std::fprintf(stderr, "no end-of-stream frame\n");
    return 1;
  }
  {
    std::lock_guard lock(csv_mutex);
    remote_csv.flush();
  }

  std::printf("\nremotely reconstructed telemetry (%llu slots):\n",
              static_cast<unsigned long long>(remote.slots()));
  remote.print_report(slot_duration_s(gnb.cell().scs));

  const MetricsSnapshot snap = pipeline.metrics();
  std::printf("\n[net] frames_sent=%llu bytes_sent=%llu connects=%llu "
              "dropped=%llu\n",
              static_cast<unsigned long long>(
                  snap.counter_value("net.frames_sent")),
              static_cast<unsigned long long>(
                  snap.counter_value("net.bytes_sent")),
              static_cast<unsigned long long>(
                  snap.counter_value("net.client_connects")),
              static_cast<unsigned long long>(
                  snap.counter_value("net.frames_dropped.drop_oldest")));

  const bool identical = files_identical(local_path, remote_path);
  std::printf("remote CSV %s local TelemetryLogWriter CSV (%s vs %s)\n",
              identical ? "is row-identical to"
                        : "DIFFERS from",
              remote_path.c_str(), local_path.c_str());
  return identical ? 0 : 1;
}

int run_predictions_demo(const std::string& weights_path) {
  GnbConfig gnb_config;
  gnb_config.cell = amarisoft_cell();  // the pinned model's training cell
  gnb_config.seed = 9;
  GnbSim gnb(std::move(gnb_config));
  // The same app mix the pinned model was trained against: steady CBR,
  // bursty video, heavy CBR, and a saturating full-buffer UE.
  for (unsigned u = 0; u < 4; ++u) {
    UeConfig ue;
    ue.channel.snr_db = 14.0 + 4.0 * u;
    ue.seed = u + 1;
    switch (u) {
      case 0: ue.dl_traffic = std::make_unique<CbrSource>(1e6); break;
      case 1:
        ue.dl_traffic = std::make_unique<VideoSource>(3e6, ue.seed);
        break;
      case 2: ue.dl_traffic = std::make_unique<CbrSource>(6e6); break;
      default: ue.dl_traffic = std::make_unique<FullBufferSource>(); break;
    }
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb.cell().n_prb;
  radio_config.channel.snr_db = 26.0;
  VirtualRadio radio(radio_config);

  NrScopeConfig scope_config;
  scope_config.n_prb = gnb.cell().n_prb;
  scope_config.scs = gnb.cell().scs;
  NrScopePipeline pipeline(scope_config);

  PredictorWeights weights = PredictorWeights::baseline(200);
  if (const auto loaded = PredictorWeights::load(weights_path)) {
    weights = *loaded;
    std::printf("loaded %s (model v%u, horizon %llu slots)\n",
                weights_path.c_str(), weights.model_version,
                static_cast<unsigned long long>(weights.horizon_slots));
  } else {
    std::printf("cannot load '%s'; using the persistence baseline\n",
                weights_path.c_str());
  }
  auto predictor = std::make_shared<ThroughputPredictor>(weights);

  StreamServerConfig server_config;
  auto server = std::make_shared<TelemetryStreamServer>(
      server_config, &pipeline.metrics_registry());

  PredictionSinkConfig sink_config;
  sink_config.features.scs = gnb.cell().scs;
  sink_config.features.n_prb = gnb.cell().n_prb;
  sink_config.period_slots = 40;
  auto sink = std::make_shared<PredictionSink>(
      predictor, sink_config, &pipeline.metrics_registry(),
      [server](const PredictionSet& set) {
        server->broadcast_frame(encode_frame(set));
      });
  pipeline.add_sink("predict", sink);
  pipeline.add_sink("stream", server);

  // Remote consumer: keep the freshest matured entry per UE and print a
  // predicted-vs-actual table every 10 received sets.
  std::mutex mutex;
  std::map<Rnti, PredictionEntry> matured;
  std::uint64_t sets_received = 0;
  std::uint64_t matured_received = 0;

  StreamClientHandlers handlers;
  handlers.on_prediction = [&](const PredictionSet& set) {
    std::lock_guard lock(mutex);
    ++sets_received;
    for (const PredictionEntry& entry : set.entries) {
      if (entry.has_actual) {
        matured[entry.rnti] = entry;
        ++matured_received;
      }
    }
    if (sets_received % 10 != 0 || matured.empty()) {
      return;
    }
    std::printf("\n[slot %llu] matured forecasts (horizon %u slots):\n",
                static_cast<unsigned long long>(set.slot),
                set.horizon_slots);
    std::printf("  %-8s %12s %12s %10s %s\n", "rnti", "pred Mbps",
                "actual Mbps", "|err|", "flag");
    for (const auto& [rnti, entry] : matured) {
      std::printf("  0x%04x   %12.3f %12.3f %10.3f %s\n", rnti,
                  entry.predicted_bps / 1e6, entry.actual_bps / 1e6,
                  entry.abs_error_bps / 1e6,
                  entry.degraded ? "degraded" : "");
    }
  };

  StreamClientConfig client_config;
  client_config.port = server->port();
  TelemetryStreamClient client(client_config, handlers);
  if (!client.wait_connected(5.0)) {
    std::fprintf(stderr, "client failed to connect\n");
    return 1;
  }

  const unsigned n_slots = 8000;  // 4 s at 30 kHz: plenty of maturations
  for (unsigned slot = 0; slot < n_slots; ++slot) {
    auto samples = pipeline.acquire_samples();
    radio.capture_into(gnb.step(), *samples);
    pipeline.push_slot_wait(std::move(samples));
  }
  pipeline.stop();
  if (!client.wait_end_of_stream(10.0)) {
    std::fprintf(stderr, "no end-of-stream frame\n");
    return 1;
  }

  std::lock_guard lock(mutex);
  std::printf("\nreceived %llu prediction sets (%llu matured entries)\n",
              static_cast<unsigned long long>(sets_received),
              static_cast<unsigned long long>(matured_received));
  std::printf("sink: made=%llu matured=%llu MAE=%.3f Mbps within20=%.1f%% "
              "inference=%.0f ns/forecast\n",
              static_cast<unsigned long long>(sink->predictions_made()),
              static_cast<unsigned long long>(sink->predictions_matured()),
              sink->mae_mbps(), 100.0 * sink->within20_rate(),
              sink->predictions_made() > 0
                  ? static_cast<double>(sink->inference_ns()) /
                        static_cast<double>(sink->predictions_made())
                  : 0.0);
  return sets_received > 0 && matured_received > 0 ? 0 : 1;
}

int run_connect(const std::string& host, std::uint16_t port,
                const std::string& csv_path) {
  RemoteTelemetry remote;
  std::ofstream csv;
  std::mutex csv_mutex;
  if (!csv_path.empty()) {
    csv.open(csv_path);
    csv << TelemetryLogWriter::header() << '\n';
  }

  StreamClientHandlers handlers;
  handlers.on_connected = [](const HelloInfo& hello) {
    std::printf("connected (stream resumes at slot %llu)\n",
                static_cast<unsigned long long>(hello.next_slot));
  };
  handlers.on_slot = [&](const SlotResult& result) {
    remote.on_slot(result);
    if (csv.is_open()) {
      std::lock_guard lock(csv_mutex);
      for (const DecodedDci& dci : result.dcis) {
        csv << TelemetryLogWriter::format_row(dci) << '\n';
      }
    }
  };
  handlers.on_disconnected = [] {
    std::printf("disconnected; retrying...\n");
  };

  StreamClientConfig config;
  config.host = host;
  config.port = port;
  TelemetryStreamClient client(config, handlers);

  // Report once a second until the stream ends (30 kHz SCS assumed for
  // the rate column; the row CSV is timing-free either way).
  std::uint64_t last_reported = 0;
  while (!client.wait_end_of_stream(1.0)) {
    if (client.finished()) {
      break;
    }
    const std::uint64_t seen = remote.slots();
    if (seen != last_reported) {
      last_reported = seen;
      std::printf("received %llu slot frames\n",
                  static_cast<unsigned long long>(seen));
      remote.print_report(slot_duration_s(Scs::kHz30));
    }
  }
  std::printf("stream ended after %llu slots\n",
              static_cast<unsigned long long>(remote.slots()));
  remote.print_report(slot_duration_s(Scs::kHz30));
  return 0;
}

int run_query_mode(const std::string& host, std::uint16_t port, int argc,
                   char** argv) {
  const auto metric = store_metric_from_string(argv[4]);
  if (!metric) {
    std::fprintf(stderr,
                 "unknown metric '%s' (dl_bits ul_bits mcs retx prbs "
                 "cell_dcis cell_used_prbs cell_spare_prbs)\n",
                 argv[4]);
    return 2;
  }
  QueryRequest request;
  request.kind = QueryKind::kRange;
  request.metric = static_cast<std::uint8_t>(*metric);
  request.rnti = kStoreCellRnti;  // cell-level series by default
  request.slot_from = 0;
  request.slot_to = std::numeric_limits<std::uint64_t>::max();
  for (int i = 5; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--cell") {
      request.cell = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 0));
    } else if (flag == "--rnti") {
      request.rnti = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 0));
    } else if (flag == "--from") {
      request.slot_from = std::strtoull(value, nullptr, 0);
    } else if (flag == "--to") {
      request.slot_to = std::strtoull(value, nullptr, 0);
    } else if (flag == "--bucket") {
      request.kind = QueryKind::kAggregate;
      request.bucket_slots = std::strtoull(value, nullptr, 0);
    } else if (flag == "--topk") {
      request.kind = QueryKind::kTopK;
      request.cell = kStoreAnyCell;  // rank across the whole fleet
      request.k = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 0));
    } else {
      std::fprintf(stderr, "unknown option %s\n", flag.c_str());
      return 2;
    }
  }

  StreamClientConfig config;
  config.host = host;
  config.port = port;
  config.stop_on_end_of_stream = false;
  TelemetryStreamClient client(config, {});
  if (!client.wait_connected(5.0)) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", host.c_str(), port);
    return 1;
  }
  const auto response = client.query(request, 5.0);
  if (!response) {
    std::fprintf(stderr, "query timed out / not sent\n");
    return 1;
  }
  if (response->status != QueryStatus::kOk) {
    std::fprintf(stderr, "query failed (%s): %s\n",
                 to_string(response->status), response->error.c_str());
    return 1;
  }
  switch (response->kind) {
    case QueryKind::kRange:
      std::printf("slot,value\n");
      for (const QueryRowWire& row : response->rows) {
        std::printf("%" PRIu64 ",%g\n", row.slot, row.value);
      }
      break;
    case QueryKind::kAggregate:
      std::printf("slot_start,count,sum,avg,max\n");
      for (const QueryBucket& bucket : response->buckets) {
        std::printf("%" PRIu64 ",%" PRIu64 ",%g,%g,%g\n",
                    bucket.slot_start, bucket.count, bucket.sum,
                    bucket.avg, bucket.max);
      }
      break;
    case QueryKind::kTopK:
      std::printf("cell,rnti,score,rows\n");
      for (const TopKEntry& entry : response->ranking) {
        std::printf("%u,0x%04x,%g,%" PRIu64 "\n", entry.cell, entry.rnti,
                    entry.score, entry.rows);
      }
      break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    return run_demo();
  }
  if (std::strcmp(argv[1], "--connect") == 0 && argc >= 4) {
    const std::string host = argv[2];
    const auto port = static_cast<std::uint16_t>(std::atoi(argv[3]));
    std::string csv_path;
    if (argc >= 6 && std::strcmp(argv[4], "--csv") == 0) {
      csv_path = argv[5];
    }
    return run_connect(host, port, csv_path);
  }
  if (std::strcmp(argv[1], "--query") == 0 && argc >= 5) {
    const std::string host = argv[2];
    const auto port = static_cast<std::uint16_t>(std::atoi(argv[3]));
    return run_query_mode(host, port, argc, argv);
  }
  if (std::strcmp(argv[1], "--predictions") == 0) {
    std::string weights_path = "tools/weights/predictor_v1.txt";
    if (argc >= 4 && std::strcmp(argv[2], "--weights") == 0) {
      weights_path = argv[3];
    }
    return run_predictions_demo(weights_path);
  }
  std::fprintf(stderr,
               "usage: %s                       # loopback demo\n"
               "       %s --connect HOST PORT [--csv PATH]\n"
               "       %s --query HOST PORT METRIC [--cell N] [--rnti R]\n"
               "          [--from SLOT] [--to SLOT] [--bucket SLOTS] "
               "[--topk K]\n"
               "       %s --predictions [--weights PATH]\n",
               argv[0], argv[0], argv[0], argv[0]);
  return 2;
}
