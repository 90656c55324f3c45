// Multi-cell fleet monitor: N supervised cell monitors (gNB sim + virtual
// radio + sniffer pipeline each) over one shared worker pool, with the
// cross-cell aggregator printing a periodic fleet table — per-cell state,
// throughput, retransmission health, utilization, restarts — plus the
// spare-capacity ranking.  Optionally injects a fault into one cell:
// crash/stall demonstrate the supervisor tearing the cell down and
// restarting it with exponential backoff (a stall is declared kStallSlots,
// 2 000 dark feed slots, after --fault-slot), while outage/cfo/restart script
// a FaultSchedule the cell heals from *in place* — the engine drops to
// kResync, re-acquires the cell and resumes without a teardown (watch the
// resync column move while restarts stays put).
//
// Run:  ./build/examples/fleet_monitor --cells 8
//       ./build/examples/fleet_monitor --cells 4 --fault crash --fault-cell 1
//       ./build/examples/fleet_monitor --cells 4 --fault outage --fault-cell 1
//       ./build/examples/fleet_monitor --cells 2 --stream-port 9100
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "fleet/fleet.h"
#include "gnb/presets.h"
#include "graceful.h"
#include "net/stream_server.h"
#include "store/history_store.h"
#include "store/query.h"
#include "store/store_sink.h"

namespace {

using namespace nrs;

struct Options {
  unsigned cells = 4;
  std::string preset = "srsran";
  std::uint64_t slots = 3000;  ///< per-cell feed-slot target
  std::uint64_t seed = 42;
  std::uint16_t stream_port = 0;  ///< 0 = no stream server
  std::string fault;  ///< "", crash, stall, outage, cfo, restart
  unsigned fault_cell = 0;
  std::uint64_t fault_slot = 400;
  std::uint64_t report_every = 600;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--cells") {
      opt.cells = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--preset") {
      opt.preset = value();
    } else if (arg == "--slots") {
      opt.slots = std::stoull(value());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--stream-port") {
      opt.stream_port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--fault") {
      opt.fault = value();
    } else if (arg == "--fault-cell") {
      opt.fault_cell = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--fault-slot") {
      opt.fault_slot = std::stoull(value());
    } else if (arg == "--report-every") {
      opt.report_every = std::stoull(value());
    } else {
      std::fprintf(stderr,
                   "usage: fleet_monitor [--cells N] [--preset NAME] "
                   "[--slots N] [--seed S] [--stream-port P]\n"
                   "                     [--fault crash|stall|outage|cfo|"
                   "restart [--fault-cell I] [--fault-slot S]]\n"
                   "                     [--report-every N]\n");
      std::exit(arg == "--help" || arg == "-h" ? 0 : 1);
    }
  }
  if (opt.cells == 0) {
    std::fprintf(stderr, "--cells must be >= 1\n");
    std::exit(1);
  }
  return opt;
}

void print_table(const FleetOrchestrator& fleet) {
  const FleetSummary summary = fleet.summary();
  std::printf("%5s %-8s %-8s %9s %8s %5s %9s %8s %7s %6s %8s %7s %7s\n",
              "cell", "name", "state", "slots", "dcis", "ues", "dl Mbps",
              "ul Mbps", "retx%", "util%", "restarts", "resync", "degr");
  for (const CellSummary& c : summary.cells) {
    std::printf("%5u %-8s %-8s %9llu %8llu %5u %9.2f %8.2f %7.2f %6.1f "
                "%8llu %7llu %7llu\n",
                c.cell_index, c.name.c_str(),
                to_string(static_cast<FleetCellState>(c.state)),
                static_cast<unsigned long long>(c.counters.slots),
                static_cast<unsigned long long>(c.counters.dcis), c.active_ues,
                c.dl_mbps, c.ul_mbps, 100.0 * c.retx_rate,
                100.0 * c.utilization,
                static_cast<unsigned long long>(c.counters.restarts),
                static_cast<unsigned long long>(c.counters.resync_slots),
                static_cast<unsigned long long>(c.counters.degraded_slots));
  }
  std::printf("fleet: slot=%llu dcis=%llu dl=%.2f Mbps ul=%.2f Mbps "
              "retx=%.2f%% restarts=%llu  spare ranking:",
              static_cast<unsigned long long>(summary.slot),
              static_cast<unsigned long long>(summary.totals.dcis),
              summary.dl_mbps_total, summary.ul_mbps_total,
              100.0 * summary.retx_rate,
              static_cast<unsigned long long>(summary.totals.restarts));
  for (const std::uint32_t idx : summary.spare_ranking) {
    std::printf(" %u", idx);
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const std::optional<CellConfig> preset = cell_preset(opt.preset);
  if (!preset) {
    std::fprintf(stderr, "unknown preset '%s' (srsran, mosolab, amarisoft, "
                         "tmobile1, tmobile2)\n", opt.preset.c_str());
    return 1;
  }
  nrs_examples::install_signal_handlers();

  MetricsRegistry registry;
  // Fleet-wide telemetry history: every cell's store sink writes into the
  // same store (distinct cell indices), so cross-cell top-K queries see
  // the whole fleet.
  HistoryStore store({}, &registry);
  std::unique_ptr<TelemetryStreamServer> server;
  if (opt.stream_port != 0) {
    StreamServerConfig server_config;
    server_config.port = opt.stream_port;
    server_config.query_handler = history_query_handler(store);
    server = std::make_unique<TelemetryStreamServer>(server_config,
                                                     &registry);
    std::printf("streaming fleet aggregates on port %u "
                "(query with: telemetry_client --query 127.0.0.1 %u "
                "cell_spare_prbs --topk %u)\n",
                server->port(), server->port(), opt.cells);
  }

  FleetConfig config;
  config.seed = opt.seed;
  config.pool_threads = 4;
  for (unsigned i = 0; i < opt.cells; ++i) {
    FleetCellSpec spec;
    spec.cell = *preset;
    spec.cell.name = "cell" + std::to_string(i);
    spec.n_ues = 2;
    spec.ue_rate_bps = 2e6;
    config.cells.push_back(std::move(spec));
  }
  if (!opt.fault.empty()) {
    if (opt.fault_cell >= opt.cells) {
      std::fprintf(stderr, "--fault-cell out of range\n");
      return 1;
    }
    const std::uint64_t fault_slot = opt.fault_slot;
    FleetCellSpec& victim = config.cells[opt.fault_cell];
    if (opt.fault == "crash" || opt.fault == "stall") {
      const bool crash = opt.fault == "crash";
      victim.fault_hook =
          [crash, fault_slot](std::uint64_t slot, unsigned incarnation) {
            if (incarnation == 0 && crash && slot == fault_slot) {
              throw std::runtime_error("injected crash");
            }
            if (incarnation == 0 && !crash && slot >= fault_slot) {
              return FaultAction::kMute;  // dark radio: kStallSlots -> stall
            }
            return FaultAction::kNone;
          };
    } else if (opt.fault == "outage") {
      // 150-slot deep fade: sync collapses, the engine resyncs in place.
      victim.faults.events.push_back(
          {FaultKind::kOutage, fault_slot, 150, 35.0});
    } else if (opt.fault == "cfo") {
      // 22.5 kHz = 0.75 subcarrier spacings at 30 kHz SCS — enough ICI to
      // wreck the SSB correlation for 200 slots.
      victim.faults.events.push_back(
          {FaultKind::kCfoStep, fault_slot, 200, 22500.0});
    } else if (opt.fault == "restart") {
      // gNB comes back under a new PCI; the sniffer flushes and re-locks.
      victim.faults.events.push_back(
          {FaultKind::kCellRestart, fault_slot, 1, 7.0});
    } else {
      std::fprintf(stderr, "unknown --fault '%s' (crash, stall, outage, "
                           "cfo, restart)\n", opt.fault.c_str());
      return 1;
    }
    std::printf("injecting a %s into cell %u at slot %llu\n",
                opt.fault.c_str(), opt.fault_cell,
                static_cast<unsigned long long>(fault_slot));
  }

  std::printf("fleet of %u x %s cells, %llu slots each, seed %llu\n\n",
              opt.cells, opt.preset.c_str(),
              static_cast<unsigned long long>(opt.slots),
              static_cast<unsigned long long>(opt.seed));
  FleetOrchestrator fleet(std::move(config), registry);
  // Per-cell history ingest, re-attached automatically on every restart.
  const unsigned n_prb = preset->n_prb;
  fleet.add_sink("store", [&store, n_prb](std::uint32_t cell_index) {
    StoreSinkConfig sink_config;
    sink_config.cell_index = cell_index;
    sink_config.n_prb = n_prb;
    return std::make_shared<HistoryStoreSink>(store, sink_config);
  });

  // Advance in short chunks so SIGINT/SIGTERM can interrupt between them:
  // the fleet then drains its pipelines (sinks flush into the aggregator
  // and the history store) instead of dying mid-slot.  Each chunk's fleet
  // summary goes out to stream clients as one kFleet frame.
  const std::uint64_t chunk = std::min<std::uint64_t>(opt.report_every, 100);
  std::uint64_t next_report = opt.report_every;
  for (std::uint64_t target = chunk;
       target < opt.slots && !nrs_examples::stop_requested();
       target += chunk) {
    fleet.run_until(target);
    if (server != nullptr) {
      server->broadcast_frame(encode_frame(fleet.summary()));
    }
    if (target >= next_report) {
      print_table(fleet);
      next_report += opt.report_every;
    }
  }
  if (!nrs_examples::stop_requested()) {
    fleet.run_until(opt.slots);
  } else {
    std::printf("signal received: draining pipelines and flushing the "
                "history store\n");
  }
  fleet.stop();
  std::printf("final state:\n");
  print_table(fleet);

  const MetricsSnapshot snap = registry.snapshot();
  const auto* latency = snap.find_histogram("fleet.slot_latency_us");
  std::printf("restarts=%llu crashes=%llu stalls=%llu "
              "slot latency p50=%.0f us p99=%.0f us\n",
              static_cast<unsigned long long>(
                  snap.counter_value("fleet.cell.restarts")),
              static_cast<unsigned long long>(
                  snap.counter_value("fleet.crashes")),
              static_cast<unsigned long long>(
                  snap.counter_value("fleet.stalls")),
              latency != nullptr ? latency->p50() : 0.0,
              latency != nullptr ? latency->p99() : 0.0);

  // Spare-capacity ranking straight out of the history store: the same
  // query a remote client would send as a kQuery frame.
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.cell = kStoreAnyCell;
  request.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
  request.slot_from = 0;
  request.slot_to = opt.slots;
  request.k = opt.cells;
  const QueryResponse response = run_query(store, request);
  if (response.status == QueryStatus::kOk) {
    std::printf("history top-K spare capacity (mean spare PRBs/slot):");
    for (const TopKEntry& entry : response.ranking) {
      std::printf("  cell%u=%.1f", entry.cell, entry.score);
    }
    std::printf("\n");
  }
  std::printf("history: %llu rows ingested across %zu series\n",
              static_cast<unsigned long long>(
                  snap.counter_value("store.rows_ingested")),
              store.series_count());
  return 0;
}
