// Distributed fleet coordinator: owns the cell list, leases cells to
// FleetWorker processes that dial in, reassigns on worker death, and keeps
// the monotonic fleet-wide aggregate + telemetry history while cells move
// between workers.
//
// Run one coordinator and two workers on loopback:
//   ./build/examples/fleet_coordinator --port 9200 --cells 8
//   ./build/examples/fleet_worker --port 9200 --name w1 --capacity 8
//   ./build/examples/fleet_worker --port 9200 --name w2 --capacity 8
// ...then kill -9 one worker and watch its cells land on the other.
//
// Or demo everything in one process (workers spawned in-process):
//   ./build/examples/fleet_coordinator --cells 8 --local 2 --duration 15
//
// High availability: run a second coordinator as a replicated standby and
// point the workers at both.  SIGKILL the primary and the standby promotes
// within one lease TTL, re-confirming the leases the workers still hold:
//   ./build/examples/fleet_coordinator --port 9200 --cells 8
//   ./build/examples/fleet_coordinator --port 9201 --standby-of 127.0.0.1:9200
//   ./build/examples/fleet_worker --coordinators 127.0.0.1:9200,127.0.0.1:9201
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "graceful.h"
#include "net/stream_server.h"
#include "store/query.h"

namespace {

using namespace nrs;

struct Options {
  std::uint16_t port = 0;  ///< 0 = ephemeral (printed at startup)
  unsigned cells = 4;
  std::string preset = "srsran";
  std::uint32_t lease_ttl_ms = 1500;
  double heartbeat_timeout_s = 1.0;
  unsigned local_workers = 0;  ///< spawn N in-process workers (demo mode)
  double duration_s = 0.0;     ///< 0 = run until SIGINT/SIGTERM
  double report_every_s = 1.0;
  std::uint16_t stream_port = 0;  ///< 0 = no telemetry stream server
  std::uint64_t seed = 42;
  std::string standby_of;  ///< non-empty = run as replicated standby
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
    if (arg == "--port") {
      opt.port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--cells") {
      opt.cells = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--preset") {
      opt.preset = value();
    } else if (arg == "--lease-ttl") {
      opt.lease_ttl_ms = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--heartbeat-timeout") {
      opt.heartbeat_timeout_s = std::stod(value());
    } else if (arg == "--local") {
      opt.local_workers = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--duration") {
      opt.duration_s = std::stod(value());
    } else if (arg == "--report-every") {
      opt.report_every_s = std::stod(value());
    } else if (arg == "--stream-port") {
      opt.stream_port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--standby-of") {
      opt.standby_of = value();
    } else {
      std::fprintf(stderr,
                   "usage: fleet_coordinator [--port P] [--cells N] "
                   "[--preset NAME] [--lease-ttl MS]\n"
                   "                         [--heartbeat-timeout S] "
                   "[--local N] [--duration S]\n"
                   "                         [--report-every S] "
                   "[--stream-port P] [--seed S]\n"
                   "                         [--standby-of HOST:PORT]\n");
      std::exit(arg == "--help" || arg == "-h" ? 0 : 1);
    }
  }
  if (opt.cells == 0 && opt.standby_of.empty()) {
    std::fprintf(stderr, "--cells must be >= 1\n");
    std::exit(1);
  }
  return opt;
}

void print_table(const FleetCoordinator& coordinator) {
  std::printf("%5s %-8s %-10s %7s %7s %8s %9s %8s\n", "cell", "name",
              "lease", "worker", "handoff", "state", "slots", "dcis");
  for (const DistCellStatus& c : coordinator.cells()) {
    std::printf("%5u %-8s %-10s %7llu %7u %8s %9llu %8llu\n", c.cell_index,
                c.name.c_str(), to_string(c.lease_state),
                static_cast<unsigned long long>(c.worker_id), c.handoffs,
                to_string(static_cast<FleetCellState>(c.cell_state)),
                static_cast<unsigned long long>(c.slots),
                static_cast<unsigned long long>(c.dcis));
  }
  for (const DistWorkerStatus& w : coordinator.workers()) {
    std::printf("worker %llu (%s) cap=%u cells:",
                static_cast<unsigned long long>(w.id), w.name.c_str(),
                w.capacity);
    for (const std::uint32_t cell : w.cells) {
      std::printf(" %u", cell);
    }
    std::printf("\n");
  }
  const FleetSummary s = coordinator.summary();
  std::printf("fleet: role=%s epoch=%llu slot=%llu dcis=%llu dl=%.2f Mbps "
              "ul=%.2f Mbps retx=%.2f%% reassignments=%llu  spare ranking:",
              to_string(coordinator.role()),
              static_cast<unsigned long long>(coordinator.epoch()),
              static_cast<unsigned long long>(s.slot),
              static_cast<unsigned long long>(s.totals.dcis), s.dl_mbps_total,
              s.ul_mbps_total, 100.0 * s.retx_rate,
              static_cast<unsigned long long>(coordinator.reassignments()));
  for (const std::uint32_t idx : s.spare_ranking) {
    std::printf(" %u", idx);
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  nrs_examples::install_signal_handlers();

  MetricsRegistry registry;
  CoordinatorConfig config;
  config.port = opt.port;
  config.seed = opt.seed;
  config.lease_ttl_ms = opt.lease_ttl_ms;
  config.heartbeat_timeout_s = opt.heartbeat_timeout_s;
  config.standby_of = opt.standby_of;
  if (opt.standby_of.empty()) {
    // A standby's cell list arrives with the primary's snapshot.
    for (unsigned i = 0; i < opt.cells; ++i) {
      CoordinatorCellSpec cell;
      cell.name = "cell" + std::to_string(i);
      cell.preset = opt.preset;
      config.cells.push_back(std::move(cell));
    }
  }
  FleetCoordinator coordinator(std::move(config), &registry);
  if (opt.standby_of.empty()) {
    std::printf("coordinator listening on port %u (%u x %s cells, lease TTL "
                "%u ms)\n",
                coordinator.port(), opt.cells, opt.preset.c_str(),
                opt.lease_ttl_ms);
  } else {
    std::printf("standby coordinator on port %u, replicating from %s\n",
                coordinator.port(), opt.standby_of.c_str());
  }

  // Optional stream server: remote clients query the coordinator's
  // history store (kQuery) and receive the fleet aggregate (kFleet).
  std::unique_ptr<TelemetryStreamServer> server;
  if (opt.stream_port != 0) {
    StreamServerConfig server_config;
    server_config.port = opt.stream_port;
    server_config.query_handler = history_query_handler(coordinator.store());
    server =
        std::make_unique<TelemetryStreamServer>(server_config, &registry);
    std::printf("fleet aggregates + history queries on port %u\n",
                server->port());
  }

  // --local N: the whole fleet in one process (demo / smoke mode).
  std::vector<std::unique_ptr<FleetWorker>> local_workers;
  for (unsigned i = 0; i < opt.local_workers; ++i) {
    WorkerConfig wc;
    wc.name = "local" + std::to_string(i);
    wc.port = coordinator.port();
    wc.capacity = (opt.cells + opt.local_workers - 1) / opt.local_workers + 1;
    local_workers.push_back(std::make_unique<FleetWorker>(wc));
  }

  const auto started = std::chrono::steady_clock::now();
  auto next_report = started;
  for (;;) {
    if (nrs_examples::stop_requested()) {
      std::printf("signal received: draining workers and flushing the "
                  "history store\n");
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (opt.duration_s > 0.0 &&
        std::chrono::duration<double>(now - started).count() >=
            opt.duration_s) {
      break;
    }
    if (now >= next_report) {
      print_table(coordinator);
      if (server != nullptr) {
        server->broadcast_frame(encode_frame(coordinator.summary()));
      }
      next_report = now + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(
                                  opt.report_every_s));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  for (auto& worker : local_workers) {
    worker->stop();  // graceful leave: cells drain, socket closes
  }
  local_workers.clear();
  coordinator.stop();
  if (server != nullptr) {
    server->stop();
  }
  std::printf("final state:\n");
  print_table(coordinator);

  const MetricsSnapshot snap = registry.snapshot();
  std::printf("leases granted=%llu expired=%llu reassignments=%llu "
              "workers_dead=%llu history rows=%llu\n",
              static_cast<unsigned long long>(
                  snap.counter_value("dist.leases_granted")),
              static_cast<unsigned long long>(
                  snap.counter_value("dist.leases_expired")),
              static_cast<unsigned long long>(
                  snap.counter_value("dist.reassignments")),
              static_cast<unsigned long long>(
                  snap.counter_value("dist.workers_dead")),
              static_cast<unsigned long long>(
                  snap.counter_value("store.rows_ingested")));
  return 0;
}
