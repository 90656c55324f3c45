// Distributed fleet worker: dials a fleet_coordinator, announces its
// capacity, and runs whatever cells it is leased on an embedded supervised
// fleet runtime, streaming telemetry back until it is told to stop (or is
// killed — the coordinator reassigns its cells either way).
//
// Run:  ./build/examples/fleet_worker --port 9200 --name w1 --capacity 8
//
// Against an HA coordinator pair (primary + standby), list every
// coordinator; the worker fails over round-robin with jittered backoff,
// keeping its cells running locally until the new primary re-confirms:
//   ./build/examples/fleet_worker --coordinators 127.0.0.1:9200,127.0.0.1:9201
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "dist/worker.h"
#include "graceful.h"

namespace {

using namespace nrs;

WorkerConfig parse_args(int argc, char** argv) {
  WorkerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      config.host = value();
    } else if (arg == "--coordinators") {
      // Comma-separated host:port list, primary first.
      std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string entry =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!entry.empty()) {
          config.coordinators.push_back(entry);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--name") {
      config.name = value();
    } else if (arg == "--capacity") {
      config.capacity = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--threads") {
      config.pool_threads = static_cast<unsigned>(std::stoul(value()));
    } else if (arg == "--slots-per-tick") {
      config.slots_per_tick = std::stoull(value());
    } else {
      std::fprintf(stderr,
                   "usage: fleet_worker --port P [--host H] [--name NAME] "
                   "[--capacity N]\n"
                   "                    [--coordinators H:P,H:P,...] "
                   "[--threads N] [--slots-per-tick N]\n");
      std::exit(arg == "--help" || arg == "-h" ? 0 : 1);
    }
  }
  if (config.port == 0 && config.coordinators.empty()) {
    std::fprintf(stderr, "--port or --coordinators is required\n");
    std::exit(1);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkerConfig config = parse_args(argc, argv);
  nrs_examples::install_signal_handlers();

  FleetWorker worker(config);
  if (config.coordinators.empty()) {
    std::printf("worker '%s' dialing %s:%u (capacity %u, %u pool threads)\n",
                config.name.c_str(), config.host.c_str(), config.port,
                config.capacity, config.pool_threads);
  } else {
    std::string joined;
    for (const std::string& endpoint : config.coordinators) {
      joined += joined.empty() ? endpoint : "," + endpoint;
    }
    std::printf("worker '%s' dialing coordinators %s (capacity %u, %u pool "
                "threads)\n",
                config.name.c_str(), joined.c_str(), config.capacity,
                config.pool_threads);
  }

  auto next_status = std::chrono::steady_clock::now();
  while (!nrs_examples::stop_requested() && worker.running()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_status) {
      std::printf("cells=%zu slots=%llu %s\n", worker.n_cells(),
                  static_cast<unsigned long long>(worker.slots_total()),
                  worker.connected() ? "connected" : "reconnecting");
      std::fflush(stdout);
      next_status = now + std::chrono::seconds(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const std::string protocol_error = worker.protocol_error();
  worker.stop();  // graceful: cells drain, the coordinator sees EOF
  if (!protocol_error.empty()) {
    std::fprintf(stderr, "fatal: %s\n", protocol_error.c_str());
    return 1;
  }
  std::printf("worker '%s' stopped (%llu slots delivered)\n",
              config.name.c_str(),
              static_cast<unsigned long long>(worker.slots_total()));
  return 0;
}
