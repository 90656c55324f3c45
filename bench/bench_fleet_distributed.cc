// Distributed fleet bench: coordinator + workers in one process over
// loopback TCP.  Two measurements:
//
//   scale         — for each cell count, two workers split the cells and
//                   the table reports aggregate slots/sec observed at the
//                   coordinator (committed + live lease totals), i.e. the
//                   end-to-end rate through lease grant -> worker runtime
//                   -> kCellReportBatch aggregation.
//   reassignment  — kill() one of the workers (the in-process stand-in
//                   for `kill -9`: the socket slams shut, no goodbye) and
//                   measure how long until every cell is active on the
//                   surviving worker again (lease reassigned, cell
//                   restarted, first report in).
//
//   failover      — add a replicated standby coordinator, kill the
//                   primary (stop(): every socket slams shut at once) and
//                   measure promotion latency plus time-to-all-active on
//                   the new primary, reporting how many leases were
//                   RE-CONFIRMED in place vs reassigned (the HA bar is
//                   all-reconfirmed, zero reassigned).
//
//   --quick   smaller cell counts and windows (CI smoke run)
//   --json    additionally write BENCH_fleet_distributed.json
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "dist/coordinator.h"
#include "dist/worker.h"

namespace {

using namespace nrs;
using Clock = std::chrono::steady_clock;

std::uint64_t total_slots(const FleetCoordinator& coordinator) {
  std::uint64_t total = 0;
  for (const DistCellStatus& cell : coordinator.cells()) {
    total += cell.slots;
  }
  return total;
}

bool wait_all_active(const FleetCoordinator& coordinator, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (coordinator.all_cells_active()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

struct Fixture {
  std::unique_ptr<FleetCoordinator> coordinator;
  std::vector<std::unique_ptr<FleetWorker>> workers;
};

Fixture start_fleet(unsigned n_cells, unsigned n_workers) {
  Fixture f;
  CoordinatorConfig config;
  config.seed = 7;
  for (unsigned i = 0; i < n_cells; ++i) {
    CoordinatorCellSpec cell;
    cell.name = "cell" + std::to_string(i);
    config.cells.push_back(std::move(cell));
  }
  f.coordinator = std::make_unique<FleetCoordinator>(std::move(config));
  for (unsigned i = 0; i < n_workers; ++i) {
    WorkerConfig wc;
    wc.name = "w" + std::to_string(i);
    wc.port = f.coordinator->port();
    wc.capacity = n_cells;  // either worker can absorb the whole fleet
    wc.report_period_s = 0.1;
    f.workers.push_back(std::make_unique<FleetWorker>(wc));
  }
  return f;
}

struct ScalePoint {
  unsigned cells = 0;
  bool converged = false;
  double slots_per_sec = 0.0;
};

ScalePoint run_scale(unsigned n_cells, double window_s) {
  ScalePoint point;
  point.cells = n_cells;
  Fixture f = start_fleet(n_cells, /*n_workers=*/2);
  point.converged = wait_all_active(*f.coordinator, 30.0);
  if (point.converged) {
    const std::uint64_t s0 = total_slots(*f.coordinator);
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(window_s)));
    const std::uint64_t s1 = total_slots(*f.coordinator);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    point.slots_per_sec =
        wall > 0.0 ? static_cast<double>(s1 - s0) / wall : 0.0;
  }
  for (auto& worker : f.workers) {
    worker->stop();
  }
  f.coordinator->stop();
  return point;
}

struct ReassignPoint {
  unsigned cells = 0;
  bool converged = false;
  double latency_ms = 0.0;       ///< kill -> every cell active again
  std::uint64_t reassigned = 0;  ///< leases moved by the kill
};

ReassignPoint run_reassign(unsigned n_cells) {
  ReassignPoint point;
  point.cells = n_cells;
  Fixture f = start_fleet(n_cells, /*n_workers=*/2);
  if (!wait_all_active(*f.coordinator, 30.0)) {
    for (auto& worker : f.workers) {
      worker->stop();
    }
    f.coordinator->stop();
    return point;
  }
  const std::uint64_t reassignments_before = f.coordinator->reassignments();
  // kill() shuts the socket down first and only then joins the worker
  // thread (draining its cells can outlast the whole reassignment), so
  // the clock starts BEFORE the call.
  const auto t0 = Clock::now();
  f.workers[0]->kill();  // abrupt: the coordinator sees EOF, not a goodbye
  // First wait until the coordinator has OBSERVED the death (the dead
  // worker left the catalog) — otherwise a poll against the stale
  // all-active state would measure nothing.
  while (f.coordinator->worker_count() > 1 &&
         std::chrono::duration<double>(Clock::now() - t0).count() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  point.converged = wait_all_active(*f.coordinator, 30.0);
  point.latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  point.reassigned = f.coordinator->reassignments() - reassignments_before;
  for (auto& worker : f.workers) {
    worker->stop();
  }
  f.coordinator->stop();
  return point;
}

struct FailoverPoint {
  unsigned cells = 0;
  bool converged = false;
  double promote_ms = 0.0;     ///< primary kill -> standby serves leases
  double all_active_ms = 0.0;  ///< primary kill -> every cell re-confirmed
  std::uint64_t reconfirmed = 0;
  std::uint64_t reassigned = 0;
};

FailoverPoint run_failover(unsigned n_cells) {
  FailoverPoint point;
  point.cells = n_cells;

  CoordinatorConfig primary_config;
  primary_config.seed = 7;
  // A TTL comfortably above the expected failover keeps "re-confirmed,
  // not reassigned" honest: an expiring lease would churn the very cells
  // the failover is supposed to leave untouched.
  primary_config.lease_ttl_ms = 10000;
  primary_config.heartbeat_timeout_s = 3.0;
  for (unsigned i = 0; i < n_cells; ++i) {
    CoordinatorCellSpec cell;
    cell.name = "cell" + std::to_string(i);
    primary_config.cells.push_back(std::move(cell));
  }
  auto primary = std::make_unique<FleetCoordinator>(std::move(primary_config));

  CoordinatorConfig standby_config;
  standby_config.standby_of = "127.0.0.1:" + std::to_string(primary->port());
  standby_config.lease_ttl_ms = 10000;
  standby_config.heartbeat_timeout_s = 3.0;
  FleetCoordinator standby(std::move(standby_config));

  std::vector<std::unique_ptr<FleetWorker>> workers;
  for (unsigned i = 0; i < 2; ++i) {
    WorkerConfig wc;
    wc.name = "w" + std::to_string(i);
    wc.coordinators = {"127.0.0.1:" + std::to_string(primary->port()),
                       "127.0.0.1:" + std::to_string(standby.port())};
    wc.capacity = n_cells;
    wc.report_period_s = 0.1;
    wc.reconnect_backoff_s = 0.05;
    workers.push_back(std::make_unique<FleetWorker>(wc));
  }

  const auto teardown = [&] {
    for (auto& worker : workers) {
      worker->stop();
    }
    standby.stop();
    if (primary != nullptr) {
      primary->stop();
    }
  };

  if (!wait_all_active(*primary, 30.0)) {
    teardown();
    return point;
  }
  // The standby must hold a synced mirror before the kill is meaningful.
  {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!standby.synced() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!standby.synced()) {
      teardown();
      return point;
    }
  }

  const auto t0 = Clock::now();
  primary->stop();  // every socket (workers + replication) dies at once
  primary.reset();

  while (standby.role() != CoordinatorRole::kPrimary &&
         std::chrono::duration<double>(Clock::now() - t0).count() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  point.promote_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // The mirror keeps every cell "active" across the gap, so all-active
  // alone is satisfied instantly; convergence means each lease has been
  // RE-CONFIRMED by its worker under the new epoch.
  {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while ((standby.reconfirmations() < n_cells ||
            !standby.all_cells_active()) &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  point.converged =
      standby.reconfirmations() >= n_cells && standby.all_cells_active();
  point.all_active_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  point.reconfirmed = standby.reconfirmations();
  point.reassigned = standby.reassignments();

  teardown();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet_distributed [--quick] [--json]\n");
      return 1;
    }
  }
  const std::vector<unsigned> cell_counts =
      quick ? std::vector<unsigned>{2, 4} : std::vector<unsigned>{2, 4, 8};
  const double window_s = quick ? 1.0 : 2.5;
  const unsigned reassign_cells = quick ? 4 : 8;

  bench::print_header("fleet-distributed",
                      "coordinator + 2 workers over loopback: aggregate "
                      "slots/sec vs cells, reassignment latency, "
                      "primary-failover latency");

  std::printf("%6s %12s %12s\n", "cells", "slots/sec", "converged");
  std::vector<ScalePoint> scale;
  for (const unsigned cells : cell_counts) {
    const ScalePoint p = run_scale(cells, window_s);
    scale.push_back(p);
    std::printf("%6u %12.0f %12s\n", p.cells, p.slots_per_sec,
                p.converged ? "yes" : "NO");
  }

  const ReassignPoint reassign = run_reassign(reassign_cells);
  std::printf("\nworker kill with %u cells: %llu leases reassigned, all "
              "cells active again after %.0f ms (%s)\n",
              reassign.cells,
              static_cast<unsigned long long>(reassign.reassigned),
              reassign.latency_ms, reassign.converged ? "ok" : "TIMEOUT");

  const FailoverPoint failover = run_failover(reassign_cells);
  std::printf("\nprimary kill with %u cells: standby promoted after %.0f ms, "
              "all cells active after %.0f ms, %llu leases re-confirmed, "
              "%llu reassigned (%s)\n",
              failover.cells, failover.promote_ms, failover.all_active_ms,
              static_cast<unsigned long long>(failover.reconfirmed),
              static_cast<unsigned long long>(failover.reassigned),
              failover.converged ? "ok" : "TIMEOUT");

  if (json) {
    std::ofstream out("BENCH_fleet_distributed.json");
    out << "{\n  \"scale\": [\n";
    for (std::size_t i = 0; i < scale.size(); ++i) {
      out << "    {\"cells\": " << scale[i].cells
          << ", \"slots_per_sec\": " << scale[i].slots_per_sec
          << ", \"converged\": " << (scale[i].converged ? "true" : "false")
          << "}" << (i + 1 < scale.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"reassign_cells\": " << reassign.cells << ",\n"
        << "  \"reassign_latency_ms\": " << reassign.latency_ms << ",\n"
        << "  \"reassigned_leases\": " << reassign.reassigned << ",\n"
        << "  \"reassign_converged\": "
        << (reassign.converged ? "true" : "false") << ",\n"
        << "  \"failover_cells\": " << failover.cells << ",\n"
        << "  \"failover_promote_ms\": " << failover.promote_ms << ",\n"
        << "  \"failover_all_active_ms\": " << failover.all_active_ms << ",\n"
        << "  \"failover_reconfirmed_leases\": " << failover.reconfirmed
        << ",\n"
        << "  \"failover_reassigned_leases\": " << failover.reassigned << ",\n"
        << "  \"failover_converged\": "
        << (failover.converged ? "true" : "false") << "\n}\n";
    std::printf("\nwrote BENCH_fleet_distributed.json\n");
  }
  return (reassign.converged && failover.converged) ? 0 : 1;
}
