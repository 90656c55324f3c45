// Process-level acceptance test for the distributed fleet: an in-process
// FleetCoordinator drives TWO real `fleet_worker` processes (fork/exec of
// the example binary, path baked in via NRS_FLEET_WORKER_BIN) carrying 8
// cells between them.  One worker is SIGKILLed mid-run — the genuine
// `kill -9`, not the in-process stand-in — and the test asserts the
// acceptance bar:
//
//   * every orphaned cell is active on the survivor within one lease TTL
//     of the kill,
//   * per-cell lifetime totals never rewind across the handoff,
//   * a history-store range query for a cell that died with the worker
//     returns rows from BEFORE and AFTER the reassignment (the lifetime
//     slot axis survives the handoff).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "store/query.h"

#ifndef NRS_FLEET_WORKER_BIN
#error "NRS_FLEET_WORKER_BIN must point at the fleet_worker binary"
#endif

namespace nrs {
namespace {

using Clock = std::chrono::steady_clock;

bool wait_until(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One spawned fleet_worker process.  The destructor SIGKILLs and reaps
/// whatever is still running, so an ASSERT_* early exit can never leak a
/// child — a leaked worker holds the test's stdout pipe open and wedges
/// ctest until someone kills it by hand.
class WorkerProc {
 public:
  WorkerProc(std::uint16_t port, const std::string& name, unsigned capacity)
      : pid_(fork()) {
    if (pid_ == 0) {
      // Child: silence stdio (the status lines of two workers interleave
      // uselessly, and an inherited pipe must not outlive the test).
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        dup2(devnull, STDERR_FILENO);
        close(devnull);
      }
      const std::string port_arg = std::to_string(port);
      const std::string cap_arg = std::to_string(capacity);
      // Small ticks keep the worker's heartbeat cadence honest even on a
      // slow single-core ASan runner (the run loop heartbeats between
      // ticks, so tick length bounds heartbeat latency).
      execl(NRS_FLEET_WORKER_BIN, "fleet_worker", "--port", port_arg.c_str(),
            "--name", name.c_str(), "--capacity", cap_arg.c_str(),
            "--slots-per-tick", "5", static_cast<char*>(nullptr));
      _exit(127);
    }
  }
  ~WorkerProc() { terminate(SIGKILL); }

  WorkerProc(const WorkerProc&) = delete;
  WorkerProc& operator=(const WorkerProc&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Send `sig` and reap.  Returns the exit status (as from waitpid), or
  /// -1 when the process was already reaped.
  int terminate(int sig) {
    if (pid_ <= 0) {
      return -1;
    }
    ::kill(pid_, sig);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
};

TEST(DistKill, Sigkill9WorkerReassignsWithinTtlAndHistorySurvives) {
  constexpr unsigned kCells = 8;
  CoordinatorConfig config;
  config.seed = 42;
  // Generous TTL so "reassigned within one TTL" is a meaningful bound even
  // under ASan (the EOF fast path makes actual latency far smaller), and a
  // heartbeat timeout that absorbs slow worker ticks on a loaded one-core
  // runner — a falsely-dead worker here would churn leases forever.  The
  // tight-timeout silence path is covered in tests/dist/test_dist.cc.
  constexpr std::uint32_t kTtlMs = 15000;
  config.lease_ttl_ms = kTtlMs;
  config.heartbeat_timeout_s = 5.0;
  // Deep retention so the pre-kill rows are still resident when queried,
  // however long a slow runner stretches the run.
  config.store.segments_per_series = 64;
  for (unsigned i = 0; i < kCells; ++i) {
    CoordinatorCellSpec cell;
    cell.name = "cell" + std::to_string(i);
    config.cells.push_back(std::move(cell));
  }
  FleetCoordinator coordinator(std::move(config));
  ASSERT_GT(coordinator.port(), 0);

  // Either worker alone can carry the whole fleet after the kill.
  WorkerProc proc_a(coordinator.port(), "procA", kCells);
  WorkerProc proc_b(coordinator.port(), "procB", kCells);
  ASSERT_GT(proc_a.pid(), 0);
  ASSERT_GT(proc_b.pid(), 0);

  ASSERT_TRUE(wait_until([&] { return coordinator.all_cells_active(); },
                         180.0))
      << "fleet never converged with two worker processes";
  ASSERT_EQ(coordinator.worker_count(), 2u);

  // Monotonicity watchdog across the whole run.
  std::map<std::uint32_t, std::uint64_t> high_water;
  bool monotonic = true;
  const auto sample = [&] {
    for (const DistCellStatus& cell : coordinator.cells()) {
      auto [it, inserted] = high_water.emplace(cell.cell_index, cell.slots);
      if (!inserted) {
        if (cell.slots < it->second) {
          monotonic = false;
        }
        it->second = std::max(it->second, cell.slots);
      }
    }
  };

  // Let every cell accumulate history rows first.
  ASSERT_TRUE(wait_until([&] {
    sample();
    for (const auto& [cell, slots] : high_water) {
      if (slots < 100) {
        return false;
      }
    }
    return true;
  }, 180.0)) << "cells made no pre-kill progress";

  // Pick the victim: the catalog entry named procA, and one of its cells.
  std::uint32_t victim_cell = 0;
  {
    const auto workers = coordinator.workers();
    ASSERT_EQ(workers.size(), 2u);
    const DistWorkerStatus* victim = nullptr;
    for (const DistWorkerStatus& worker : workers) {
      if (worker.name == "procA") {
        victim = &worker;
      }
    }
    ASSERT_NE(victim, nullptr);
    ASSERT_FALSE(victim->cells.empty());
    victim_cell = victim->cells.front();
  }
  const std::uint64_t watermark = [&] {
    for (const DistCellStatus& cell : coordinator.cells()) {
      if (cell.cell_index == victim_cell) {
        return cell.slots;
      }
    }
    return std::uint64_t{0};
  }();
  ASSERT_GT(watermark, 0u);

  // The genuine article: SIGKILL, no atexit, no FIN from userspace (the
  // kernel closes the socket, which is exactly the EOF fast path).
  const auto t_kill = Clock::now();
  proc_a.terminate(SIGKILL);

  ASSERT_TRUE(wait_until([&] {
    sample();
    return coordinator.worker_count() == 1;
  }, 30.0)) << "death never detected";
  ASSERT_TRUE(wait_until([&] {
    sample();
    return coordinator.all_cells_active();
  }, 30.0)) << "orphans never reassigned";
  const double latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_kill)
          .count();
  EXPECT_LT(latency_ms, static_cast<double>(kTtlMs))
      << "reassignment exceeded one lease TTL";
  std::printf("[ dist-kill ] reassignment converged in %.0f ms "
              "(ttl %u ms)\n",
              latency_ms, kTtlMs);

  // Post-handoff progress on the victim's old cell.
  const std::uint64_t at_handoff = high_water[victim_cell];
  ASSERT_TRUE(wait_until([&] {
    sample();
    return high_water[victim_cell] > at_handoff + 50;
  }, 60.0)) << "victim cell made no progress on the survivor";
  EXPECT_TRUE(monotonic) << "a per-cell lifetime total rewound";

  // History continuity: rows strictly below AND strictly above the
  // kill-time watermark, from one range query each.
  QueryRequest before;
  before.kind = QueryKind::kRange;
  before.cell = victim_cell;
  before.rnti = kStoreCellRnti;
  before.metric = static_cast<std::uint8_t>(StoreMetric::kCellDcis);
  before.slot_from = 0;
  before.slot_to = watermark;
  const QueryResponse before_rows = run_query(coordinator.store(), before);
  ASSERT_EQ(before_rows.status, QueryStatus::kOk) << before_rows.error;
  EXPECT_FALSE(before_rows.rows.empty())
      << "no history rows from before the kill";

  QueryRequest after = before;
  after.slot_from = watermark;
  after.slot_to = UINT64_MAX;
  const QueryResponse after_rows = run_query(coordinator.store(), after);
  ASSERT_EQ(after_rows.status, QueryStatus::kOk) << after_rows.error;
  EXPECT_FALSE(after_rows.rows.empty())
      << "no history rows from after the reassignment";

  // Graceful teardown: SIGTERM drains the survivor (satellite: signal
  // handling in the worker CLI), then the coordinator stops.
  const int status = proc_b.terminate(SIGTERM);
  ASSERT_GE(status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "survivor did not exit cleanly";

  ASSERT_TRUE(wait_until([&] { return coordinator.worker_count() == 0; },
                         10.0));
  coordinator.stop();
}

}  // namespace
}  // namespace nrs
