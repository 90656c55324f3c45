// Process-level acceptance test for coordinator high availability: a real
// `fleet_coordinator` PRIMARY process (fork/exec, path baked in via
// NRS_FLEET_COORDINATOR_BIN) serves two real `fleet_worker` processes
// while an in-process standby coordinator tails it over the replication
// protocol.  The primary is SIGKILLed mid-ingest — the genuine `kill -9`
// — and the test asserts the failover bar:
//
//   * the standby promotes and every lease is RE-CONFIRMED (same lease
//     id, same handoff count, zero reassignments) within one lease TTL,
//   * per-cell lifetime totals never rewind across the failover,
//   * the standby's history store holds rows from BEFORE the kill
//     (replicated) and AFTER it (ingested directly),
//   * a resurrected primary on the old address is fenced by epoch: a
//     hello carrying the promoted term deposes it on the spot.
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
#include "net/socket_io.h"
#include "net/wire.h"
#include "store/query.h"

#ifndef NRS_FLEET_WORKER_BIN
#error "NRS_FLEET_WORKER_BIN must point at the fleet_worker binary"
#endif
#ifndef NRS_FLEET_COORDINATOR_BIN
#error "NRS_FLEET_COORDINATOR_BIN must point at the fleet_coordinator binary"
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

/// Reserve a loopback port: bind to 0, record, close.  The tiny window
/// before the child rebinds is the standard test-fixture trade-off.
std::uint16_t pick_free_port() {
  const TcpListener listener = listen_tcp("127.0.0.1", 0);
  ::close(listener.fd);
  return listener.port;
}

/// One spawned child process (coordinator or worker).  The destructor
/// SIGKILLs and reaps whatever is still running so an ASSERT_* early exit
/// can never leak a child.
class ChildProc {
 public:
  explicit ChildProc(const std::vector<std::string>& args) : pid_(fork()) {
    if (pid_ == 0) {
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        dup2(devnull, STDERR_FILENO);
        close(devnull);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
  }
  ~ChildProc() { terminate(SIGKILL); }

  ChildProc(const ChildProc&) = delete;
  ChildProc& operator=(const ChildProc&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

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

// Generous knobs for a loaded one-core ASan runner: the EOF fast paths
// make real latencies far smaller, but false timer fires here would churn
// leases and fail the zero-flap assertions.
constexpr unsigned kCells = 6;
constexpr std::uint32_t kTtlMs = 15000;
constexpr double kHeartbeatTimeoutS = 5.0;

std::vector<std::string> primary_args(std::uint16_t port) {
  return {NRS_FLEET_COORDINATOR_BIN,
          "--port", std::to_string(port),
          "--cells", std::to_string(kCells),
          "--lease-ttl", std::to_string(kTtlMs),
          "--heartbeat-timeout", std::to_string(kHeartbeatTimeoutS),
          "--seed", "42"};
}

TEST(CoordinatorKill, StandbyPromotesReconfirmsAndFencesTheGhost) {
  const std::uint16_t primary_port = pick_free_port();
  const std::string primary_addr =
      "127.0.0.1:" + std::to_string(primary_port);

  ChildProc primary(primary_args(primary_port));
  ASSERT_GT(primary.pid(), 0);

  // In-process standby tailing the child primary.
  CoordinatorConfig standby_config;
  standby_config.standby_of = primary_addr;
  standby_config.lease_ttl_ms = kTtlMs;
  standby_config.heartbeat_timeout_s = kHeartbeatTimeoutS;
  standby_config.store.segments_per_series = 64;
  FleetCoordinator standby(std::move(standby_config));
  ASSERT_TRUE(wait_until([&] { return standby.synced(); }, 60.0))
      << "standby never attached to the primary process";
  const std::string standby_addr =
      "127.0.0.1:" + std::to_string(standby.port());

  // Two real worker processes, each told about both coordinators.
  const std::string coordinators = primary_addr + "," + standby_addr;
  const auto worker_args = [&](const std::string& name) {
    return std::vector<std::string>{NRS_FLEET_WORKER_BIN,
                                    "--coordinators", coordinators,
                                    "--name", name,
                                    "--capacity", std::to_string(kCells),
                                    "--slots-per-tick", "5"};
  };
  ChildProc proc_a(worker_args("procA"));
  ChildProc proc_b(worker_args("procB"));
  ASSERT_GT(proc_a.pid(), 0);
  ASSERT_GT(proc_b.pid(), 0);

  // Observe the whole run through the standby's mirror.
  ASSERT_TRUE(wait_until([&] {
    const auto cells = standby.cells();
    if (cells.size() != kCells) {
      return false;
    }
    for (const DistCellStatus& cell : cells) {
      if (cell.lease_state != LeaseState::kActive) {
        return false;
      }
    }
    return true;
  }, 180.0)) << "mirror never showed a fully active fleet";

  // Monotonicity watchdog on the mirrored lifetime totals.
  std::map<std::uint32_t, std::uint64_t> high_water;
  bool monotonic = true;
  const auto sample = [&] {
    for (const DistCellStatus& cell : standby.cells()) {
      auto [it, inserted] = high_water.emplace(cell.cell_index, cell.slots);
      if (!inserted) {
        if (cell.slots < it->second) {
          monotonic = false;
        }
        it->second = std::max(it->second, cell.slots);
      }
    }
  };
  ASSERT_TRUE(wait_until([&] {
    sample();
    for (const auto& [cell, slots] : high_water) {
      if (slots < 100) {
        return false;
      }
    }
    return high_water.size() == kCells;
  }, 180.0)) << "replicated totals never advanced pre-kill";

  // The bindings the failover must preserve.
  std::map<std::uint32_t, std::uint64_t> lease_ids;
  std::map<std::uint32_t, unsigned> handoffs_before;
  for (const DistCellStatus& cell : standby.cells()) {
    lease_ids[cell.cell_index] = cell.lease_id;
    handoffs_before[cell.cell_index] = cell.handoffs;
  }
  const std::uint64_t watermark = high_water[0];
  ASSERT_GT(watermark, 0u);

  // The genuine kill -9 on the live primary, mid-ingest.
  const auto t_kill = Clock::now();
  primary.terminate(SIGKILL);

  ASSERT_TRUE(wait_until(
      [&] { return standby.role() == CoordinatorRole::kPrimary; }, 30.0))
      << "standby never promoted";
  EXPECT_EQ(standby.promotions(), 1u);
  EXPECT_GE(standby.epoch(), 2u) << "promotion must bump the epoch";

  // All leases re-confirmed (not reassigned) within one lease TTL.
  ASSERT_TRUE(wait_until([&] {
    sample();
    return standby.reconfirmations() >= kCells &&
           standby.all_cells_active();
  }, static_cast<double>(kTtlMs) / 1000.0))
      << "leases were not re-confirmed within one TTL";
  const double failover_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_kill)
          .count();
  EXPECT_LT(failover_ms, static_cast<double>(kTtlMs));
  std::printf("[ coordinator-kill ] takeover converged in %.0f ms "
              "(ttl %u ms)\n",
              failover_ms, kTtlMs);
  EXPECT_EQ(standby.reassignments(), 0u)
      << "healthy workers' cells flapped during failover";
  for (const DistCellStatus& cell : standby.cells()) {
    EXPECT_EQ(cell.lease_id, lease_ids[cell.cell_index])
        << "cell " << cell.cell_index << " got a fresh lease";
    EXPECT_EQ(cell.handoffs, handoffs_before[cell.cell_index])
        << "cell " << cell.cell_index << " was handed off";
  }

  // Post-failover progress lands at the new primary, still monotonic.
  ASSERT_TRUE(wait_until([&] {
    sample();
    return high_water[0] > watermark + 50;
  }, 120.0)) << "no post-failover ingest reached the promoted standby";
  EXPECT_TRUE(monotonic) << "a mirrored lifetime total rewound";

  // History continuity on the PROMOTED coordinator's store: rows below
  // the kill-time watermark arrived via replication, rows above it via
  // direct ingest after takeover.
  QueryRequest before;
  before.kind = QueryKind::kRange;
  before.cell = 0;
  before.rnti = kStoreCellRnti;
  before.metric = static_cast<std::uint8_t>(StoreMetric::kCellDcis);
  before.slot_from = 0;
  before.slot_to = watermark;
  const QueryResponse before_rows = run_query(standby.store(), before);
  ASSERT_EQ(before_rows.status, QueryStatus::kOk) << before_rows.error;
  EXPECT_FALSE(before_rows.rows.empty())
      << "no replicated history rows from before the kill";

  QueryRequest after = before;
  after.slot_from = watermark;
  after.slot_to = UINT64_MAX;
  const QueryResponse after_rows = run_query(standby.store(), after);
  ASSERT_EQ(after_rows.status, QueryStatus::kOk) << after_rows.error;
  EXPECT_FALSE(after_rows.rows.empty())
      << "no directly-ingested history rows from after the takeover";

  // Resurrect the deposed primary on its old address.  It comes back at
  // epoch 1; the first hello carrying the promoted term must fence it —
  // it answers kNotPrimary("deposed") instead of granting leases.
  ChildProc ghost(primary_args(primary_port));
  ASSERT_GT(ghost.pid(), 0);
  const std::uint64_t promoted_epoch = standby.epoch();
  bool fenced = false;
  const auto try_fence = [&]() -> bool {
    const int fd = dial_tcp("127.0.0.1", primary_port);
    if (fd < 0) {
      return false;
    }
    WorkerHello hello;
    hello.name = "epoch-probe";
    hello.epoch = promoted_epoch;
    const auto frame = encode_frame(hello);
    if (!send_all(fd, frame.data(), frame.size())) {
      ::close(fd);
      return false;
    }
    FrameParser parser;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      const RecvStatus status = recv_frames(fd, parser);
      if (status == RecvStatus::kData) {
        while (const auto got = parser.next()) {
          if (got->type == FrameType::kNotPrimary) {
            const auto info = decode_payload<NotPrimary>(got->payload);
            if (info.has_value() && info->message == "deposed") {
              fenced = true;
            }
            ::close(fd);
            return true;  // got the verdict either way
          }
          if (got->type == FrameType::kLease) {
            ::close(fd);  // granting means NOT fenced
            return true;
          }
        }
      } else if (status == RecvStatus::kClosed) {
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ::close(fd);
    return false;  // child not up yet (or no answer) — retry
  };
  ASSERT_TRUE(wait_until(try_fence, 60.0))
      << "resurrected primary never answered the epoch probe";
  EXPECT_TRUE(fenced)
      << "resurrected primary served leases instead of fencing itself";
  ghost.terminate(SIGKILL);

  // Graceful teardown: SIGTERM drains the workers cleanly.
  const int status_a = proc_a.terminate(SIGTERM);
  ASSERT_GE(status_a, 0);
  EXPECT_TRUE(WIFEXITED(status_a));
  EXPECT_EQ(WEXITSTATUS(status_a), 0) << "procA did not exit cleanly";
  const int status_b = proc_b.terminate(SIGTERM);
  ASSERT_GE(status_b, 0);
  EXPECT_TRUE(WIFEXITED(status_b));
  EXPECT_EQ(WEXITSTATUS(status_b), 0) << "procB did not exit cleanly";

  standby.stop();
}

}  // namespace
}  // namespace nrs
