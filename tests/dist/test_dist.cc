// Distributed-fleet tests in three tiers:
//
//   WorkerCatalog / LeaseTable — pure data-structure unit tests (the
//   coordinator mutates both only on its io thread, so they are testable
//   without sockets): deterministic placement, refusal penalties, the
//   bounded-exponential backoff escalation and its reset on progress.
//
//   DistE2E — a real FleetCoordinator plus real FleetWorker objects over
//   loopback TCP in one process.  Covers the acceptance bar end to end:
//   leases converge, per-cell lifetime totals stay monotonic across an
//   abrupt worker death (kill(), the in-process `kill -9`), the survivor
//   absorbs the orphaned cells, a graceful leave releases leases, and a
//   worker that stops heartbeating while its socket stays open is caught
//   by the silence scan (not just the EOF fast path).
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "dist/catalog.h"
#include "dist/coordinator.h"
#include "dist/lease.h"
#include "dist/worker.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "store/query.h"
#include "../net/syn_dropping_listener.h"

namespace nrs {
namespace {

using Clock = std::chrono::steady_clock;

/// Lease TTL of the table unit tests.
constexpr double kTtlS = 1.0;

/// `s` seconds on the steady clock, rounded as the lease table rounds.
Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

bool wait_until(const std::function<bool()>& pred, double timeout_s = 20.0) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---- WorkerCatalog ---------------------------------------------------

TEST(WorkerCatalog, AddAssignsUniqueIdsAndFindWorks) {
  WorkerCatalog catalog;
  const auto now = Clock::now();
  const std::uint64_t a = catalog.add("a", 4, 10, now);
  const std::uint64_t b = catalog.add("b", 2, 11, now);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  ASSERT_NE(catalog.find(a), nullptr);
  EXPECT_EQ(catalog.find(a)->name, "a");
  EXPECT_EQ(catalog.find(a)->capacity, 4u);
  ASSERT_NE(catalog.find(b), nullptr);
  EXPECT_EQ(catalog.find(b)->fd, 11);
  EXPECT_EQ(catalog.find(9999), nullptr);
  EXPECT_EQ(catalog.alive_count(), 2u);
}

TEST(WorkerCatalog, PickLeastLoadedPrefersFewestCellsThenLowestId) {
  WorkerCatalog catalog;
  LeaseTable leases(8, kTtlS);
  const auto now = Clock::now();
  const std::uint64_t a = catalog.add("a", 4, 10, now);
  const std::uint64_t b = catalog.add("b", 4, 11, now);
  const auto hold = [&](std::uint64_t worker,
                        std::initializer_list<std::uint32_t> cells) {
    for (const std::uint32_t cell : cells) {
      leases.grant(cell, worker, now);
    }
  };
  // Tie at zero cells: deterministic lowest id.
  ASSERT_EQ(catalog.pick_least_loaded(leases),
            std::optional<std::uint64_t>(a));
  hold(a, {0, 1});
  ASSERT_EQ(catalog.pick_least_loaded(leases),
            std::optional<std::uint64_t>(b));
  // Saturate both: nothing to pick.
  hold(a, {2, 3});
  hold(b, {4, 5, 6, 7});
  EXPECT_FALSE(catalog.pick_least_loaded(leases).has_value());
}

TEST(WorkerCatalog, DeadWorkersAreNeverPickedAndSilenceIsDetected) {
  WorkerCatalog catalog;
  const LeaseTable leases(0, kTtlS);
  const auto t0 = Clock::now();
  const std::uint64_t a = catalog.add("a", 4, 10, t0);
  const std::uint64_t b = catalog.add("b", 4, 11, t0);
  catalog.mark_dead(a);
  EXPECT_EQ(catalog.pick_least_loaded(leases),
            std::optional<std::uint64_t>(b));
  EXPECT_EQ(catalog.alive_count(), 1u);

  // b heartbeats at t0 + 1s; a's silence does not matter (already dead).
  catalog.touch(b, t0 + std::chrono::seconds(1));
  const auto silent =
      catalog.silent_since(t0 + std::chrono::milliseconds(1300), 0.4);
  EXPECT_TRUE(silent.empty());
  const auto silent2 =
      catalog.silent_since(t0 + std::chrono::milliseconds(2500), 0.4);
  ASSERT_EQ(silent2.size(), 1u);
  EXPECT_EQ(silent2[0], b);

  catalog.remove(a);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.find(a), nullptr);
}

// ---- LeaseTable ------------------------------------------------------

TEST(LeaseTable, GrantAckRenewLifecycle) {
  LeaseTable table(2, kTtlS);
  const auto t0 = Clock::now();
  const std::uint64_t id = table.grant(0, /*worker_id=*/7, t0);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(table.cell(0).state, LeaseState::kPending);
  EXPECT_EQ(table.cell(0).worker_id, 7u);
  EXPECT_EQ(table.cell(0).handoffs, 0u);
  ASSERT_NE(table.by_id(id), nullptr);

  ASSERT_TRUE(table.ack(id, t0));
  EXPECT_EQ(table.cell(0).state, LeaseState::kActive);
  EXPECT_EQ(table.active_count(), 1u);

  // Renewal pushes the expiry past the original TTL.
  const auto later = t0 + std::chrono::milliseconds(800);
  ASSERT_TRUE(table.renew(id, later));
  EXPECT_TRUE(table.expired(t0 + std::chrono::milliseconds(1500)).empty());
  const auto expired = table.expired(later + std::chrono::milliseconds(1100));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 0u);

  // Unknown ids are rejected cleanly.
  EXPECT_FALSE(table.renew(id + 999, later));
  EXPECT_EQ(table.by_id(id + 999), nullptr);
}

TEST(LeaseTable, RefusalReleasesWithPenaltyAndBumpsHandoffs) {
  LeaseTable table(1, kTtlS);
  const auto t0 = Clock::now();
  const std::uint64_t id = table.grant(0, 7, t0);
  table.release(0, /*penalize=*/true, t0);
  EXPECT_EQ(table.cell(0).state, LeaseState::kUnassigned);
  EXPECT_EQ(table.cell(0).handoffs, 1u);
  EXPECT_EQ(table.by_id(id), nullptr);
  // Backoff holds the cell out of the assignable pool until retry_at.
  EXPECT_TRUE(table.assignable(t0).empty());
  EXPECT_EQ(table.assignable(t0 + std::chrono::milliseconds(60)).size(), 1u);
  // The next grant carries the bumped incarnation via handoffs.
  table.grant(0, 7, t0 + std::chrono::milliseconds(60));
  EXPECT_EQ(table.cell(0).handoffs, 1u);
}

TEST(LeaseTable, BackoffEscalatesToCapAndProgressResetsIt) {
  LeaseTable table(1, kTtlS);
  auto now = Clock::now();
  const auto hold_after_penalty = [&table, &now] {
    table.grant(0, 7, now);
    table.release(0, /*penalize=*/true, now);
    return table.cell(0).retry_at - now;
  };
  // 0.05 -> 0.1 -> ... -> 0.8 -> 1.0 (cap) -> 1.0.
  const double expected[] = {0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0};
  for (unsigned i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(hold_after_penalty(), seconds(expected[i])) << "release " << i;
    EXPECT_DOUBLE_EQ(expected[i], backoff_base_delay(kLeaseBackoff, i));
    now += std::chrono::seconds(2);
  }
  // Real progress under a fresh lease resets the escalation.
  table.grant(0, 7, now);
  table.note_progress(0);
  table.release(0, /*penalize=*/true, now);
  EXPECT_EQ(table.cell(0).retry_at - now, seconds(0.05));
}

TEST(LeaseTable, DeliberateReleaseIsImmediatelyAssignable) {
  LeaseTable table(1, kTtlS);
  const auto t0 = Clock::now();
  table.grant(0, 7, t0);
  table.release(0, /*penalize=*/false, t0);
  EXPECT_EQ(table.cell(0).handoffs, 1u);
  ASSERT_EQ(table.assignable(t0).size(), 1u);
  EXPECT_EQ(table.assignable(t0)[0], 0u);
}

// ---- End-to-end over loopback ----------------------------------------

CoordinatorConfig coordinator_config(unsigned n_cells) {
  CoordinatorConfig config;
  config.seed = 11;
  for (unsigned i = 0; i < n_cells; ++i) {
    CoordinatorCellSpec cell;
    cell.name = "cell" + std::to_string(i);
    config.cells.push_back(std::move(cell));
  }
  return config;
}

WorkerConfig worker_config(std::uint16_t port, const std::string& name,
                           std::uint32_t capacity) {
  WorkerConfig config;
  config.name = name;
  config.port = port;
  config.capacity = capacity;
  config.heartbeat_period_s = 0.05;
  config.report_period_s = 0.1;
  return config;
}

TEST(DistE2E, KillReassignsLeasesAndTotalsStayMonotonic) {
  constexpr unsigned kCells = 4;
  FleetCoordinator coordinator(coordinator_config(kCells));
  ASSERT_GT(coordinator.port(), 0);

  // Either worker alone can absorb the whole fleet after the kill.
  auto w0 = std::make_unique<FleetWorker>(
      worker_config(coordinator.port(), "w0", kCells));
  auto w1 = std::make_unique<FleetWorker>(
      worker_config(coordinator.port(), "w1", kCells));

  // Either worker can run all four cells alone, so the fleet can turn
  // active before the second hello lands: wait for the rebalance that
  // follows that join, not just for the cells.
  ASSERT_TRUE(wait_until([&] {
    if (coordinator.worker_count() != 2 || !coordinator.all_cells_active()) {
      return false;
    }
    const auto workers = coordinator.workers();
    return workers.size() == 2 && !workers[0].cells.empty() &&
           !workers[1].cells.empty();
  }, 30.0)) << "the second worker never got a cell";
  ASSERT_TRUE(wait_until([&] { return coordinator.all_cells_active(); }, 30.0))
      << "fleet never converged";
  EXPECT_EQ(coordinator.worker_count(), 2u);

  // Both workers should carry cells (rebalance-on-join splits the fleet).
  {
    const auto workers = coordinator.workers();
    ASSERT_EQ(workers.size(), 2u);
    EXPECT_FALSE(workers[0].cells.empty());
    EXPECT_FALSE(workers[1].cells.empty());
  }

  // Sample lifetime totals continuously; they must never rewind, not even
  // across the handoff below.
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
  ASSERT_TRUE(wait_until([&] {
    sample();
    std::uint64_t total = 0;
    for (const auto& [cell, slots] : high_water) {
      total += slots;
    }
    return total > 200;
  }, 30.0)) << "fleet made no progress";

  const std::uint64_t reassignments_before = coordinator.reassignments();
  w0->kill();  // abrupt: socket slams shut, no goodbye
  ASSERT_TRUE(wait_until([&] {
    sample();
    return coordinator.worker_count() == 1;
  }, 10.0)) << "coordinator never noticed the death";
  ASSERT_TRUE(wait_until([&] {
    sample();
    return coordinator.all_cells_active();
  }, 30.0)) << "orphaned cells were never reassigned";
  EXPECT_GT(coordinator.reassignments(), reassignments_before);

  // The survivor now carries every cell, under bumped incarnations.
  {
    const auto workers = coordinator.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].name, "w1");
    EXPECT_EQ(workers[0].cells.size(), kCells);
    unsigned handoffs = 0;
    for (const DistCellStatus& cell : coordinator.cells()) {
      handoffs += cell.handoffs;
      EXPECT_EQ(cell.worker_id, workers[0].id) << "cell " << cell.cell_index;
    }
    EXPECT_GT(handoffs, 0u);
  }

  // Keep sampling across post-handoff progress.
  std::map<std::uint32_t, std::uint64_t> at_handoff = high_water;
  ASSERT_TRUE(wait_until([&] {
    sample();
    for (const auto& [cell, slots] : high_water) {
      if (slots <= at_handoff[cell]) {
        return false;
      }
    }
    return true;
  }, 30.0)) << "cells made no progress after the handoff";
  EXPECT_TRUE(monotonic) << "a per-cell lifetime total rewound";

  // summary() agrees with cells() on monotonic lifetime totals.
  const FleetSummary summary = coordinator.summary();
  ASSERT_EQ(summary.cells.size(), kCells);

  // Graceful leave: the survivor drains and says goodbye via EOF; every
  // lease is released (deliberately, not as a failure).
  w1->stop();
  ASSERT_TRUE(wait_until([&] { return coordinator.worker_count() == 0; },
                         10.0));
  for (const DistCellStatus& cell : coordinator.cells()) {
    EXPECT_EQ(cell.lease_state, LeaseState::kUnassigned);
    EXPECT_EQ(cell.worker_id, 0u);
  }
  sample();
  EXPECT_TRUE(monotonic);

  w0->stop();  // idempotent after kill()
  coordinator.stop();
}

// A cell's retransmission rate is its lifetime rate, retransmitted over
// observed DCIs of the counters the coordinator serves, while its lease
// reports and after the lease ends.
TEST(DistE2E, RetxRateOutlivesItsLease) {
  CoordinatorConfig config = coordinator_config(1);
  config.cells[0].ue_snr_db = 12.0;  // a UE link that retransmits
  FleetCoordinator coordinator(std::move(config));
  FleetWorker worker(worker_config(coordinator.port(), "w0", 1));
  ASSERT_TRUE(wait_until([&] {
    const CellSummary cell = coordinator.summary().cells.at(0);
    return cell.counters.dcis > 0 && cell.retx_rate > 0.0;
  }, 30.0)) << "the cell never reported a retransmission";

  worker.stop();
  ASSERT_TRUE(wait_until([&] {
    return coordinator.cells().at(0).lease_state == LeaseState::kUnassigned;
  }, 10.0)) << "the lease outlived its worker";
  const FleetSummary summary = coordinator.summary();
  const CellSummary& cell = summary.cells.at(0);
  EXPECT_GT(cell.retx_rate, 0.0);
  EXPECT_GT(summary.retx_rate, 0.0);
  ASSERT_GT(cell.counters.dcis, 0u);
  const double lifetime = static_cast<double>(cell.counters.retx_dcis) /
                          static_cast<double>(cell.counters.dcis);
  EXPECT_DOUBLE_EQ(cell.retx_rate, lifetime);
  EXPECT_DOUBLE_EQ(summary.retx_rate, lifetime);
  coordinator.stop();
}

TEST(DistE2E, SilentWorkerIsDeclaredDeadWithoutEof) {
  // The worker keeps its socket open but never heartbeats (the stalled-
  // process case): only the silence scan can catch it.
  CoordinatorConfig config = coordinator_config(2);
  config.lease_ttl_ms = 10000;  // lease expiry must not fire first
  config.heartbeat_timeout_s = 0.4;
  FleetCoordinator coordinator(config);

  WorkerConfig wc = worker_config(coordinator.port(), "stalled", 2);
  wc.heartbeat_period_s = 30.0;
  wc.report_period_s = 30.0;
  wc.reconnect_backoff_s = 30.0;  // do not rejoin within the test window
  FleetWorker worker(wc);

  ASSERT_TRUE(wait_until([&] { return coordinator.worker_count() == 1; },
                         10.0));
  ASSERT_TRUE(wait_until([&] { return coordinator.worker_count() == 0; },
                         10.0))
      << "silence scan never declared the worker dead";
  for (const DistCellStatus& cell : coordinator.cells()) {
    EXPECT_EQ(cell.worker_id, 0u);
  }
  worker.stop();
  coordinator.stop();
}

TEST(DistE2E, OverCapacityGrantsAreRefusedAndLandElsewhere) {
  // 3 cells, one worker with capacity 2: one cell stays unassigned (with
  // refusal-driven backoff) until a second worker joins.
  CoordinatorConfig config = coordinator_config(3);
  config.rebalance_on_join = false;  // isolate the refusal path
  FleetCoordinator coordinator(config);

  auto w0 = std::make_unique<FleetWorker>(
      worker_config(coordinator.port(), "small", 2));
  ASSERT_TRUE(wait_until([&] {
    std::size_t active = 0;
    for (const DistCellStatus& cell : coordinator.cells()) {
      if (cell.lease_state == LeaseState::kActive) {
        ++active;
      }
    }
    return active == 2;
  }, 30.0));
  EXPECT_FALSE(coordinator.all_cells_active());

  auto w1 = std::make_unique<FleetWorker>(
      worker_config(coordinator.port(), "extra", 2));
  ASSERT_TRUE(wait_until([&] { return coordinator.all_cells_active(); }, 30.0))
      << "third cell never landed on the new worker";

  w0->stop();
  w1->stop();
  coordinator.stop();
}

TEST(DistE2E, WorkerPredictionFramesAreIgnored) {
  // kPrediction is a frame of this wire version (the stream server sends
  // it), so a worker may send one to its coordinator.  The coordinator
  // skips it like any other frame outside the coordination protocol: the
  // peer stays registered, is granted its lease, and nothing is counted
  // stale.
  MetricsRegistry registry;
  FleetCoordinator coordinator(coordinator_config(1), &registry);

  const int fd = dial_tcp("127.0.0.1", coordinator.port());
  ASSERT_GE(fd, 0);
  const auto send = [fd](const std::vector<std::uint8_t>& frame) {
    return send_all(fd, frame.data(), frame.size());
  };
  WorkerHello hello;
  hello.name = "forecaster";
  hello.capacity = 1;
  ASSERT_TRUE(send(encode_frame(hello)));
  PredictionSet set;
  set.cell_index = 0;
  set.slot = 240;
  set.horizon_slots = 200;
  set.entries.push_back({0x4601, false, false, 2.5e6, 0.0, 0.0});
  ASSERT_TRUE(send(prediction_frame(set)));

  // A live worker's loop: heartbeat every 50 ms (well inside
  // heartbeat_timeout_s), listing the lease once it holds one, and read
  // the coordinator's grants.
  FrameParser parser;
  std::optional<LeaseGrant> grant;
  bool closed = false;
  auto next_heartbeat = Clock::now();
  const auto pump = [&] {
    if (Clock::now() >= next_heartbeat) {
      WorkerHeartbeat hb;
      if (grant) {
        hb.leases.push_back(grant->lease_id);
      }
      send(encode_frame(hb));
      next_heartbeat = Clock::now() + std::chrono::milliseconds(50);
    }
    closed = closed || recv_frames(fd, parser) == RecvStatus::kClosed;
    while (const auto frame = parser.next()) {
      if (frame->type == FrameType::kLease) {
        grant = decode_payload<LeaseGrant>(frame->payload);
      }
    }
  };
  ASSERT_TRUE(wait_until([&] {
    pump();
    return closed || grant.has_value();
  }, 10.0));
  ASSERT_TRUE(grant.has_value()) << "the peer was dropped before its grant";
  EXPECT_EQ(grant->spec.cell_index, 0u);

  // The ack follows the prediction frame on the same link, so once the
  // lease is active the coordinator has read past that frame.
  LeaseAck ack;
  ack.lease_id = grant->lease_id;
  ack.accepted = true;
  ack.epoch = grant->epoch;
  ASSERT_TRUE(send(encode_frame(ack)));
  EXPECT_TRUE(wait_until([&] {
    pump();
    return coordinator.cells()[0].lease_state == LeaseState::kActive;
  }, 10.0));
  EXPECT_FALSE(closed);
  EXPECT_EQ(coordinator.worker_count(), 1u);
  EXPECT_EQ(coordinator.cells()[0].worker_id,
            coordinator.workers().at(0).id);
  EXPECT_EQ(registry.snapshot().counter_value("dist.stale_reports"), 0u);
  ::close(fd);
  coordinator.stop();
}

// ---- Replication / failover primitives -------------------------------

TEST(LeaseTable, RestoreMirrorsBindingAndRebindKeepsIdentity) {
  LeaseTable table(2, kTtlS);
  const auto t0 = Clock::now();
  table.restore(0, LeaseState::kActive, /*lease_id=*/41, /*worker_id=*/7,
                /*handoffs=*/2, t0);
  EXPECT_EQ(table.cell(0).state, LeaseState::kActive);
  EXPECT_EQ(table.cell(0).worker_id, 7u);
  EXPECT_EQ(table.cell(0).handoffs, 2u);
  ASSERT_NE(table.by_id(41), nullptr);

  // Re-confirmation: the SAME lease moves to the holder's new catalog id
  // — no handoff bump, no state change, no fresh lease id.
  ASSERT_TRUE(table.rebind(41, /*new_worker_id=*/9));
  EXPECT_EQ(table.cell(0).worker_id, 9u);
  EXPECT_EQ(table.cell(0).handoffs, 2u);
  EXPECT_EQ(table.cell(0).lease_id, 41u);
  EXPECT_FALSE(table.rebind(999, 9));
}

TEST(LeaseTable, NextLeaseIdRatchetsAndNeverReusesReplicatedIds) {
  LeaseTable table(2, kTtlS);
  table.set_next_lease_id(41);
  EXPECT_EQ(table.next_lease_id(), 41u);
  table.set_next_lease_id(10);  // backward: ignored
  EXPECT_EQ(table.next_lease_id(), 41u);
  const std::uint64_t fresh = table.grant(1, 5, Clock::now());
  EXPECT_GT(fresh, 41u) << "a promoted standby must never reuse a live id";
}

TEST(LeaseTable, ExtendAllRestartsEveryTtlClock) {
  LeaseTable table(2, kTtlS);
  const auto t0 = Clock::now();
  table.restore(0, LeaseState::kActive, 41, 7, 0, t0);
  table.restore(1, LeaseState::kPending, 42, 7, 0, t0);
  const auto promoted = t0 + std::chrono::seconds(5);
  table.extend_all(promoted);
  EXPECT_TRUE(table.expired(promoted + std::chrono::milliseconds(900))
                  .empty());
  EXPECT_EQ(table.expired(promoted + std::chrono::milliseconds(1100)).size(),
            2u);
}

TEST(LeaseTable, ResetDropsEverything) {
  LeaseTable table(1, kTtlS);
  table.restore(0, LeaseState::kActive, 41, 7, 1, Clock::now());
  table.reset(3);
  EXPECT_EQ(table.n_cells(), 3u);
  EXPECT_EQ(table.cell(0).state, LeaseState::kUnassigned);
  EXPECT_EQ(table.by_id(41), nullptr);
}

TEST(WorkerCatalog, RestoredGhostsAreNeverPickedAndTouchAllDefersSilence) {
  WorkerCatalog catalog;
  const LeaseTable leases(0, kTtlS);
  const auto t0 = Clock::now();
  // Mirrored entry: no socket yet (fd -1) — a ghost awaiting reconnect.
  catalog.restore(7, "ghost", 8, t0);
  ASSERT_NE(catalog.find(7), nullptr);
  EXPECT_LT(catalog.find(7)->fd, 0);
  EXPECT_TRUE(catalog.find(7)->alive);
  EXPECT_FALSE(catalog.pick_least_loaded(leases).has_value())
      << "a ghost must never receive fresh leases";

  const std::uint64_t live = catalog.add("live", 4, 10, t0);
  EXPECT_EQ(catalog.pick_least_loaded(leases),
            std::optional<std::uint64_t>(live));

  // add() ids keep climbing past restored ids (no collision after resync).
  EXPECT_GT(live, 7u);

  // touch_all (promotion) gives the ghost a full heartbeat window.
  catalog.touch_all(t0 + std::chrono::seconds(5));
  EXPECT_TRUE(catalog
                  .silent_since(t0 + std::chrono::milliseconds(5300), 0.4)
                  .empty());
  EXPECT_EQ(catalog.silent_since(t0 + std::chrono::seconds(6), 0.4).size(),
            2u);

  catalog.clear();
  EXPECT_EQ(catalog.size(), 0u);
}

// ---- Coordinator HA over loopback ------------------------------------

TEST(DistE2E, StandbyMirrorsStateAndPromotesWithoutReassignment) {
  constexpr unsigned kCells = 3;
  CoordinatorConfig primary_config = coordinator_config(kCells);
  // Generous TTL: "re-confirmed within one TTL" must hold even on a
  // loaded ASan runner, and a lease expiring mid-failover would turn a
  // re-confirmation into the reassignment this test forbids.
  primary_config.lease_ttl_ms = 15000;
  primary_config.heartbeat_timeout_s = 5.0;
  auto primary =
      std::make_unique<FleetCoordinator>(std::move(primary_config));
  ASSERT_GT(primary->port(), 0);
  EXPECT_EQ(primary->role(), CoordinatorRole::kPrimary);
  EXPECT_EQ(primary->epoch(), 1u);

  CoordinatorConfig standby_config;  // cell list comes from the snapshot
  standby_config.standby_of =
      "127.0.0.1:" + std::to_string(primary->port());
  standby_config.lease_ttl_ms = 15000;
  standby_config.heartbeat_timeout_s = 5.0;
  FleetCoordinator standby(std::move(standby_config));
  EXPECT_EQ(standby.role(), CoordinatorRole::kStandby);

  WorkerConfig wc0 = worker_config(0, "w0", kCells);
  wc0.coordinators = {"127.0.0.1:" + std::to_string(primary->port()),
                      "127.0.0.1:" + std::to_string(standby.port())};
  WorkerConfig wc1 = wc0;
  wc1.name = "w1";
  FleetWorker w0(wc0);
  FleetWorker w1(wc1);

  ASSERT_TRUE(wait_until([&] { return primary->all_cells_active(); }, 30.0))
      << "fleet never converged on the primary";
  ASSERT_TRUE(wait_until([&] { return standby.synced(); }, 10.0))
      << "standby never attached to the primary";

  // The mirror converges: same cells, same lease bindings.
  ASSERT_TRUE(wait_until([&] {
    const auto mirrored = standby.cells();
    if (mirrored.size() != kCells) {
      return false;
    }
    for (const DistCellStatus& cell : mirrored) {
      if (cell.lease_state != LeaseState::kActive) {
        return false;
      }
    }
    return true;
  }, 10.0)) << "standby never mirrored the active leases";

  // Mirrored totals flow too (committed via replicated reports).
  ASSERT_TRUE(wait_until([&] {
    std::uint64_t total = 0;
    for (const DistCellStatus& cell : standby.cells()) {
      total += cell.slots;
    }
    return total > 100;
  }, 30.0)) << "replicated totals never advanced";

  // Remember the bindings + high water the standby must preserve.
  std::map<std::uint32_t, std::uint64_t> lease_ids;
  std::map<std::uint32_t, unsigned> handoffs_before;
  std::map<std::uint32_t, std::uint64_t> high_water;
  for (const DistCellStatus& cell : standby.cells()) {
    lease_ids[cell.cell_index] = cell.lease_id;
    handoffs_before[cell.cell_index] = cell.handoffs;
    high_water[cell.cell_index] = cell.slots;
  }

  // "Kill" the primary (in-process: stop() closes every socket at once).
  const auto t_kill = Clock::now();
  primary->stop();
  primary.reset();

  ASSERT_TRUE(wait_until(
      [&] { return standby.role() == CoordinatorRole::kPrimary; }, 15.0))
      << "standby never promoted";
  EXPECT_EQ(standby.promotions(), 1u);
  EXPECT_EQ(standby.epoch(), 2u) << "promotion must bump the epoch";

  // Every lease is RE-CONFIRMED (same id, same handoff count) — never
  // reassigned — and the whole failover fits inside one lease TTL.
  ASSERT_TRUE(wait_until([&] {
    return standby.reconfirmations() >= kCells &&
           standby.all_cells_active();
  }, 20.0)) << "leases were not re-confirmed on the new primary";
  const double failover_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_kill)
          .count();
  EXPECT_LT(failover_ms, 15000.0) << "failover exceeded one lease TTL";
  EXPECT_EQ(standby.reassignments(), 0u)
      << "healthy workers' cells must not flap";
  for (const DistCellStatus& cell : standby.cells()) {
    EXPECT_EQ(cell.lease_id, lease_ids[cell.cell_index])
        << "cell " << cell.cell_index << " got a fresh lease";
    EXPECT_EQ(cell.handoffs, handoffs_before[cell.cell_index])
        << "cell " << cell.cell_index << " was handed off";
  }

  // Workers adopted the new epoch and reports keep flowing with
  // monotonic totals.
  ASSERT_TRUE(wait_until([&] {
    return w0.epoch() == 2 && w1.epoch() == 2;
  }, 10.0)) << "workers never adopted the promoted epoch";
  ASSERT_TRUE(wait_until([&] {
    for (const DistCellStatus& cell : standby.cells()) {
      if (cell.slots <= high_water[cell.cell_index]) {
        return false;
      }
    }
    return true;
  }, 30.0)) << "no post-failover progress reached the new primary";
  for (const DistCellStatus& cell : standby.cells()) {
    EXPECT_GE(cell.slots, high_water[cell.cell_index])
        << "cell " << cell.cell_index << " total rewound across failover";
  }

  w0.stop();
  w1.stop();
  standby.stop();
}

// The standby's mirror equals the primary at every step of a fleet's life:
// joins and the rebalance they trigger, an abrupt worker death and the
// reassignment of its cells, and, once the workers stop, every committed
// total, the summary and the history rows of each cell.
TEST(DistE2E, StandbyMirrorEqualsPrimary) {
  constexpr unsigned kCells = 4;
  FleetCoordinator primary(coordinator_config(kCells));
  CoordinatorConfig standby_config;
  standby_config.standby_of = "127.0.0.1:" + std::to_string(primary.port());
  FleetCoordinator standby(std::move(standby_config));
  ASSERT_TRUE(wait_until([&] { return standby.synced(); }, 10.0))
      << "standby never attached to the primary";

  using Binding = std::tuple<std::uint32_t, LeaseState, std::uint64_t,
                             std::uint64_t, unsigned>;
  using Holding = std::tuple<std::uint64_t, std::string, std::uint32_t,
                             std::vector<std::uint32_t>>;
  const auto bindings = [](const FleetCoordinator& c) {
    std::vector<Binding> out;
    for (const DistCellStatus& cell : c.cells()) {
      out.emplace_back(cell.cell_index, cell.lease_state, cell.lease_id,
                       cell.worker_id, cell.handoffs);
    }
    return out;
  };
  const auto holdings = [](const FleetCoordinator& c) {
    std::vector<Holding> out;
    for (const DistWorkerStatus& worker : c.workers()) {
      out.emplace_back(worker.id, worker.name, worker.capacity, worker.cells);
    }
    return out;
  };
  const auto mirrored = [&] {
    return bindings(standby) == bindings(primary) &&
           holdings(standby) == holdings(primary);
  };

  // Two workers: the second one's join sheds half the first one's cells.
  auto w0 = std::make_unique<FleetWorker>(
      worker_config(primary.port(), "w0", kCells));
  ASSERT_TRUE(wait_until([&] { return primary.all_cells_active(); }, 30.0))
      << "fleet never converged on w0";
  auto w1 = std::make_unique<FleetWorker>(
      worker_config(primary.port(), "w1", kCells));
  ASSERT_TRUE(wait_until([&] {
    const auto workers = primary.workers();
    return primary.all_cells_active() && workers.size() == 2 &&
           workers[0].cells.size() == kCells / 2 &&
           workers[1].cells.size() == kCells / 2;
  }, 30.0)) << "the join never rebalanced the fleet";
  EXPECT_TRUE(wait_until(mirrored, 10.0)) << "mirror diverged after rebalance";

  // An abrupt death: the survivor takes every cell.
  w0->kill();
  ASSERT_TRUE(wait_until([&] {
    return primary.worker_count() == 1 && primary.all_cells_active();
  }, 30.0)) << "orphaned cells were never reassigned";
  EXPECT_TRUE(wait_until(mirrored, 10.0))
      << "mirror diverged after reassignment";

  // Quiesce: every lease ends and folds into the committed totals.
  w1->stop();
  w0->stop();
  ASSERT_TRUE(wait_until([&] { return primary.worker_count() == 0; }, 10.0));
  using Totals = std::tuple<std::uint32_t, std::string, LeaseState,
                            std::uint64_t, std::uint64_t, unsigned,
                            std::uint64_t, std::uint64_t, std::uint8_t>;
  const auto totals = [](const FleetCoordinator& c) {
    std::vector<Totals> out;
    for (const DistCellStatus& cell : c.cells()) {
      out.emplace_back(cell.cell_index, cell.name, cell.lease_state,
                       cell.lease_id, cell.worker_id, cell.handoffs,
                       cell.slots, cell.dcis, cell.cell_state);
    }
    return out;
  };
  const std::array<StoreMetric, 3> cell_metrics = {
      StoreMetric::kCellDcis, StoreMetric::kCellUsedPrbs,
      StoreMetric::kCellSparePrbs};
  const auto history = [&](const FleetCoordinator& c) {
    std::vector<std::vector<QueryRowWire>> out;
    for (std::uint32_t cell = 0; cell < kCells; ++cell) {
      for (const StoreMetric metric : cell_metrics) {
        QueryRequest range;
        range.kind = QueryKind::kRange;
        range.cell = cell;
        range.rnti = kStoreCellRnti;
        range.metric = static_cast<std::uint8_t>(metric);
        range.slot_to = UINT64_MAX;
        out.push_back(run_query(c.store(), range).rows);
      }
    }
    return out;
  };
  EXPECT_TRUE(wait_until([&] {
    return mirrored() && totals(standby) == totals(primary) &&
           standby.summary() == primary.summary() &&
           history(standby) == history(primary);
  }, 10.0)) << "mirror diverged once the fleet stopped";
  std::size_t rows = 0;
  for (const auto& series : history(primary)) {
    rows += series.size();
  }
  EXPECT_GT(rows, 0u) << "no history rows to compare";
}

TEST(DistE2E, WorkerSkipsStandbyViaNotPrimary) {
  // The worker's list names the standby FIRST: it must bounce off the
  // kNotPrimary answer and land on the real primary.
  constexpr unsigned kCells = 2;
  MetricsRegistry registry;
  FleetCoordinator primary(coordinator_config(kCells));
  CoordinatorConfig standby_config;
  standby_config.standby_of = "127.0.0.1:" + std::to_string(primary.port());
  FleetCoordinator standby(std::move(standby_config));

  WorkerConfig wc = worker_config(0, "bouncer", kCells);
  wc.coordinators = {"127.0.0.1:" + std::to_string(standby.port()),
                     "127.0.0.1:" + std::to_string(primary.port())};
  wc.reconnect_backoff_s = 0.05;
  FleetWorker worker(wc, &registry);

  ASSERT_TRUE(wait_until([&] { return primary.all_cells_active(); }, 30.0))
      << "worker never rotated past the standby";
  EXPECT_GE(registry.snapshot().counter_value("dist.worker.not_primary_rx"),
            1u);

  worker.stop();
  standby.stop();
  primary.stop();
}

TEST(DistE2E, WorkerSkipsACoordinatorHostThatDropsSyns) {
  // The first address in the worker's list drops SYNs (a powered-off or
  // partitioned host): the dial is abandoned at its bound, counts as a
  // failed attempt and rotates to the next address, where every lease
  // goes active — instead of the run thread sitting in connect() for the
  // kernel's SYN retry budget.
  SynDroppingListener unreachable;
  ASSERT_TRUE(unreachable.dropping());
  constexpr unsigned kCells = 2;
  FleetCoordinator primary(coordinator_config(kCells));

  WorkerConfig wc = worker_config(0, "rerouted", kCells);
  wc.coordinators = {unreachable.endpoint(),
                     "127.0.0.1:" + std::to_string(primary.port())};
  const auto start = Clock::now();
  FleetWorker worker(wc);
  ASSERT_TRUE(wait_until([&] { return primary.all_cells_active(); }, 10.0))
      << "worker never got past the unreachable address";
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(3));

  worker.stop();
  primary.stop();
}

TEST(DistE2E, StandbyAnswersWorkersWhileItsPrimaryDropsSyns) {
  // A standby whose primary address drops SYNs keeps redialing it, but
  // every dial is abandoned at its bound, so the io thread still answers
  // an early worker with kNotPrimary promptly.
  SynDroppingListener unreachable;
  ASSERT_TRUE(unreachable.dropping());
  CoordinatorConfig standby_config;
  standby_config.standby_of = unreachable.endpoint();
  FleetCoordinator standby(std::move(standby_config));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const int fd = dial_tcp("127.0.0.1", standby.port());
  ASSERT_GE(fd, 0);
  WorkerHello hello;
  hello.name = "early";
  const auto frame = encode_frame(hello);
  const auto start = Clock::now();
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  FrameParser parser;
  std::optional<NotPrimary> answer;
  while (!answer && Clock::now() - start < std::chrono::seconds(10)) {
    const RecvStatus status = recv_frames(fd, parser);
    if (status == RecvStatus::kClosed) {
      break;
    }
    while (const auto got = parser.next()) {
      if (got->type == FrameType::kNotPrimary) {
        answer = decode_payload<NotPrimary>(got->payload);
      }
    }
    if (status == RecvStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto answered_after = Clock::now() - start;
  ASSERT_TRUE(answer.has_value()) << "the standby never answered the hello";
  EXPECT_EQ(answer->message, "standby");
  EXPECT_LT(answered_after, std::chrono::seconds(1));
  ::close(fd);
  standby.stop();
}

TEST(DistE2E, DeposedPrimaryFencesItselfOnHigherEpochHello) {
  // A worker that has already served a higher term dials an old primary:
  // the hello's epoch deposes it on the spot (double-primary guard).
  FleetCoordinator coordinator(coordinator_config(1));
  ASSERT_EQ(coordinator.epoch(), 1u);

  const int fd = dial_tcp("127.0.0.1", coordinator.port());
  ASSERT_GE(fd, 0);
  WorkerHello hello;
  hello.name = "from-the-future";
  hello.epoch = 99;
  const auto frame = encode_frame(hello);
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  ASSERT_TRUE(wait_until([&] { return coordinator.deposed(); }, 10.0))
      << "higher-epoch hello never fenced the stale primary";

  // The answer on the wire is kNotPrimary, then EOF.
  FrameParser parser;
  bool saw_not_primary = false;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const RecvStatus status = recv_frames(fd, parser);
    if (status == RecvStatus::kData) {
      if (const auto got = parser.next();
          got.has_value() && got->type == FrameType::kNotPrimary) {
        const auto info = decode_payload<NotPrimary>(got->payload);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->message, "deposed");
        saw_not_primary = true;
        break;
      }
    } else if (status == RecvStatus::kClosed) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(saw_not_primary);
  ::close(fd);
  coordinator.stop();
}

TEST(DistE2E, OlderVersionWorkerHelloGetsStructuredReject) {
  // A v4 worker's hello carries no epoch, so this build cannot decode it.
  // The coordinator must answer the header's version with the structured
  // reject and hang up, not drop the frame and leave the peer waiting.
  MetricsRegistry registry;
  FleetCoordinator coordinator(coordinator_config(1), &registry);

  const int fd = dial_tcp("127.0.0.1", coordinator.port());
  ASSERT_GE(fd, 0);
  WireWriter v4_hello;  // name, capacity, version, pool_threads: no epoch
  v4_hello(std::string("v4-worker"), std::uint32_t{2}, std::uint16_t{4},
           std::uint32_t{1});
  std::vector<std::uint8_t> frame =
      encode_frame(FrameType::kWorkerHello, v4_hello.data());
  frame[4] = 4;  // header version, little-endian u16 at bytes 4-5
  frame[5] = 0;
  ASSERT_TRUE(send_all(fd, frame.data(), frame.size()));

  FrameParser parser;
  std::optional<VersionReject> reject;
  bool eof = false;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!eof && Clock::now() < deadline) {
    const RecvStatus status = recv_frames(fd, parser);
    if (status == RecvStatus::kData) {
      while (const auto got = parser.next()) {
        if (got->type == FrameType::kUnsupportedVersion) {
          reject = decode_payload<VersionReject>(got->payload);
        }
      }
    } else if (status == RecvStatus::kClosed) {
      eof = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(reject.has_value()) << "no kUnsupportedVersion reply";
  EXPECT_EQ(reject->rejected, 4);
  EXPECT_EQ(reject->max_version, kWireVersion);
  EXPECT_TRUE(eof) << "the coordinator kept the connection open";
  EXPECT_EQ(registry.snapshot().counter_value("dist.version_rejects"), 1u);
  ::close(fd);
  coordinator.stop();
}

// ---- Worker-side epoch fencing (manual fake coordinator) ---------------

/// Minimal scripted coordinator: accepts one worker, hands out whatever
/// frames the test says, and records the acks coming back.
class FakeCoordinator {
 public:
  FakeCoordinator() : listener_(listen_tcp("127.0.0.1", 0)) {}
  ~FakeCoordinator() {
    if (conn_fd_ >= 0) {
      ::close(conn_fd_);
    }
    ::close(listener_.fd);
  }

  [[nodiscard]] std::uint16_t port() const { return listener_.port; }

  bool accept_worker() {
    conn_fd_ = accept_tcp(listener_.fd);
    return conn_fd_ >= 0;
  }

  bool send(const std::vector<std::uint8_t>& frame) {
    return send_all(conn_fd_, frame.data(), frame.size());
  }

  /// Blocks (bounded) until one frame of `type` arrives; nullopt on
  /// timeout/EOF.  Other frame types (heartbeats, reports) are skipped.
  std::optional<Frame> read_frame(FrameType type, double timeout_s = 10.0) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (Clock::now() < deadline) {
      while (auto frame = parser_.next()) {
        if (frame->type == type) {
          return frame;
        }
      }
      const RecvStatus status = recv_frames(conn_fd_, parser_);
      if (status == RecvStatus::kClosed) {
        return std::nullopt;
      }
      if (status == RecvStatus::kWouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    return std::nullopt;
  }

 private:
  TcpListener listener_;
  int conn_fd_ = -1;
  FrameParser parser_;
};

TEST(DistE2E, StaleEpochLeaseGrantIsRejectedAndCounted) {
  FakeCoordinator fake;
  MetricsRegistry registry;
  WorkerConfig wc = worker_config(fake.port(), "fenced", 4);
  FleetWorker worker(wc, &registry);

  ASSERT_TRUE(fake.accept_worker());
  ASSERT_TRUE(fake.read_frame(FrameType::kWorkerHello).has_value());

  // Epoch-5 grant: adopted and accepted.
  LeaseGrant fresh;
  fresh.lease_id = 1;
  fresh.ttl_ms = 60000;
  fresh.epoch = 5;
  fresh.spec.cell_index = 0;
  fresh.spec.name = "cell0";
  fresh.spec.preset = "srsran";
  fresh.spec.n_ues = 1;
  ASSERT_TRUE(fake.send(encode_frame(fresh)));
  {
    const auto frame = fake.read_frame(FrameType::kLeaseAck);
    ASSERT_TRUE(frame.has_value());
    const auto ack = decode_payload<LeaseAck>(frame->payload);
    ASSERT_TRUE(ack.has_value());
    EXPECT_TRUE(ack->accepted);
    EXPECT_EQ(ack->epoch, 5u);
  }
  EXPECT_EQ(worker.epoch(), 5u);

  // Epoch-3 grant (a deposed primary trying to reclaim): refused with a
  // structured reason, counted, and the link is dropped.
  LeaseGrant stale = fresh;
  stale.lease_id = 2;
  stale.epoch = 3;
  stale.spec.cell_index = 1;
  ASSERT_TRUE(fake.send(encode_frame(stale)));
  {
    const auto frame = fake.read_frame(FrameType::kLeaseAck);
    ASSERT_TRUE(frame.has_value());
    const auto ack = decode_payload<LeaseAck>(frame->payload);
    ASSERT_TRUE(ack.has_value());
    EXPECT_FALSE(ack->accepted);
    EXPECT_EQ(ack->message, "stale epoch");
    EXPECT_EQ(ack->epoch, 5u) << "the refusal must teach the real term";
  }
  ASSERT_TRUE(wait_until([&] { return worker.stale_epoch_rejected() == 1; },
                         10.0));
  EXPECT_EQ(worker.epoch(), 5u) << "a stale grant must never lower the term";
  EXPECT_EQ(registry.snapshot().counter_value(
                "dist.worker.stale_epoch_rejected"),
            1u);
  // The cell leased under epoch 5 keeps running locally on its TTL.
  EXPECT_EQ(worker.n_cells(), 1u);

  worker.stop();
}

TEST(DistE2E, StaleEpochRevokeIsIgnored) {
  FakeCoordinator fake;
  WorkerConfig wc = worker_config(fake.port(), "unrevokable", 4);
  FleetWorker worker(wc);

  ASSERT_TRUE(fake.accept_worker());
  ASSERT_TRUE(fake.read_frame(FrameType::kWorkerHello).has_value());

  LeaseGrant grant;
  grant.lease_id = 1;
  grant.ttl_ms = 60000;
  grant.epoch = 5;
  grant.spec.cell_index = 0;
  grant.spec.preset = "srsran";
  grant.spec.n_ues = 1;
  ASSERT_TRUE(fake.send(encode_frame(grant)));
  ASSERT_TRUE(fake.read_frame(FrameType::kLeaseAck).has_value());
  ASSERT_TRUE(wait_until([&] { return worker.n_cells() == 1; }, 10.0));

  // A lower-term revoke must not tear the cell down...
  LeaseRevoke stale;
  stale.lease_id = 1;
  stale.reason = "imposter";
  stale.epoch = 3;
  ASSERT_TRUE(fake.send(encode_frame(stale)));
  ASSERT_TRUE(wait_until([&] { return worker.stale_epoch_rejected() == 1; },
                         10.0));
  EXPECT_EQ(worker.n_cells(), 1u);

  // ...but the same revoke at the current term does.
  stale.epoch = 5;
  ASSERT_TRUE(fake.send(encode_frame(stale)));
  ASSERT_TRUE(wait_until([&] { return worker.n_cells() == 0; }, 10.0));

  worker.stop();
}

}  // namespace
}  // namespace nrs
