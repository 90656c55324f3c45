// Fleet orchestration tests: concurrent supervised cells, crash/stall
// restart with backoff, permanent failure after the restart budget,
// supervision verdicts that follow the seed rather than the host (a slow
// neighbour, an endless outage), deterministic seeding, run_until's exact
// target, the active-UE count, and the aggregate kFleet frame on the wire.
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "gnb/presets.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "store/history_store.h"
#include "store/query.h"
#include "store/store_sink.h"
#include "../nrscope/slot_streams.h"

namespace nrs {
namespace {

FleetCellSpec make_spec(unsigned n_ues = 2) {
  FleetCellSpec spec;
  spec.cell = srsran_cell();
  spec.n_ues = n_ues;
  spec.ue_rate_bps = 2e6;
  return spec;
}

FleetConfig make_config(std::size_t n_cells) {
  FleetConfig config;
  for (std::size_t i = 0; i < n_cells; ++i) {
    FleetCellSpec spec = make_spec();
    spec.cell.name = "cell" + std::to_string(i);
    config.cells.push_back(std::move(spec));
  }
  config.pool_threads = 4;
  config.seed = 42;
  return config;
}

/// The synchronous engine's stream of `slots` slots for fleet cell `cell`,
/// fed exactly as the fleet builds the cell's first incarnation.
std::vector<SlotResult> reference_stream(const FleetConfig& config,
                                         std::uint32_t cell,
                                         std::uint64_t slots) {
  FleetCellSim sim = build_fleet_cell(config.cells[cell], config.seed, cell);
  NrScope engine(sim.scope);
  IqBuffer samples;
  std::vector<SlotResult> stream(slots);
  for (SlotResult& result : stream) {
    sim.radio->capture_into(sim.gnb->step(), samples);
    engine.process_slot(samples, result);
  }
  return stream;
}

/// Records every slot, after sleeping for as long as `pause(result)` says:
/// a consumer that holds its cell's engine thread, and through the
/// closed-loop push the cell's advance task and the whole tick.
class PausingSink : public RecordingSink {
 public:
  using Pause = std::function<std::chrono::milliseconds(const SlotResult&)>;
  explicit PausingSink(Pause pause) : pause_(std::move(pause)) {}

  void on_slot(const SlotResult& result) override {
    std::this_thread::sleep_for(pause_(result));
    RecordingSink::on_slot(result);
  }

 private:
  Pause pause_;
};

TEST(Fleet, ConcurrentCellsProduceTelemetryAndRollups) {
  MetricsRegistry registry;
  FleetOrchestrator fleet(make_config(3), registry);
  ASSERT_EQ(fleet.n_cells(), 3u);

  fleet.run_until(500);
  fleet.stop();

  const FleetSummary roll = fleet.summary();
  ASSERT_EQ(roll.cells.size(), 3u);
  ASSERT_EQ(roll.spare_ranking.size(), 3u);
  EXPECT_EQ(roll.totals.restarts, 0u);
  EXPECT_GT(roll.totals.dcis, 0u);
  EXPECT_GT(roll.dl_mbps_total, 0.0);
  EXPECT_GE(roll.retx_rate, 0.0);
  EXPECT_LE(roll.retx_rate, 1.0);
  EXPECT_DOUBLE_EQ(roll.retx_rate,
                   static_cast<double>(roll.totals.retx_dcis) /
                       static_cast<double>(roll.totals.dcis));
  EXPECT_GE(roll.slot, 500u);

  std::vector<bool> ranked(3, false);
  for (const std::uint32_t idx : roll.spare_ranking) {
    ASSERT_LT(idx, 3u);
    EXPECT_FALSE(ranked[idx]) << "cell " << idx << " ranked twice";
    ranked[idx] = true;
  }

  for (const CellSummary& cell : roll.cells) {
    EXPECT_EQ(fleet.cell_state(cell.cell_index), FleetCellState::kRunning);
    EXPECT_EQ(cell.state,
              static_cast<std::uint8_t>(FleetCellState::kRunning));
    EXPECT_GE(cell.counters.slots, 500u) << cell.name;
    EXPECT_GT(cell.counters.dcis, 0u) << cell.name;
    EXPECT_GT(cell.dl_mbps, 0.0) << cell.name;
    EXPECT_GE(cell.utilization, 0.0);
    EXPECT_LE(cell.utilization, 1.0);
    EXPECT_GT(cell.active_ues, 0u) << cell.name;
  }

  // The namespaced per-cell metrics mirror the summary.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.cell0.slots"),
            roll.cells[0].counters.slots);
  EXPECT_EQ(snap.counter_value("fleet.cell0.retx_dcis"),
            roll.cells[0].counters.retx_dcis);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 0u);
  const MetricsSnapshot cell1 = snap.filter("fleet.cell1.");
  EXPECT_NE(cell1.find_counter("fleet.cell1.dcis"), nullptr);
  const auto* latency = snap.find_histogram("fleet.slot_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count, 0u);
}

TEST(Fleet, CrashedCellRestartsWhileOthersKeepProducing) {
  MetricsRegistry registry;
  FleetConfig config = make_config(2);
  std::atomic<unsigned> hook_crashes{0};
  config.cells[1].fault_hook = [&hook_crashes](std::uint64_t slot,
                                               unsigned incarnation) {
    if (incarnation == 0 && slot == 100) {
      hook_crashes.fetch_add(1);
      throw std::runtime_error("injected cell crash");
    }
    return FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(400);
  fleet.stop();

  EXPECT_EQ(hook_crashes.load(), 1u);
  EXPECT_EQ(fleet.cell_restarts(1), 1u);
  EXPECT_EQ(fleet.cell_state(1), FleetCellState::kRunning);
  // Lifetime telemetry spans both incarnations (~100 slots before the
  // crash plus the restarted monitor's share of the 400-slot target).
  EXPECT_GE(fleet.cell_slots(1), 400u);

  // The healthy cell never restarted and was not disturbed.
  EXPECT_EQ(fleet.cell_restarts(0), 0u);
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kRunning);
  EXPECT_GE(fleet.cell_slots(0), 400u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.crashes"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.stalls"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.cell1.restarts"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.cell0.restarts"), 0u);
}

TEST(Fleet, RunUntilStopsEachCellAtTheTarget) {
  // While a crashed neighbour waits out its backoff and catches up, the
  // healthy cell is held at the target instead of being fed past it, and
  // neither is fed past a target inside a 20-slot round.
  MetricsRegistry registry;
  FleetConfig config = make_config(2);
  config.cells[1].fault_hook = [](std::uint64_t slot, unsigned incarnation) {
    if (incarnation == 0 && slot == 100) {
      throw std::runtime_error("injected cell crash");
    }
    return FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(410);
  fleet.stop();

  EXPECT_EQ(fleet.cell_restarts(1), 1u);
  EXPECT_EQ(fleet.cell_slots(0), 410u);
  EXPECT_EQ(fleet.cell_slots(1), 410u);
}

TEST(Fleet, ActiveUesCountOnlyUserRntis) {
  // A 2-UE cell also carries its SIB1 DCI (SI-RNTI) and RAR DCIs
  // (RA-RNTI); those are cell traffic, not UEs.
  MetricsRegistry registry;
  FleetOrchestrator fleet(make_config(1), registry);
  fleet.run_until(1200);
  fleet.stop();

  const FleetSummary roll = fleet.summary();
  ASSERT_EQ(roll.cells.size(), 1u);
  EXPECT_EQ(roll.cells[0].active_ues, 2u);
  EXPECT_GT(roll.cells[0].dl_mbps, 0.0);
}

TEST(Fleet, StalledCellIsDetectedAndRestarted) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  // Incarnation 0 runs with a dark radio: the gNB transmits but nothing
  // reaches the sniffer.
  std::atomic<std::uint64_t> dark_slots{0};
  config.cells[0].fault_hook = [&dark_slots](std::uint64_t,
                                             unsigned incarnation) {
    if (incarnation == 0) {
      dark_slots.fetch_add(1);
      return FaultAction::kMute;
    }
    return FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(300);
  fleet.stop();

  // The verdict falls on the tick that completes kStallSlots dark slots
  // (a whole number of 20-slot ticks), whatever the host's speed.
  EXPECT_EQ(dark_slots.load(), kStallSlots);
  EXPECT_EQ(fleet.cell_restarts(0), 1u);
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kRunning);
  EXPECT_GE(fleet.cell_slots(0), 300u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.stalls"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.crashes"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 1u);
}

TEST(Fleet, DarkSpellsShorterThanTheStallRunAreNotStalls) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  // One slot in every kStallSlots reaches the radio: each push starts the
  // dark run over, so the cell is never stalled.
  config.cells[0].fault_hook = [](std::uint64_t slot, unsigned) {
    return slot % kStallSlots == kStallSlots - 1 ? FaultAction::kNone
                                                 : FaultAction::kMute;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(3);
  fleet.stop();

  EXPECT_EQ(fleet.cell_restarts(0), 0u);
  EXPECT_EQ(fleet.cell_slots(0), 3u);
  EXPECT_EQ(registry.snapshot().counter_value("fleet.stalls"), 0u);
}

TEST(Fleet, CellExceedingRestartBudgetIsMarkedFailed) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  config.cells[0].fault_hook = [](std::uint64_t slot, unsigned) {
    if (slot == 10) {
      throw std::runtime_error("crashes every incarnation");
    }
    return FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  // Terminates because the only cell eventually fails permanently, after
  // waiting out the backoff schedule (0.02 s doubling to 0.5 s: ~2.1 s).
  const auto start = std::chrono::steady_clock::now();
  fleet.run_until(500);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  fleet.stop();

  double schedule_s = 0.0;
  for (unsigned failures = 0; failures < kMaxCellRestarts; ++failures) {
    schedule_s += backoff_base_delay(kCellBackoff, failures);
  }
  EXPECT_GE(took.count(), schedule_s) << "each restart waits its backoff";
  constexpr unsigned kTeardowns = kMaxCellRestarts + 1;
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kFailed);
  EXPECT_EQ(fleet.cell_restarts(0), kTeardowns);
  EXPECT_EQ(fleet.cell_slots(0), 10u * kTeardowns);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.crashes"), kTeardowns);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), kTeardowns);
}

TEST(Fleet, SyncLossHealsInPlaceWithoutRestart) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  // A deep IQ outage long enough to trip the sync monitor (several SSB
  // periods) but bounded, so the engine can re-find the same cell in
  // place, well inside its resync grace.
  config.cells[0].faults.events.push_back(
      {FaultKind::kOutage, 500, 160, 35.0});
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(1200);
  fleet.stop();

  // The supervisor never tore the cell down: sync loss healed through the
  // engine's kResync path, not the restart machinery.
  EXPECT_EQ(fleet.cell_restarts(0), 0u);
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kRunning);
  EXPECT_GE(fleet.cell_slots(0), 1200u);

  const FleetSummary roll = fleet.summary();
  ASSERT_EQ(roll.cells.size(), 1u);
  EXPECT_GT(roll.cells[0].counters.resync_slots, 0u)
      << "the outage must trip sync";
  EXPECT_EQ(roll.cells[0].counters.restarts, 0u);
  EXPECT_GT(roll.cells[0].counters.dcis, 0u)
      << "telemetry resumed after recovery";
  EXPECT_GT(roll.cells[0].active_ues, 0u) << "tracked UEs survived in place";

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.cell0.resync_slots"),
            roll.cells[0].counters.resync_slots);
}

TEST(Fleet, EndlessOutageStaysOneIncarnation) {
  // An outage the cell never leaves: the engine loses sync at slot 540 and
  // resyncs in place until its own grace (resync_grace_slots) runs out.
  // Its consumer takes 12 ms over every resync slot, so the spell lasts
  // over 3.5 s of wall time; the supervisor, which counts slots, must not
  // care.
  constexpr std::uint64_t kSlots = 840;
  FleetConfig config = make_config(1);
  config.pool_threads = 1;
  config.seed = 5;
  config.cells[0].queue_depth = 2;  // the feed keeps pace with delivery
  config.cells[0].faults.events.push_back(
      {FaultKind::kOutage, 500, 1000000, 40.0});
  const std::vector<SlotResult> expected =
      reference_stream(config, 0, kSlots);

  MetricsRegistry registry;
  FleetOrchestrator fleet(std::move(config), registry);
  std::shared_ptr<RecordingSink> sink;
  fleet.add_sink("record", [&sink](std::uint32_t) {
    sink = std::make_shared<PausingSink>([](const SlotResult& result) {
      return std::chrono::milliseconds(
          result.sync_state == SyncState::kResync ? 12 : 0);
    });
    return sink;
  });
  fleet.run_until(kSlots);
  fleet.stop();

  EXPECT_EQ(fleet.cell_restarts(0), 0u);
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kRunning);
  expect_streams_identical(sink->results_, expected);
  const FleetSummary roll = fleet.summary();
  ASSERT_EQ(roll.cells.size(), 1u);
  EXPECT_GE(roll.cells[0].counters.resync_slots, 290u)
      << "the outage must hold the engine in kResync";
  EXPECT_EQ(expected.back().sync_state, SyncState::kResync);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.stalls"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.crashes"), 0u);
}

TEST(Fleet, SlowNeighbourIsNotTornDown) {
  // Cell 1's consumer stalls once for 1.5 s.  Through the closed-loop push
  // it holds cell 1's advance task, and with it the tick that cell 0
  // shares; neither cell is stalled or restarted, and both streams are
  // the synchronous engine's.
  constexpr std::uint64_t kSlots = 600;
  constexpr std::uint32_t kCells = 2;
  FleetConfig config = make_config(kCells);
  config.pool_threads = 2;
  config.seed = 11;
  std::vector<std::vector<SlotResult>> expected;
  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    expected.push_back(reference_stream(config, cell, kSlots));
  }

  MetricsRegistry registry;
  FleetOrchestrator fleet(std::move(config), registry);
  std::vector<std::shared_ptr<RecordingSink>> sinks(kCells);
  fleet.add_sink("record", [&sinks](std::uint32_t cell) {
    sinks.at(cell) = std::make_shared<PausingSink>(
        [cell](const SlotResult& result) {
          return std::chrono::milliseconds(
              cell == 1 && result.slot == 200 ? 1500 : 0);
        });
    return sinks.at(cell);
  });
  fleet.run_until(kSlots);
  fleet.stop();

  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    SCOPED_TRACE(::testing::Message() << "cell " << cell);
    EXPECT_EQ(fleet.cell_restarts(cell), 0u);
    EXPECT_EQ(fleet.cell_state(cell), FleetCellState::kRunning);
    expect_streams_identical(sinks[cell]->results_, expected[cell]);
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.stalls"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 0u);
}

TEST(Fleet, SameSeedReproducesIdenticalTelemetry) {
  constexpr std::uint64_t kSlots = 1000;
  constexpr std::uint32_t kCells = 2;
  // The synchronous engine, fed each cell exactly as the fleet builds it.
  const FleetConfig reference_config = make_config(kCells);
  std::vector<std::vector<SlotResult>> expected;
  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    expected.push_back(reference_stream(reference_config, cell, kSlots));
  }

  std::optional<FleetSummary> first_roll;
  for (const unsigned pool_threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << pool_threads << " pool threads");
    MetricsRegistry registry;
    FleetConfig config = make_config(kCells);
    config.pool_threads = pool_threads;
    // A two-slot queue keeps every pipeline saturated: only a push that
    // waits for room keeps the streams independent of thread timing.
    for (auto& spec : config.cells) {
      spec.queue_depth = 2;
    }
    FleetOrchestrator fleet(std::move(config), registry);
    std::vector<std::shared_ptr<RecordingSink>> sinks(kCells);
    fleet.add_sink("record", [&sinks](std::uint32_t cell) {
      sinks.at(cell) = std::make_shared<RecordingSink>();
      return sinks.at(cell);
    });
    fleet.run_until(kSlots);
    fleet.stop();

    for (std::uint32_t cell = 0; cell < kCells; ++cell) {
      SCOPED_TRACE(::testing::Message() << "cell " << cell);
      ASSERT_EQ(fleet.cell_restarts(cell), 0u);
      expect_streams_identical(sinks[cell]->results_, expected[cell]);
    }

    const FleetSummary roll = fleet.summary();
    if (!first_roll) {
      first_roll = roll;
      continue;
    }
    ASSERT_EQ(roll.cells.size(), first_roll->cells.size());
    for (std::size_t i = 0; i < roll.cells.size(); ++i) {
      const CellSummary& a = first_roll->cells[i];
      const CellSummary& b = roll.cells[i];
      EXPECT_EQ(a.counters.slots, b.counters.slots) << "cell " << i;
      EXPECT_EQ(a.counters.dcis, b.counters.dcis) << "cell " << i;
      EXPECT_DOUBLE_EQ(a.dl_mbps, b.dl_mbps);
      EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
    }
  }
}

TEST(Fleet, AggregateFramesReachAStreamClient) {
  MetricsRegistry registry;
  StreamServerConfig server_config;
  TelemetryStreamServer server(server_config, &registry);

  std::mutex mutex;
  std::vector<FleetSummary> received;
  std::atomic<bool> greeted{false};
  StreamClientConfig client_config;
  client_config.port = server.port();
  client_config.stop_on_end_of_stream = false;
  StreamClientHandlers handlers;
  handlers.on_connected = [&greeted](const HelloInfo&) { greeted = true; };
  handlers.on_fleet = [&mutex, &received](const FleetSummary& summary) {
    std::lock_guard lock(mutex);
    received.push_back(summary);
  };
  TelemetryStreamClient client(client_config, std::move(handlers));
  ASSERT_TRUE(client.wait_connected(5.0));
  // The hello proves the server registered the client, so a broadcast
  // reaches it.
  for (int i = 0; i < 500 && !greeted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(greeted.load());

  FleetOrchestrator fleet(make_config(2), registry);
  fleet.run_until(200);
  server.broadcast_frame(encode_frame(fleet.summary()));
  fleet.stop();

  // The reader thread may still be draining; wait for a frame with data.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  FleetSummary last;
  bool got_data = false;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lock(mutex);
      if (!received.empty() && received.back().slot > 0) {
        last = received.back();
        got_data = true;
      }
    }
    if (got_data) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(got_data) << "no aggregate frame with telemetry arrived";
  ASSERT_EQ(last.cells.size(), 2u);
  EXPECT_GT(last.slot, 0u);
  EXPECT_EQ(last.spare_ranking.size(), 2u);
  for (const CellSummary& cell : last.cells) {
    EXPECT_EQ(cell.state,
              static_cast<std::uint8_t>(FleetCellState::kRunning));
  }
  client.stop();
}

TEST(Fleet, SinkFactoryFeedsAStorePerCellAndSupportsDetach) {
  MetricsRegistry registry;
  HistoryStore store({}, &registry);
  FleetOrchestrator fleet(make_config(2), registry);

  std::atomic<unsigned> factory_calls{0};
  fleet.add_sink("store", [&store, &factory_calls](std::uint32_t cell) {
    factory_calls.fetch_add(1);
    StoreSinkConfig config;
    config.cell_index = cell;
    config.n_prb = srsran_cell().n_prb;
    return std::make_shared<HistoryStoreSink>(store, config);
  });
  EXPECT_EQ(factory_calls.load(), 2u) << "applied to every live cell";

  fleet.run_until(400);
  fleet.stop();

  // Every cell produced rows under its own cell index, so the fleet-wide
  // top-K ranks both.
  QueryRequest request;
  request.kind = QueryKind::kTopK;
  request.cell = kStoreAnyCell;
  request.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
  request.slot_from = 0;
  request.slot_to = 1000;
  request.k = 8;
  const QueryResponse response = run_query(store, request);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.ranking.size(), 2u);
  EXPECT_NE(response.ranking[0].cell, response.ranking[1].cell);
  EXPECT_GT(registry.snapshot().counter_value("store.rows_ingested"), 0u);

  EXPECT_TRUE(fleet.detach_sink("store"));
  EXPECT_FALSE(fleet.detach_sink("store")) << "factory already removed";
}

TEST(Fleet, SinkFactoryIsReappliedAfterRestart) {
  MetricsRegistry registry;
  HistoryStore store({}, &registry);
  FleetConfig config = make_config(1);
  config.cells[0].fault_hook = [](std::uint64_t slot, unsigned incarnation) {
    if (incarnation == 0 && slot == 100) {
      throw std::runtime_error("injected cell crash");
    }
    return FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  std::atomic<unsigned> factory_calls{0};
  fleet.add_sink("store", [&store, &factory_calls](std::uint32_t cell) {
    factory_calls.fetch_add(1);
    StoreSinkConfig sink_config;
    sink_config.cell_index = cell;
    sink_config.n_prb = srsran_cell().n_prb;
    return std::make_shared<HistoryStoreSink>(store, sink_config);
  });
  EXPECT_EQ(factory_calls.load(), 1u);

  fleet.run_until(300);
  fleet.stop();

  EXPECT_EQ(fleet.cell_restarts(0), 1u);
  EXPECT_EQ(factory_calls.load(), 2u)
      << "a restarted cell must get a fresh sink from the same factory";
  // History spans both incarnations: rows exist before and after the
  // crash slot.
  const StoreSeries* series = store.find_series(
      SeriesKey{0, kStoreCellRnti, StoreMetric::kCellDcis});
  ASSERT_NE(series, nullptr);
  std::vector<StoreRow> rows;
  series->read_range(0, 1u << 20, rows);
  ASSERT_FALSE(rows.empty());
  EXPECT_LT(rows.front().slot, 100u);
  EXPECT_GT(rows.back().slot, 100u);
}

}  // namespace
}  // namespace nrs
