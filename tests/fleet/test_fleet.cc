// Fleet orchestration tests: concurrent supervised cells, crash/stall
// restart with backoff, permanent failure after the restart budget,
// deterministic seeding, and the aggregate kFleet frame on the wire.
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
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

TEST(Fleet, ConcurrentCellsProduceTelemetryAndRollups) {
  MetricsRegistry registry;
  FleetOrchestrator fleet(make_config(3), registry);
  ASSERT_EQ(fleet.n_cells(), 3u);

  fleet.run_until(500);
  fleet.stop();

  const FleetRollup roll = fleet.rollup();
  ASSERT_EQ(roll.cells.size(), 3u);
  ASSERT_EQ(roll.spare_ranking.size(), 3u);
  EXPECT_EQ(roll.restarts_total, 0u);
  EXPECT_GT(roll.dcis_total, 0u);
  EXPECT_GT(roll.dl_mbps_total, 0.0);
  EXPECT_GE(roll.retx_rate, 0.0);
  EXPECT_LE(roll.retx_rate, 1.0);
  EXPECT_GE(roll.slot, 500u);

  std::vector<bool> ranked(3, false);
  for (const std::uint32_t idx : roll.spare_ranking) {
    ASSERT_LT(idx, 3u);
    EXPECT_FALSE(ranked[idx]) << "cell " << idx << " ranked twice";
    ranked[idx] = true;
  }

  for (const CellRollup& cell : roll.cells) {
    EXPECT_EQ(fleet.cell_state(cell.cell_index), FleetCellState::kRunning);
    EXPECT_GE(cell.slots, 500u) << cell.name;
    EXPECT_GT(cell.dcis, 0u) << cell.name;
    EXPECT_GT(cell.dl_mbps, 0.0) << cell.name;
    EXPECT_GE(cell.utilization, 0.0);
    EXPECT_LE(cell.utilization, 1.0);
    EXPECT_GT(cell.active_ues, 0u) << cell.name;
  }

  // Per-UE totals are keyed by (cell, RNTI) and every cell contributed.
  const auto ues = fleet.aggregator().ue_totals();
  std::vector<std::uint64_t> cell_dl_bits(3, 0);
  for (const auto& [key, totals] : ues) {
    ASSERT_LT(key.cell_index, 3u);
    EXPECT_NE(key.rnti, kInvalidRnti);
    cell_dl_bits[key.cell_index] += totals.dl_bits;
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_GT(cell_dl_bits[i], 0u) << "cell " << i;
  }

  // The namespaced per-cell metrics mirror the rollup.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.cell0.slots"), roll.cells[0].slots);
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
  config.backoff_initial_s = 0.002;
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

TEST(Fleet, StalledCellIsDetectedAndRestarted) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  config.stall_timeout_s = 0.05;
  config.backoff_initial_s = 0.002;
  // Incarnation 0 runs with a dark radio: the gNB transmits but nothing
  // reaches the sniffer, so the heartbeat never advances.
  config.cells[0].fault_hook = [](std::uint64_t, unsigned incarnation) {
    return incarnation == 0 ? FaultAction::kMute : FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(300);
  fleet.stop();

  EXPECT_GE(fleet.cell_restarts(0), 1u);
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kRunning);
  EXPECT_GE(fleet.cell_slots(0), 300u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter_value("fleet.stalls"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.crashes"), 0u);
}

TEST(Fleet, CellExceedingRestartBudgetIsMarkedFailed) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  config.max_restarts = 2;
  config.backoff_initial_s = 0.001;
  config.backoff_max_s = 0.004;
  config.cells[0].fault_hook = [](std::uint64_t slot, unsigned) {
    if (slot == 10) {
      throw std::runtime_error("crashes every incarnation");
    }
    return FaultAction::kNone;
  };
  FleetOrchestrator fleet(std::move(config), registry);

  // Terminates because the only cell eventually fails permanently.
  fleet.run_until(500);
  fleet.stop();

  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kFailed);
  EXPECT_EQ(fleet.cell_restarts(0), 3u);  // initial + 2 budgeted retries
  EXPECT_LT(fleet.cell_slots(0), 500u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.crashes"), 3u);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 3u);
}

TEST(Fleet, SyncLossHealsInPlaceWithoutRestart) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  // A deep IQ outage long enough to trip the sync monitor (several SSB
  // periods) but bounded, so the engine can re-find the same cell in
  // place.  The default resync_deadline_s is far beyond the outage.
  config.cells[0].faults.events.push_back(
      {FaultKind::kOutage, 500, 160, 35.0});
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(1200);
  fleet.stop();

  // The supervisor never tore the cell down: sync loss healed through the
  // engine's kResync path, not the restart machinery.
  EXPECT_EQ(fleet.cell_restarts(0), 0u);
  EXPECT_EQ(fleet.resync_escalations(), 0u);
  EXPECT_EQ(fleet.cell_state(0), FleetCellState::kRunning);
  EXPECT_GE(fleet.cell_slots(0), 1200u);

  const FleetRollup roll = fleet.rollup();
  ASSERT_EQ(roll.cells.size(), 1u);
  EXPECT_GT(roll.cells[0].resync_slots, 0u) << "the outage must trip sync";
  EXPECT_EQ(roll.cells[0].restarts, 0u);
  EXPECT_GT(roll.cells[0].dcis, 0u) << "telemetry resumed after recovery";
  EXPECT_GT(roll.cells[0].active_ues, 0u) << "tracked UEs survived in place";

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fleet.resync_escalations"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.cell.restarts"), 0u);
  EXPECT_EQ(snap.counter_value("fleet.cell0.resync_slots"),
            roll.cells[0].resync_slots);
}

TEST(Fleet, ResyncPastDeadlineEscalatesToTeardown) {
  MetricsRegistry registry;
  FleetConfig config = make_config(1);
  // An effectively endless outage: the engine enters kResync and can
  // never re-find the cell, so the only way out is the supervisor's
  // escalation.  A tiny deadline makes it fire on the next tick; the
  // restarted incarnation replays the schedule and re-syncs cleanly
  // until its own outage at slot 500.
  config.resync_deadline_s = 0.01;
  config.backoff_initial_s = 0.002;
  config.cells[0].faults.events.push_back(
      {FaultKind::kOutage, 500, 1000000, 40.0});
  FleetOrchestrator fleet(std::move(config), registry);

  fleet.run_until(1200);
  fleet.stop();

  EXPECT_GE(fleet.resync_escalations(), 1u);
  EXPECT_GE(fleet.cell_restarts(0), 1u);
  EXPECT_NE(fleet.cell_state(0), FleetCellState::kFailed);
  EXPECT_GE(fleet.cell_slots(0), 1200u) << "restarts kept the cell feeding";

  const FleetRollup roll = fleet.rollup();
  ASSERT_EQ(roll.cells.size(), 1u);
  EXPECT_GT(roll.cells[0].dcis, 0u) << "each incarnation tracks until 500";
  EXPECT_GT(roll.cells[0].resync_slots, 0u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter_value("fleet.resync_escalations"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.resync_escalations"),
            fleet.resync_escalations());
  EXPECT_GE(snap.counter_value("fleet.cell.restarts"), 1u);
  EXPECT_EQ(snap.counter_value("fleet.crashes"), 0u);
}

TEST(Fleet, SameSeedReproducesIdenticalTelemetry) {
  constexpr std::uint64_t kSlots = 1000;
  constexpr std::uint32_t kCells = 2;
  // The synchronous engine, fed each cell exactly as the fleet builds it.
  const FleetConfig reference_config = make_config(kCells);
  std::vector<std::vector<SlotResult>> expected(kCells);
  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    FleetCellSim sim = build_fleet_cell(reference_config.cells[cell],
                                        reference_config.seed, cell);
    NrScope engine(sim.scope);
    IqBuffer samples;
    expected[cell].resize(kSlots);
    for (SlotResult& result : expected[cell]) {
      sim.radio->capture_into(sim.gnb->step(), samples);
      engine.process_slot(samples, result);
    }
  }

  std::optional<FleetRollup> first_roll;
  std::map<FleetUeKey, FleetUeTotals> first_ues;
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
    // A restart would start a new seeded incarnation; slow sanitizer
    // builds must not be mistaken for stalls.
    config.stall_timeout_s = 60.0;
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

    const FleetRollup roll = fleet.rollup();
    const auto ues = fleet.aggregator().ue_totals();
    if (!first_roll) {
      first_roll = roll;
      first_ues = ues;
      continue;
    }
    ASSERT_EQ(roll.cells.size(), first_roll->cells.size());
    for (std::size_t i = 0; i < roll.cells.size(); ++i) {
      const CellRollup& a = first_roll->cells[i];
      const CellRollup& b = roll.cells[i];
      EXPECT_EQ(a.slots, b.slots) << "cell " << i;
      EXPECT_EQ(a.dcis, b.dcis) << "cell " << i;
      EXPECT_DOUBLE_EQ(a.dl_mbps, b.dl_mbps);
      EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
    }
    ASSERT_EQ(ues.size(), first_ues.size());
    for (auto it_a = first_ues.cbegin(), it_b = ues.cbegin();
         it_a != first_ues.cend(); ++it_a, ++it_b) {
      EXPECT_EQ(it_a->first, it_b->first);
      EXPECT_EQ(it_a->second.dl_bits, it_b->second.dl_bits);
      EXPECT_EQ(it_a->second.ul_bits, it_b->second.ul_bits);
      EXPECT_EQ(it_a->second.dcis, it_b->second.dcis);
      EXPECT_EQ(it_a->second.retx_dcis, it_b->second.retx_dcis);
    }
  }
}

TEST(Fleet, AggregateFramesReachAStreamClient) {
  MetricsRegistry registry;
  StreamServerConfig server_config;
  TelemetryStreamServer server(server_config, &registry);

  std::mutex mutex;
  std::vector<FleetSummary> received;
  StreamClientConfig client_config;
  client_config.port = server.port();
  client_config.stop_on_end_of_stream = false;
  StreamClientHandlers handlers;
  handlers.on_fleet = [&mutex, &received](const FleetSummary& summary) {
    std::lock_guard lock(mutex);
    received.push_back(summary);
  };
  TelemetryStreamClient client(client_config, std::move(handlers));
  ASSERT_TRUE(client.wait_connected(5.0));

  FleetConfig config = make_config(2);
  config.stream = &server;
  config.aggregate_period_ticks = 1;
  FleetOrchestrator fleet(std::move(config), registry);
  fleet.run_until(200);
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
  config.backoff_initial_s = 0.002;
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
