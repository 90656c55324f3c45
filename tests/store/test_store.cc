// History store tests: segment-ring retention, seqlock reader safety
// under concurrent recycling, query execution (range / aggregate / top-K),
// and the acceptance bar of the ingest path — every row a range scan
// returns agrees exactly with the TelemetryLogWriter CSV ground truth
// written by the same pipeline run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nr/rach.h"
#include "nrscope/log_writer.h"
#include "nrscope/pipeline.h"
#include "radio/virtual_radio.h"
#include "store/history_store.h"
#include "store/query.h"
#include "store/store_sink.h"
#include "ue/traffic.h"

namespace nrs {
namespace {

SeriesKey make_key(std::uint32_t cell, Rnti rnti, StoreMetric metric) {
  SeriesKey key;
  key.cell = cell;
  key.rnti = rnti;
  key.metric = metric;
  return key;
}

TEST(Store, ConfigValidationRejectsUnusableRings) {
  HistoryStoreConfig config;
  EXPECT_FALSE(config.validate().has_value());
  config.rows_per_segment = 0;
  EXPECT_TRUE(config.validate().has_value());
  EXPECT_THROW(HistoryStore{config}, std::invalid_argument);
  config = {};
  config.segments_per_series = 1;  // writer + at least one stable segment
  EXPECT_TRUE(config.validate().has_value());
  config = {};
  config.max_series = 0;
  EXPECT_TRUE(config.validate().has_value());
}

TEST(Store, MetricNamesRoundTrip) {
  for (std::uint8_t raw = 0; raw < kStoreMetricCount; ++raw) {
    const auto metric = static_cast<StoreMetric>(raw);
    const auto parsed = store_metric_from_string(to_string(metric));
    ASSERT_TRUE(parsed.has_value()) << to_string(metric);
    EXPECT_EQ(*parsed, metric);
  }
  EXPECT_FALSE(store_metric_from_string("nope").has_value());
  EXPECT_TRUE(store_metric_valid(kStoreMetricCount - 1));
  EXPECT_FALSE(store_metric_valid(kStoreMetricCount));
}

TEST(Store, AppendThenRangeScanReturnsExactWindow) {
  HistoryStore store;
  StoreSeries* series =
      store.series(make_key(0, 0x4601, StoreMetric::kDlBits));
  ASSERT_NE(series, nullptr);
  for (std::uint64_t slot = 0; slot < 100; ++slot) {
    series->append(slot, static_cast<double>(slot) * 3.0);
  }
  std::vector<StoreRow> rows;
  EXPECT_EQ(series->read_range(10, 20, rows), 10u);
  ASSERT_EQ(rows.size(), 10u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].slot, 10 + i);
    EXPECT_DOUBLE_EQ(rows[i].value, static_cast<double>(10 + i) * 3.0);
  }
  rows.clear();
  EXPECT_EQ(series->read_range(0, 10000, rows), 100u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                             [](const StoreRow& a, const StoreRow& b) {
                               return a.slot < b.slot;
                             }));
  rows.clear();
  EXPECT_EQ(series->read_range(200, 300, rows), 0u);
  // Re-resolving the same key returns the same series.
  EXPECT_EQ(store.series(make_key(0, 0x4601, StoreMetric::kDlBits)),
            series);
  EXPECT_EQ(store.series_count(), 1u);
}

TEST(Store, RingEvictsOldestSegmentAndNeverGrows) {
  HistoryStoreConfig config;
  config.rows_per_segment = 16;
  config.segments_per_series = 4;
  MetricsRegistry registry;
  HistoryStore store(config, &registry);
  StoreSeries* series =
      store.series(make_key(1, kStoreCellRnti, StoreMetric::kCellDcis));
  ASSERT_NE(series, nullptr);
  const std::size_t capacity = 16 * 4;
  for (std::uint64_t slot = 0; slot < 1000; ++slot) {
    series->append(slot, static_cast<double>(slot));
    EXPECT_LE(series->row_count(), capacity) << "slot " << slot;
  }
  std::vector<StoreRow> rows;
  series->read_range(0, 2000, rows);
  ASSERT_FALSE(rows.empty());
  // The newest row always survives; retention keeps at least the ring
  // minus the segment being filled.
  EXPECT_EQ(rows.back().slot, 999u);
  EXPECT_GE(rows.size(), capacity - 16);
  EXPECT_LE(rows.size(), capacity);
  // Oldest retained row is within one recycled segment of the tail.
  EXPECT_GE(rows.front().slot, 1000 - capacity);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.counter_value("store.rows_evicted"), 0u);
  EXPECT_GT(snap.counter_value("store.segment_evictions"), 0u);
  EXPECT_EQ(snap.counter_value("store.rows_evicted"),
            1000 - rows.size());
}

TEST(Store, FoldRangeAgreesWithRangeScan) {
  HistoryStore store;
  StoreSeries* series =
      store.series(make_key(0, 0x17, StoreMetric::kMcs));
  ASSERT_NE(series, nullptr);
  for (std::uint64_t slot = 0; slot < 500; ++slot) {
    series->append(slot, static_cast<double>((slot * 7) % 29));
  }
  std::vector<StoreRow> rows;
  series->read_range(100, 400, rows);
  const StoreSeries::Fold fold = series->fold_range(100, 400);
  EXPECT_EQ(fold.count, rows.size());
  double sum = 0.0;
  double max = 0.0;
  for (const StoreRow& row : rows) {
    sum += row.value;
    max = std::max(max, row.value);
  }
  EXPECT_DOUBLE_EQ(fold.sum, sum);
  EXPECT_DOUBLE_EQ(fold.max, max);
  EXPECT_EQ(fold.first_slot, rows.front().slot);
  EXPECT_EQ(fold.last_slot, rows.back().slot);
}

TEST(Store, SeriesCapShedsNewSeriesAndCounts) {
  HistoryStoreConfig config;
  config.max_series = 3;
  MetricsRegistry registry;
  HistoryStore store(config, &registry);
  for (Rnti rnti = 1; rnti <= 3; ++rnti) {
    EXPECT_NE(store.series(make_key(0, rnti, StoreMetric::kDlBits)),
              nullptr);
  }
  EXPECT_EQ(store.series(make_key(0, 4, StoreMetric::kDlBits)), nullptr);
  EXPECT_EQ(store.series_count(), 3u);
  EXPECT_EQ(registry.snapshot().counter_value("store.series_rejected"), 1u);
  // Existing series still resolve after the cap is hit.
  EXPECT_NE(store.series(make_key(0, 2, StoreMetric::kDlBits)), nullptr);
  EXPECT_EQ(store.find_series(make_key(0, 4, StoreMetric::kDlBits)),
            nullptr);
}

TEST(StoreQuery, RangeAggregateAndTopK) {
  HistoryStore store;
  // Three cells' spare-capacity series with distinct means: 10, 20, 30.
  for (std::uint32_t cell = 0; cell < 3; ++cell) {
    StoreSeries* series = store.series(
        make_key(cell, kStoreCellRnti, StoreMetric::kCellSparePrbs));
    ASSERT_NE(series, nullptr);
    for (std::uint64_t slot = 0; slot < 100; ++slot) {
      series->append(slot, 10.0 * (cell + 1));
    }
  }

  QueryRequest request;
  request.kind = QueryKind::kRange;
  request.cell = 1;
  request.rnti = kStoreCellRnti;
  request.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
  request.slot_from = 40;
  request.slot_to = 50;
  QueryResponse response = run_query(store, request);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.rows.size(), 10u);
  EXPECT_EQ(response.rows.front().slot, 40u);
  EXPECT_DOUBLE_EQ(response.rows.front().value, 20.0);

  request.kind = QueryKind::kAggregate;
  request.slot_from = 0;
  request.slot_to = 100;
  request.bucket_slots = 30;
  response = run_query(store, request);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.buckets.size(), 4u);  // 30+30+30+10 slots
  EXPECT_EQ(response.buckets[0].slot_start, 0u);
  EXPECT_EQ(response.buckets[3].slot_start, 90u);
  EXPECT_EQ(response.buckets[0].count, 30u);
  EXPECT_EQ(response.buckets[3].count, 10u);
  EXPECT_DOUBLE_EQ(response.buckets[0].avg, 20.0);
  EXPECT_DOUBLE_EQ(response.buckets[0].sum, 600.0);
  EXPECT_DOUBLE_EQ(response.buckets[0].max, 20.0);

  QueryRequest top;
  top.kind = QueryKind::kTopK;
  top.cell = kStoreAnyCell;
  top.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
  top.slot_from = 0;
  top.slot_to = 100;
  top.k = 2;
  response = run_query(store, top);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.ranking.size(), 2u);
  EXPECT_EQ(response.ranking[0].cell, 2u);  // mean 30 ranks first
  EXPECT_DOUBLE_EQ(response.ranking[0].score, 30.0);
  EXPECT_EQ(response.ranking[1].cell, 1u);
  EXPECT_EQ(response.ranking[0].rows, 100u);
}

TEST(StoreQuery, ErrorsComeBackAsStatusesNotThrows) {
  HistoryStore store;
  QueryRequest request;
  request.kind = QueryKind::kRange;
  request.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
  request.slot_from = 10;
  request.slot_to = 10;  // empty window
  EXPECT_EQ(run_query(store, request).status, QueryStatus::kBadRequest);

  request.slot_to = 20;
  request.metric = 99;  // unknown metric
  EXPECT_EQ(run_query(store, request).status, QueryStatus::kBadRequest);

  request.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
  request.rnti = 0x4601;
  EXPECT_EQ(run_query(store, request).status, QueryStatus::kNotFound);

  request.kind = QueryKind::kAggregate;
  request.bucket_slots = 0;
  EXPECT_EQ(run_query(store, request).status, QueryStatus::kBadRequest);

  request.kind = QueryKind::kTopK;
  request.k = 0;
  EXPECT_EQ(run_query(store, request).status, QueryStatus::kBadRequest);
}

// The seqlock acceptance test: one writer recycling segments at full
// speed, eight readers scanning / folding / ranking concurrently.  Every
// row a reader ever sees must satisfy value == f(slot) — a torn or stale
// read would break the invariant — and retention must stay bounded.
TEST(Store, ConcurrentIngestWhileQueryingSeesNoTornRows) {
  HistoryStoreConfig config;
  config.rows_per_segment = 64;   // small segments -> constant recycling
  config.segments_per_series = 4;
  HistoryStore store(config);
  constexpr std::uint32_t kCells = 4;
  constexpr std::uint64_t kRowsPerCell = 150000;
  const auto value_of = [](std::uint32_t cell, std::uint64_t slot) {
    return static_cast<double>(slot) * 0.5 + static_cast<double>(cell);
  };

  std::vector<StoreSeries*> series;
  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    series.push_back(store.series(
        make_key(cell, kStoreCellRnti, StoreMetric::kCellSparePrbs)));
    ASSERT_NE(series.back(), nullptr);
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> rows_read{0};
  std::thread writer([&] {
    for (std::uint64_t slot = 0; slot < kRowsPerCell; ++slot) {
      for (std::uint32_t cell = 0; cell < kCells; ++cell) {
        series[cell]->append(slot, value_of(cell, slot));
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      std::vector<StoreRow> rows;
      std::uint64_t from = 17 * (r + 1);
      while (!done.load()) {
        const std::uint32_t cell = r % kCells;
        rows.clear();
        series[cell]->read_range(from, from + 512, rows);
        std::uint64_t prev_slot = 0;
        bool first = true;
        for (const StoreRow& row : rows) {
          if (row.value != value_of(cell, row.slot) ||
              (!first && row.slot < prev_slot)) {
            torn.fetch_add(1);
          }
          prev_slot = row.slot;
          first = false;
        }
        rows_read.fetch_add(rows.size());
        if (series[cell]->row_count() > 64u * 4u) {
          torn.fetch_add(1);  // retention bound violated
        }
        QueryRequest top;
        top.kind = QueryKind::kTopK;
        top.cell = kStoreAnyCell;
        top.metric =
            static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
        top.slot_from = from;
        top.slot_to = from + 512;
        top.k = kCells;
        const QueryResponse response = run_query(store, top);
        if (response.status != QueryStatus::kOk &&
            response.status != QueryStatus::kNotFound) {
          torn.fetch_add(1);
        }
        from += 101;
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(rows_read.load(), 0u) << "readers never overlapped the ring";
  EXPECT_EQ(series[0]->rows_appended(), kRowsPerCell);
}

// ---- Pipeline ingest vs CSV ground truth -----------------------------

TEST(StoreSink, RangeScanAgreesRowExactlyWithCsv) {
  const std::string csv_path = "/tmp/nrs_test_store_ground_truth.csv";
  GnbConfig gnb_config;
  gnb_config.cell = srsran_cell();
  gnb_config.seed = 9;
  GnbSim gnb(std::move(gnb_config));
  for (unsigned u = 0; u < 2; ++u) {
    UeConfig ue;
    ue.channel.snr_db = 24.0;
    ue.dl_traffic = std::make_unique<CbrSource>(2e6);
    ue.seed = u + 1;
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb.cell().n_prb;
  radio_config.channel.snr_db = 28.0;
  VirtualRadio radio(radio_config);

  NrScopeConfig scope_config;
  scope_config.n_prb = gnb.cell().n_prb;
  scope_config.scs = gnb.cell().scs;

  HistoryStoreConfig store_config;
  store_config.rows_per_segment = 4096;  // retain the whole run
  store_config.segments_per_series = 4;
  HistoryStore store(store_config);
  StoreSinkConfig sink_config;
  sink_config.n_prb = gnb.cell().n_prb;

  constexpr std::uint64_t kSlots = 1500;
  {
    NrScopePipeline pipeline(scope_config);
    pipeline.add_sink("csv",
                      std::make_shared<TelemetryLogWriter>(csv_path));
    pipeline.add_sink(
        "store", std::make_shared<HistoryStoreSink>(store, sink_config));
    for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
      auto samples = pipeline.acquire_samples();
      radio.capture_into(gnb.step(), *samples);
      pipeline.push_slot_wait(std::move(samples));
    }
    pipeline.stop();  // all slots delivered to both sinks
  }

  // CSV ground truth: per C-RNTI, the (slot, mcs) and (slot, prb_len)
  // rows.  The CSV also lists the SI/RA broadcasts, which get no per-UE
  // series but count in the cell rows.
  std::map<Rnti, std::vector<StoreRow>> csv_mcs;
  std::map<Rnti, std::vector<StoreRow>> csv_prbs;
  std::set<Rnti> csv_broadcasts;
  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);  // header
  std::size_t csv_rows = 0;
  std::size_t csv_ue_rows = 0;
  while (std::getline(in, line)) {
    std::stringstream row(line);
    std::vector<std::string> cols;
    std::string col;
    while (std::getline(row, col, ',')) {
      cols.push_back(col);
    }
    ASSERT_GE(cols.size(), 16u) << line;
    const auto slot = static_cast<std::uint64_t>(std::stoull(cols[0]));
    const auto rnti = static_cast<Rnti>(std::stoul(cols[1]));
    ++csv_rows;
    if (!is_plausible_crnti(rnti)) {
      csv_broadcasts.insert(rnti);
      continue;
    }
    csv_mcs[rnti].push_back({slot, std::stod(cols[7])});
    csv_prbs[rnti].push_back({slot, std::stod(cols[4])});
    ++csv_ue_rows;
  }
  ASSERT_GT(csv_rows, 100u) << "run produced too little telemetry";

  const auto sort_rows = [](std::vector<StoreRow>& rows) {
    std::sort(rows.begin(), rows.end(),
              [](const StoreRow& a, const StoreRow& b) {
                return a.slot != b.slot ? a.slot < b.slot
                                        : a.value < b.value;
              });
  };
  std::size_t store_rows = 0;
  for (auto& [rnti, expected] : csv_mcs) {
    const StoreSeries* series =
        store.find_series(make_key(0, rnti, StoreMetric::kMcs));
    ASSERT_NE(series, nullptr) << "rnti 0x" << std::hex << rnti;
    std::vector<StoreRow> got;
    series->read_range(0, kSlots, got);
    sort_rows(got);
    sort_rows(expected);
    EXPECT_EQ(got, expected) << "mcs rows diverge for rnti " << rnti;
    store_rows += got.size();
  }
  for (auto& [rnti, expected] : csv_prbs) {
    const StoreSeries* series =
        store.find_series(make_key(0, rnti, StoreMetric::kPrbs));
    ASSERT_NE(series, nullptr);
    std::vector<StoreRow> got;
    series->read_range(0, kSlots, got);
    sort_rows(got);
    sort_rows(expected);
    EXPECT_EQ(got, expected) << "prb rows diverge for rnti " << rnti;
  }
  EXPECT_EQ(store_rows, csv_ue_rows);
  for (const Rnti rnti : csv_broadcasts) {
    EXPECT_EQ(store.find_series(make_key(0, rnti, StoreMetric::kMcs)),
              nullptr)
        << "rnti 0x" << std::hex << rnti;
  }

  // Cell-level accounting: one kCellDcis row per tracking slot, whose
  // values sum to exactly the number of CSV rows.
  const StoreSeries* cell_dcis =
      store.find_series(make_key(0, kStoreCellRnti, StoreMetric::kCellDcis));
  ASSERT_NE(cell_dcis, nullptr);
  const StoreSeries::Fold fold = cell_dcis->fold_range(0, kSlots);
  EXPECT_EQ(static_cast<std::size_t>(fold.sum), csv_rows);
  std::remove(csv_path.c_str());
}

TEST(StoreSink, BroadcastRntisGetNoUeSeries) {
  // The SIB1 DCI (SI-RNTI) and a RAR DCI (RA-RNTI) are cell traffic, not a
  // UE: they count in the cell rows but file no per-UE series.
  HistoryStore store;
  StoreSinkConfig config;
  config.n_prb = 51;
  HistoryStoreSink sink(store, config);
  SlotResult result;
  result.slot = 7;
  result.sync_state = SyncState::kTracking;
  for (const Rnti rnti : {Rnti{0xFFFF}, Rnti{0x0001}, Rnti{0x4601}}) {
    DecodedDci dci;
    dci.slot = result.slot;
    dci.rnti = rnti;
    dci.grant.rnti = rnti;
    dci.grant.prb_len = 4;
    dci.grant.tbs = 1024;
    result.dcis.push_back(dci);
  }
  sink.on_slot(result);

  for (const Rnti rnti : {Rnti{0xFFFF}, Rnti{0x0001}}) {
    EXPECT_EQ(store.find_series(make_key(0, rnti, StoreMetric::kDlBits)),
              nullptr)
        << "rnti 0x" << std::hex << rnti;
  }
  EXPECT_NE(store.find_series(make_key(0, 0x4601, StoreMetric::kDlBits)),
            nullptr);
  EXPECT_EQ(store.series_count(), 3u + 5u) << "three cell series, one UE";
  const StoreSeries* cell_dcis =
      store.find_series(make_key(0, kStoreCellRnti, StoreMetric::kCellDcis));
  ASSERT_NE(cell_dcis, nullptr);
  EXPECT_EQ(cell_dcis->fold_range(0, 8).sum, 3.0);
}

}  // namespace
}  // namespace nrs
