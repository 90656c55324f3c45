// History-store benchmark: what does attaching the HistoryStoreSink cost
// the ingest path, and how fast do queries answer while ingest runs?
//
// Three numbers, three acceptance bars (ISSUE "telemetry history store"):
//   1. pipeline slots/s with the store sink DETACHED (baseline).
//   2. pipeline slots/s with the store sink ATTACHED — must stay within
//      5% of the baseline, with 0 allocs/slot (counted by the operator
//      new/delete shim this binary includes).
//   3. query latency p50/p99 with 8 concurrent query threads (range,
//      downsampled aggregate, fleet-style top-K) racing a full-rate
//      writer — queries read seqlock segments, so the writer never waits.
//
// Flags:
//   --quick   a few hundred slots instead of a few thousand (CI smoke run)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/alloc_shim.h"
#include "nrscope/pipeline.h"
#include "store/history_store.h"
#include "store/query.h"
#include "store/store_sink.h"

namespace nrs::bench {
namespace {

constexpr unsigned kUes = 4;
constexpr unsigned kQueryThreads = 8;

struct Feed {
  GnbConfig gnb_cfg;
  std::vector<IqBuffer> history;
  std::size_t replay_start = 0;
  std::size_t replay_len = 0;
  NrScopeConfig scope_cfg;
};

NrScopeConfig make_scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  return cfg;
}

/// Recorded feed: power-on history until tracking, then one
/// frame-aligned cyclic replay window.
Feed build_feed() {
  Feed feed;
  feed.gnb_cfg.cell = amarisoft_cell();
  feed.gnb_cfg.seed = 5;
  GnbSim gnb(feed.gnb_cfg);
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.snr_db = 28.0;
  VirtualRadio radio(radio_cfg);
  feed.scope_cfg = make_scope_config(gnb.cell());
  NrScope probe(feed.scope_cfg);

  for (unsigned i = 0; i < kUes; ++i) {
    gnb.add_ue(make_ue(i + 1, 24.0, TrafficKind::kCbr, 2e6));
  }
  const unsigned spf = slots_per_frame(gnb.cell().scs);
  SlotResult result;
  for (unsigned i = 0; i < 4000; ++i) {
    feed.history.push_back(radio.capture(gnb.step()));
    probe.process_slot(feed.history.back(), result);
    if (probe.state() == NrScope::State::kTracking &&
        probe.known_ues().size() >= kUes &&
        feed.history.size() % spf == 0) {
      break;
    }
  }
  if (probe.state() != NrScope::State::kTracking) {
    std::fprintf(stderr, "bench_store: probe never reached tracking\n");
    std::exit(1);
  }
  feed.replay_start = feed.history.size();
  feed.replay_len = spf;
  for (unsigned i = 0; i < spf; ++i) {
    feed.history.push_back(radio.capture(gnb.step()));
  }
  return feed;
}

const IqBuffer& replay_slot(const Feed& feed, std::size_t i) {
  return feed.history[feed.replay_start + i % feed.replay_len];
}

class CountingSink : public SlotSink {
 public:
  void on_slot(const SlotResult&) override {
    delivered_.fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> delivered_{0};
};

struct IngestStats {
  double slots_per_sec = 0.0;
  double allocs_per_slot = 0.0;
};

/// One measured pipeline run; `store` == nullptr is the detached baseline.
IngestStats run_ingest(const Feed& feed, unsigned n_slots,
                       HistoryStore* store) {
  NrScopePipeline pipeline(feed.scope_cfg);
  auto sink = std::make_shared<CountingSink>();
  if (store != nullptr) {
    StoreSinkConfig sink_cfg;
    sink_cfg.n_prb = feed.scope_cfg.n_prb;
    pipeline.add_sink("store",
                      std::make_shared<HistoryStoreSink>(*store, sink_cfg));
  }
  pipeline.add_sink("counter", sink);

  auto push = [&](const IqBuffer& samples) {
    auto handle = pipeline.acquire_samples();
    handle->assign(samples.begin(), samples.end());
    pipeline.push_slot_wait(std::move(handle));
  };
  for (const auto& samples : feed.history) {
    push(samples);
  }
  const std::uint64_t warm_extra =
      feed.scope_cfg.rate_window_slots + 3 * feed.replay_len;
  for (unsigned i = 0; i < warm_extra; ++i) {
    push(replay_slot(feed, i));
  }
  const std::uint64_t warm_total = feed.history.size() + warm_extra;
  while (sink->delivered() < warm_total) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  nrs::alloc::reset();
  const auto bench_start = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < n_slots; ++i) {
    push(replay_slot(feed, i));
  }
  while (sink->delivered() < warm_total + n_slots) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto bench_end = std::chrono::steady_clock::now();
  const auto totals = nrs::alloc::totals();

  IngestStats stats;
  const double elapsed_s =
      std::chrono::duration<double>(bench_end - bench_start).count();
  stats.slots_per_sec = n_slots / std::max(elapsed_s, 1e-9);
  stats.allocs_per_slot = static_cast<double>(totals.allocs) / n_slots;
  return stats;
}

struct QueryStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double queries_per_sec = 0.0;
  std::uint64_t answered = 0;
};

/// 8 threads hammer run_query() (the same execution path the wire's query
/// pool calls) while one writer appends at memory speed into recycling
/// segment rings.
QueryStats run_queries(HistoryStore& store, unsigned queries_per_thread) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    StoreSeries* series = store.series(
        SeriesKey{7, kStoreCellRnti, StoreMetric::kCellSparePrbs});
    std::uint64_t slot = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      series->append(slot, static_cast<double>(slot % 97));
      ++slot;
    }
  });

  std::vector<std::vector<double>> latencies(kQueryThreads);
  std::vector<std::thread> workers;
  const auto bench_start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      latencies[t].reserve(queries_per_thread);
      std::uint64_t from = 29 * (t + 1);
      for (unsigned q = 0; q < queries_per_thread; ++q) {
        QueryRequest request;
        switch (q % 3) {
          case 0:
            request.kind = QueryKind::kRange;
            request.rnti = kStoreCellRnti;
            request.metric =
                static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
            break;
          case 1:
            request.kind = QueryKind::kAggregate;
            request.rnti = kStoreCellRnti;
            request.metric =
                static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
            request.bucket_slots = 64;
            break;
          default:
            request.kind = QueryKind::kTopK;
            request.cell = kStoreAnyCell;
            request.metric =
                static_cast<std::uint8_t>(StoreMetric::kDlBits);
            request.k = 8;
            break;
        }
        request.slot_from = from;
        request.slot_to = from + 512;
        const auto t0 = std::chrono::steady_clock::now();
        const QueryResponse response = run_query(store, request);
        const auto t1 = std::chrono::steady_clock::now();
        if (response.status == QueryStatus::kOk ||
            response.status == QueryStatus::kNotFound) {
          latencies[t].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
        from += 101;
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const auto bench_end = std::chrono::steady_clock::now();
  stop.store(true);
  writer.join();

  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  QueryStats stats;
  stats.answered = all.size();
  if (all.empty()) {
    return stats;
  }
  std::sort(all.begin(), all.end());
  stats.p50_us = all[all.size() / 2];
  stats.p99_us = all[all.size() * 99 / 100];
  const double elapsed_s =
      std::chrono::duration<double>(bench_end - bench_start).count();
  stats.queries_per_sec =
      static_cast<double>(all.size()) / std::max(elapsed_s, 1e-9);
  return stats;
}

int run(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_store [--quick]\n");
      return 2;
    }
  }
  const unsigned n_slots = quick ? 400 : 4000;
  const unsigned queries_per_thread = quick ? 250 : 2500;

  print_header("Store", "History-store ingest overhead and query latency");
  std::printf("(4 UEs, %u measured slots, %u query threads x %u queries)\n\n",
              n_slots, kQueryThreads, queries_per_thread);
  const Feed feed = build_feed();

  const IngestStats baseline = run_ingest(feed, n_slots, nullptr);
  std::printf("%-20s %12.0f slots/s   %8.2f allocs/slot\n",
              "ingest (detached)", baseline.slots_per_sec,
              baseline.allocs_per_slot);
  HistoryStore store;
  const IngestStats attached = run_ingest(feed, n_slots, &store);
  const double overhead_pct =
      100.0 * (1.0 - attached.slots_per_sec /
                         std::max(baseline.slots_per_sec, 1e-9));
  std::printf("%-20s %12.0f slots/s   %8.2f allocs/slot   "
              "(overhead %+.1f%%)\n",
              "ingest (attached)", attached.slots_per_sec,
              attached.allocs_per_slot, overhead_pct);

  const QueryStats queries = run_queries(store, queries_per_thread);
  std::printf("%-20s %12.0f queries/s  p50 %7.1f us   p99 %7.1f us  "
              "(%llu answered)\n",
              "queries (8 threads)", queries.queries_per_sec,
              queries.p50_us, queries.p99_us,
              static_cast<unsigned long long>(queries.answered));

  return 0;
}

}  // namespace
}  // namespace nrs::bench

int main(int argc, char** argv) { return nrs::bench::run(argc, argv); }
