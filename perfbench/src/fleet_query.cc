// fleet_query: the distributed path with reads beside writes.  A
// FleetCoordinator with 2 cells leases them to one in-process FleetWorker
// (pool of 2) over loopback; a TelemetryStreamServer answers history
// queries from coordinator.store() exactly as examples/fleet_coordinator
// serves them; 2 client connections each run a closed loop of queries.
// Each client rotates through the three kinds in turn, as bench_store's
// query load does; the seed picks the cell of every per-cell query.  All
// three read the last 2 000 slots (~1 s of air at 30 kHz):
//   kRange     over one cell's cell_dcis (the coordinator's store holds
//              only the cell-level series the workers forward, so a per-UE
//              series is not available);
//   kAggregate over one cell's cell_used_prbs in 500-slot buckets, the
//              bucket examples/telemetry_client asks for;
//   kTopK      over cell_spare_prbs across the fleet, k = the number of
//              cells, so every answer can be checked for every cell.
#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common/alloc_hooks.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "store/query.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr unsigned kCells = 2;
constexpr unsigned kClients = 2;
constexpr unsigned kSetups = 3;
constexpr std::uint64_t kRangeSlots = 2000;  ///< ~1 s of air at 30 kHz
constexpr std::uint64_t kBucketSlots = 500;
constexpr std::uint64_t kMinSlots = 200;     ///< per cell before measuring
constexpr double kQueryTimeoutS = 2.0;
constexpr std::int64_t kBlockNs = 1'000'000'000;  ///< rate / latency block

/// Coordinator, query server, worker and query clients, torn down in
/// reverse order of construction.
class Fleet {
 public:
  explicit Fleet(std::uint64_t seed) {
    // Fine buckets for the two latencies the workload reports; the worker
    // and the server then find these instead of the default buckets.
    registry.histogram("fleet.slot_latency_us", fine_latency_bounds_us());
    registry.histogram("query.latency_us", fine_latency_bounds_us());
    nrs::CoordinatorConfig config;
    config.seed = derive_seed(seed, 3);
    for (unsigned i = 0; i < kCells; ++i) {
      nrs::CoordinatorCellSpec cell;
      cell.name = "cell" + std::to_string(i);
      config.cells.push_back(std::move(cell));
    }
    coordinator =
        std::make_unique<nrs::FleetCoordinator>(std::move(config), &registry);
    nrs::StreamServerConfig server_config;
    server_config.query_handler =
        nrs::history_query_handler(coordinator->store());
    server = std::make_unique<nrs::TelemetryStreamServer>(server_config,
                                                          &registry);
    nrs::WorkerConfig wc;
    wc.name = "w0";
    wc.port = coordinator->port();
    wc.capacity = kCells;
    wc.pool_threads = 2;
    worker = std::make_unique<nrs::FleetWorker>(wc, &registry);
    for (unsigned i = 0; i < kClients; ++i) {
      nrs::StreamClientConfig cc;
      cc.port = server->port();
      clients.push_back(std::make_unique<nrs::TelemetryStreamClient>(
          cc, nrs::StreamClientHandlers{}, &registry));
    }
  }
  ~Fleet() {
    for (auto& c : clients) {
      c->stop();
    }
    worker->stop();
    coordinator->stop();
    server->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Every lease active, every cell past kMinSlots with its three
  /// series in the coordinator's store, every client connected.
  [[nodiscard]] bool converged() const {
    if (!coordinator->all_cells_active()) {
      return false;
    }
    for (const nrs::DistCellStatus& c : coordinator->cells()) {
      if (c.slots < kMinSlots) {
        return false;
      }
      for (const nrs::StoreMetric m :
           {nrs::StoreMetric::kCellDcis, nrs::StoreMetric::kCellUsedPrbs,
            nrs::StoreMetric::kCellSparePrbs}) {
        if (coordinator->store().find_series(
                {c.cell_index, nrs::kStoreCellRnti, m}) == nullptr) {
          return false;
        }
      }
    }
    return std::all_of(clients.begin(), clients.end(),
                       [](const auto& c) { return c->connected(); });
  }

  nrs::MetricsRegistry registry;  ///< outlives every component below
  std::unique_ptr<nrs::FleetCoordinator> coordinator;
  std::unique_ptr<nrs::TelemetryStreamServer> server;
  std::unique_ptr<nrs::FleetWorker> worker;
  std::vector<std::unique_ptr<nrs::TelemetryStreamClient>> clients;
};

struct QueryRecord {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  bool ok = false;
  std::size_t rows = 0;
};

/// Shared state of the measured window.
struct Run {
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::atomic<std::uint64_t> next_id{0};
  std::atomic<std::uint64_t> newest[kCells] = {};
  std::mutex violations_mutex;
  std::vector<std::string> violations;  ///< first few malformed answers

  void violation(std::string what) {
    std::lock_guard lock(violations_mutex);
    if (violations.size() < 8) {
      violations.push_back(std::move(what));
    }
  }
};

/// One closed-loop query client; malformed answers are noted in `run`.
/// Leaves the CPU time the loop's own thread used in `cpu_s`.
void query_loop(Run& run, nrs::TelemetryStreamClient& client,
                std::uint64_t seed, std::vector<QueryRecord>& records,
                SpanBuffer& spans, double& cpu_s) {
  nrs::Rng rng(seed);
  for (std::uint64_t q = 0; !run.stop.load(std::memory_order_acquire); ++q) {
    const std::uint64_t id = run.next_id.fetch_add(1);
    const auto cell =
        static_cast<std::uint32_t>(rng.uniform_int(0, kCells - 1));
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& n : run.newest) {
      lo = std::min(lo, n.load(std::memory_order_relaxed));
      hi = std::max(hi, n.load(std::memory_order_relaxed));
    }
    nrs::QueryRequest req;
    req.cell = cell;
    req.rnti = nrs::kStoreCellRnti;
    if (q % 3 == 0) {
      req.kind = nrs::QueryKind::kRange;
      req.metric = static_cast<std::uint8_t>(nrs::StoreMetric::kCellDcis);
      req.slot_to = run.newest[cell].load(std::memory_order_relaxed) + 1;
    } else if (q % 3 == 1) {
      req.kind = nrs::QueryKind::kAggregate;
      req.metric = static_cast<std::uint8_t>(nrs::StoreMetric::kCellUsedPrbs);
      req.slot_to = run.newest[cell].load(std::memory_order_relaxed) + 1;
      req.bucket_slots = kBucketSlots;
    } else {
      req.kind = nrs::QueryKind::kTopK;
      req.cell = nrs::kStoreAnyCell;
      req.metric = static_cast<std::uint8_t>(nrs::StoreMetric::kCellSparePrbs);
      req.k = kCells;
      req.slot_to = hi + 1;
      lo = std::min(lo, hi);
    }
    req.slot_from = req.kind == nrs::QueryKind::kTopK
                        ? (lo > kRangeSlots ? lo - kRangeSlots : 0)
                        : (req.slot_to > kRangeSlots ? req.slot_to - kRangeSlots
                                                     : 0);
    QueryRecord rec;
    SpanBuffer* sp = run.traced.load(std::memory_order_relaxed) ? &spans
                                                                : nullptr;
    {
      ScopedSpan span(sp, "query", "", id);
      rec.t0 = now_ns();
      const std::optional<nrs::QueryResponse> resp =
          client.query(req, kQueryTimeoutS);
      rec.t1 = now_ns();
      rec.ok = resp.has_value() && resp->status == nrs::QueryStatus::kOk;
      if (resp.has_value() && !rec.ok) {
        run.violation(std::string("query status ") +
                      nrs::to_string(resp->status) + " for a written key: " +
                      resp->error);
      }
      if (rec.ok) {
        const nrs::QueryResponse& r = *resp;
        rec.rows = r.rows.size() + r.buckets.size() + r.ranking.size();
        for (std::size_t i = 1; i < r.rows.size(); ++i) {
          if (r.rows[i].slot < r.rows[i - 1].slot) {
            run.violation("kRange rows out of slot order");
            rec.ok = false;
          }
        }
        for (std::size_t i = 1; i < r.buckets.size(); ++i) {
          if (r.buckets[i].slot_start < r.buckets[i - 1].slot_start) {
            run.violation("kAggregate buckets out of slot order");
            rec.ok = false;
          }
        }
        if (req.kind == nrs::QueryKind::kTopK) {
          for (std::uint32_t c = 0; c < kCells; ++c) {
            if (std::none_of(r.ranking.begin(), r.ranking.end(),
                             [c](const nrs::TopKEntry& e) {
                               return e.cell == c;
                             })) {
              run.violation("top-K misses cell " + std::to_string(c));
              rec.ok = false;
            }
          }
        }
      }
    }
    records.push_back(rec);
  }
  cpu_s = thread_cpu_s();
}

struct Setup {
  std::unique_ptr<Fleet> fleet;
  SetupTime time;
  bool converged = false;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  s.fleet = std::make_unique<Fleet>(seed);
  s.converged = wait_for([&] { return s.fleet->converged(); }, 30.0);
  s.time.stop();
  return s;
}

/// A registry snapshot with its time, taken by the monitor thread.
struct Sample {
  std::int64_t t = 0;
  std::uint64_t fleet_slots = 0;  ///< worker's live slot count
  nrs::MetricsSnapshot snap;
};

}  // namespace

Report run_fleet_query(const Options& opt) {
  Report r;
  std::printf("fleet_query: coordinator + %u srsran cells on 1 worker (pool "
              "2), %u query clients, closed loop, range / aggregate / top-K "
              "in turn\n",
              kCells, kClients);
  std::vector<SetupTime> setups;
  Setup s;
  for (unsigned i = 0; i < kSetups; ++i) {
    s.fleet.reset();  // tear the previous fleet down before timing anew
    s = set_up(opt.seed);
    setups.push_back(s.time);
    std::printf("  setup %u: %s\n", i + 1, s.time.str().c_str());
    r.require(s.converged, "fleet never converged (leases, rows, clients)");
    if (!s.converged) {
      return r;
    }
  }
  Fleet& f = *s.fleet;

  Run run;
  auto refresh_newest = [&] {
    for (const nrs::DistCellStatus& c : f.coordinator->cells()) {
      if (c.cell_index < kCells) {
        run.newest[c.cell_index].store(c.slots, std::memory_order_relaxed);
      }
    }
  };
  refresh_newest();
  std::vector<std::vector<QueryRecord>> records(kClients);
  std::vector<std::unique_ptr<SpanBuffer>> spans;
  for (unsigned i = 0; i < kClients; ++i) {
    records[i].reserve(1u << 20);
    spans.push_back(std::make_unique<SpanBuffer>(
        "client" + std::to_string(i), opt.trace ? 1u << 20 : 0));
  }
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(opt.seconds) + 8);
  const nrs::alloc::Totals a0 = nrs::alloc::totals();
  // The fleet's CPU: the process less this monitor thread and the
  // query-issuing threads, which are the benchmark's own load.
  const double cpu0 = process_cpu_s() - thread_cpu_s();
  std::vector<double> client_cpu(kClients, 0.0);
  const std::int64_t t0 = now_ns();
  samples.push_back({t0, f.worker->slots_total(), f.registry.snapshot()});
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kClients; ++i) {
    threads.emplace_back(query_loop, std::ref(run), std::ref(*f.clients[i]),
                         derive_seed(opt.seed, 50 + i), std::ref(records[i]),
                         std::ref(*spans[i]), std::ref(client_cpu[i]));
  }
  // Monitor: refresh the newest slot per cell every 20 ms, snapshot the
  // registry at every block edge, alternate traced blocks in trace mode.
  const std::int64_t stop = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t next_edge = t0 + kBlockNs;
  while (now_ns() < stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    refresh_newest();
    if (now_ns() >= next_edge) {
      samples.push_back({now_ns(), f.worker->slots_total(),
                         f.registry.snapshot()});
      next_edge += kBlockNs;
      if (opt.trace) {
        run.traced.store(!run.traced.load());
      }
    }
  }
  run.stop.store(true, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }
  const std::int64_t t1 = now_ns();
  double cpu1 = process_cpu_s() - thread_cpu_s();
  for (const double c : client_cpu) {
    cpu1 -= c;
  }
  samples.push_back({t1, f.worker->slots_total(), f.registry.snapshot()});
  const nrs::alloc::Totals a1 = nrs::alloc::totals();
  const std::uint64_t restarts =
      samples.back().snap.counter_value("fleet.cell.restarts");
  const bool still_active = f.coordinator->all_cells_active();
  s.fleet.reset();

  // ---- end-to-end ----
  std::vector<QueryRecord> all;
  for (const auto& rs : records) {
    all.insert(all.end(), rs.begin(), rs.end());
  }
  std::sort(all.begin(), all.end(), [](const QueryRecord& a,
                                       const QueryRecord& b) {
    return a.t1 < b.t1;
  });
  std::vector<double> latency;
  std::uint64_t failed = 0;
  double rows = 0.0;
  std::vector<std::uint64_t> ok_per_block(samples.size(), 0);
  for (const QueryRecord& q : all) {
    latency.push_back(static_cast<double>(q.t1 - q.t0) / 1e3);
    failed += q.ok ? 0 : 1;
    rows += static_cast<double>(q.rows);
    const auto block = static_cast<std::size_t>((q.t1 - t0) / kBlockNs);
    if (q.ok && block < ok_per_block.size()) {
      ++ok_per_block[block];
    }
  }
  const std::size_t full_blocks = samples.size() - 2;
  std::vector<double> qps_u, qps_t, slot_rates, lat_p50, lat_p99;
  for (std::size_t b = 0; b < full_blocks; ++b) {
    const Sample& x = samples[b];
    const Sample& y = samples[b + 1];
    const double dt = static_cast<double>(y.t - x.t) / 1e9;
    // Trace mode: odd blocks are traced (the flag flips at every edge).
    (opt.trace && b % 2 == 1 ? qps_t : qps_u)
        .push_back(static_cast<double>(ok_per_block[b]) / dt);
    slot_rates.push_back(static_cast<double>(y.fleet_slots - x.fleet_slots) /
                         dt);
    const RegistryWindow win(x.snap, y.snap);
    const HistogramWindow h = win.histogram("fleet.slot_latency_us");
    lat_p50.push_back(h.percentile(50.0));
    lat_p99.push_back(h.percentile(99.0));
  }
  const Timing q = block_summary(latency, std::max<std::size_t>(
                                              1000, latency.size() / 10));
  r.attempted = all.size();
  r.failed = failed;
  const double sps = percentile(slot_rates, 50.0);
  const double qps = percentile(qps_u, 50.0);
  const RegistryWindow whole(samples.front().snap, samples.back().snap);
  const HistogramWindow fleet_lat = whole.histogram("fleet.slot_latency_us");
  std::printf("\n  queries              %zu answered-or-failed in %.2f s\n",
              all.size(), static_cast<double>(t1 - t0) / 1e9);
  std::printf("  queries_per_s        %.1f 1/s (median of %zu 1-s blocks)\n",
              qps, qps_u.size());
  std::printf("  query_latency        %s (client round trip)\n",
              describe(q, "us").c_str());
  std::printf("  slots_per_s          %.1f slots/s (fleet, median of %zu 1-s "
              "blocks)\n",
              sps, slot_rates.size());
  std::printf("  slot_latency         p50 %.1f us, p99 %.1f us (fleet push "
              "to delivery, medians of %zu 1-s registry windows; n=%llu)\n",
              percentile(lat_p50, 50.0), percentile(lat_p99, 50.0),
              lat_p50.size(),
              static_cast<unsigned long long>(fleet_lat.count));
  std::printf("  failed_ratio         %s (timeouts + non-kOk + malformed)\n",
              Ratio{static_cast<double>(failed),
                    static_cast<double>(all.size())}
                  .str()
                  .c_str());
  const std::uint64_t fleet_slots =
      samples.back().fleet_slots - samples.front().fleet_slots;
  const double cpu_us =
      (cpu1 - cpu0) * 1e6 /
      static_cast<double>(std::max<std::uint64_t>(fleet_slots, 1));
  std::printf("  cpu_us_per_slot      %.1f us per fleet slot (fleet, "
              "coordinator, server and client readers)\n",
              cpu_us);
  report_setup(r, setups);
  report_allocs(r, "per fleet slot", a1.allocs - a0.allocs,
                a1.bytes - a0.bytes, fleet_slots);
  r.e2e("cpu_us_per_slot", cpu_us, "us");
  r.layer("slots_per_s", sps, "slots/s");
  r.layer("slot_latency_p50_us", percentile(lat_p50, 50.0), "us");
  r.layer("consumer.latency_p50_us", q.p50, "us");
  r.layer("mem.peak_rss_mb", peak_rss_mb(), "MB");
  r.layer("tail.slot_latency_p99_us", percentile(lat_p99, 50.0), "us");
  r.layer("tail.consumer_latency_p99_us", q.p99, "us");

  for (const std::string& v : run.violations) {
    r.require(false, "malformed answer: " + v);
  }
  r.require(restarts == 0, "fleet.cell.restarts above zero");
  r.require(still_active, "a cell lost its lease during the window");
  r.require(all.size() >= 1000, "fewer than 1000 queries");

  if (!opt.trace) {
    return r;
  }
  // ---- per-layer ----
  const double secs = static_cast<double>(t1 - t0) / 1e9;
  const double traced_qps = percentile(qps_t, 50.0);
  const double overhead = 1.0 - traced_qps / std::max(qps, 1e-9);
  std::printf("\n  traced blocks: %.1f queries/s vs untraced %.1f "
              "(tracing overhead %.2f%%)\n",
              traced_qps, qps, 100.0 * overhead);
  r.layer("bench.trace_overhead", overhead, "ratio");
  layer_timing(r, "query.server_us", whole.histogram("query.latency_us"));
  r.layer("query.rows_per_answer",
          rows / static_cast<double>(std::max<std::size_t>(all.size(), 1)),
          "count");
  r.layer("query.queries_per_s", qps, "1/s");
  layer_timing(r, "fleet.slot_latency_us", fleet_lat);
  r.layer("fleet.cell.restarts", static_cast<double>(restarts), "count");
  r.layer("dist.worker.report_bytes_per_s",
          static_cast<double>(whole.counter("dist.worker.report_bytes")) /
              secs,
          "B/s");
  r.layer("dist.worker.reports",
          static_cast<double>(whole.counter("dist.worker.reports")), "count");
  r.layer("dist.stale_reports",
          static_cast<double>(whole.counter("dist.stale_reports")), "count");
  const double ingested =
      static_cast<double>(whole.counter("store.rows_ingested"));
  r.layer("store.rows_ingested_per_s", ingested / secs, "1/s");
  r.layer("store.rows_per_slot",
          ingested /
              static_cast<double>(std::max<std::uint64_t>(fleet_slots, 1)),
          "count");
  std::printf("  dist: %llu reports, %.0f report B/s, %llu stale; store "
              "ingest %.0f rows/s\n",
              static_cast<unsigned long long>(
                  whole.counter("dist.worker.reports")),
              static_cast<double>(whole.counter("dist.worker.report_bytes")) /
                  secs,
              static_cast<unsigned long long>(
                  whole.counter("dist.stale_reports")),
              ingested / secs);
  std::vector<const SpanBuffer*> bufs;
  std::uint64_t traced_queries = 0;
  for (const auto& b : spans) {
    bufs.push_back(b.get());
    traced_queries += b->spans().size();
  }
  report_self_times(r, bufs, {"query"}, traced_queries, "queries");
  save_spans(opt, bufs);
  return r;
}

}  // namespace perfbench
