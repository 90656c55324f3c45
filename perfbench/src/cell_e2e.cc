// cell_e2e: the whole chain for one cell, run as a closed loop.  One
// feeder thread runs GnbSim::step(), VirtualRadio::capture_into() into a
// pooled buffer and NrScopePipeline::push_slot(); the collector delivers
// each slot to the history store, the predictor, the stream server (one
// loopback client) and the recording sink, one after another.
#include <algorithm>
#include <cstdio>

#include "analysis/prediction_sink.h"
#include "common/alloc_hooks.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "store/store_sink.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kMaxSlots = 1u << 16;
constexpr std::size_t kQueueDepth = 64;
constexpr unsigned kSetups = 3;
constexpr std::uint64_t kMaxAcquireSlots = 6000;
constexpr std::uint64_t kWarmupSlots = 1000;
/// Miss-ratio ceiling on the 28 dB AWGN link.
constexpr double kMissCeiling = 0.01;

class CellChain {
 public:
  CellChain(const Options& opt, std::uint64_t seed);
  ~CellChain() { teardown(); }
  CellChain(const CellChain&) = delete;
  CellChain& operator=(const CellChain&) = delete;

  /// Feed one fresh slot (a refused push is declared lost and counted).
  void feed_one(SpanBuffer* spans);
  /// Wait until every accepted slot reached the recording sink (false on
  /// a 30 s timeout) and the stream client (given up to 10 s).
  bool quiesce();
  void set_spans(SpanBuffer* collector, SpanBuffer* client);
  /// Stop the pipeline, then the stream; idempotent.
  void teardown();

  std::unique_ptr<nrs::GnbSim> gnb;
  std::unique_ptr<nrs::VirtualRadio> radio;
  std::unique_ptr<nrs::HistoryStore> store;
  std::unique_ptr<nrs::NrScopePipeline> pipeline;
  std::shared_ptr<nrs::TelemetryStreamServer> server;
  std::shared_ptr<nrs::PredictionSink> predictor;
  std::shared_ptr<RecordingSink> record;
  std::vector<std::shared_ptr<TimedSink>> timed;
  StampArray capture_ns{kMaxSlots};
  StampArray net_done_ns{kMaxSlots};
  StampArray client_ns{kMaxSlots};
  std::atomic<std::uint64_t> client_slots{0};
  std::atomic<SpanBuffer*> client_spans{nullptr};
  std::unique_ptr<nrs::TelemetryStreamClient> client;
  std::uint64_t next = 0;     ///< next slot index
  std::uint64_t refused = 0;  ///< pushes refused (declared lost)
  std::int64_t max_queue_depth = 0;
  std::int64_t max_reorder = 0;
  std::size_t buffers_after_stop = 0;
  bool stopped = false;

 private:
  nrs::Gauge* queue_depth_ = nullptr;
  nrs::Gauge* reorder_ = nullptr;
};

CellChain::CellChain(const Options& opt, std::uint64_t seed) {
  gnb = make_gnb(seed);
  radio = std::make_unique<nrs::VirtualRadio>(
      radio_config(gnb->cell(), nrs::ChannelProfile::kAwgn, seed));
  pipeline = std::make_unique<nrs::NrScopePipeline>(
      scope_config(gnb->cell()), kDemodWorkers, kQueueDepth);
  nrs::MetricsRegistry& registry = pipeline->metrics_registry();
  queue_depth_ = &registry.gauge("pipeline.input_queue_depth");
  reorder_ = &registry.gauge("pipeline.reorder_occupancy");

  store = std::make_unique<nrs::HistoryStore>(nrs::HistoryStoreConfig{},
                                              &registry);
  nrs::StoreSinkConfig store_cfg;
  store_cfg.n_prb = gnb->cell().n_prb;
  auto store_sink = std::make_shared<nrs::HistoryStoreSink>(*store, store_cfg);

  const auto weights = nrs::PredictorWeights::load(opt.weights);
  if (!weights) {
    throw std::runtime_error("cannot load predictor weights " + opt.weights);
  }
  auto model = std::make_shared<nrs::ThroughputPredictor>(*weights);

  server = std::make_shared<nrs::TelemetryStreamServer>(
      nrs::StreamServerConfig{}, &registry);
  nrs::PredictionSinkConfig pred_cfg;
  pred_cfg.features.scs = gnb->cell().scs;
  pred_cfg.features.n_prb = gnb->cell().n_prb;
  pred_cfg.period_slots = 40;
  nrs::TelemetryStreamServer* srv = server.get();
  predictor = std::make_shared<nrs::PredictionSink>(
      model, pred_cfg, &registry, [srv](const nrs::PredictionSet& set) {
        srv->broadcast_frame(nrs::prediction_frame(set));
      });
  record = std::make_shared<RecordingSink>(kMaxSlots, kMaxSlots * 16);

  auto t_store = std::make_shared<TimedSink>(store_sink, "store");
  auto t_pred = std::make_shared<TimedSink>(predictor, "analysis");
  // The net wrapper also stamps when the server handed each slot off, so
  // the client can close a "net.rx" span.
  auto t_net = std::make_shared<TimedSink>(server, "net", &net_done_ns);
  timed = {t_store, t_pred, t_net};
  pipeline->add_sink("store", t_store);
  pipeline->add_sink("predict", t_pred);
  pipeline->add_sink("stream", t_net);
  pipeline->add_sink("record", record);

  nrs::StreamClientConfig client_cfg;
  client_cfg.port = server->port();
  nrs::StreamClientHandlers handlers;
  handlers.on_slot = [this](const nrs::SlotResult& r) {
    const std::int64_t t = now_ns();
    if (client_ns.get(r.slot) == 0) {
      client_ns.set(r.slot, t);
      client_slots.fetch_add(1, std::memory_order_release);
    }
    if (SpanBuffer* spans = client_spans.load(std::memory_order_acquire)) {
      const std::int64_t sent = net_done_ns.get(r.slot);
      spans->add("net.rx", "slot", r.slot, sent != 0 ? sent : t, t);
    }
  };
  client = std::make_unique<nrs::TelemetryStreamClient>(
      client_cfg, std::move(handlers), &registry);
  // The client is connected once the kernel queued the connection; slots
  // published before the server accepted it would never reach it.
  if (!client->wait_connected(5.0) ||
      !wait_for([this] { return server->client_count() >= 1; }, 5.0)) {
    throw std::runtime_error("stream client never connected");
  }
}

void CellChain::feed_one(SpanBuffer* spans) {
  const std::uint64_t idx = next;
  ScopedSpan root(spans, "slot", "", idx);
  const nrs::ResourceGrid* grid = nullptr;
  {
    ScopedSpan s(spans, "gnb", "slot", idx);
    grid = &gnb->step();
  }
  auto handle = [&] {
    ScopedSpan s(spans, "radio", "slot", idx);
    auto h = pipeline->acquire_samples();
    radio->capture_into(*grid, *h);
    return h;
  }();
  capture_ns.set(idx, now_ns());
  {
    ScopedSpan s(spans, "push", "slot", idx);
    refused += push_when_room(*pipeline, *queue_depth_, kQueueDepth,
                              std::move(handle))
                   ? 0
                   : 1;
  }
  max_queue_depth = std::max(max_queue_depth, queue_depth_->value());
  max_reorder = std::max(max_reorder, reorder_->value());
  ++next;
}

bool CellChain::quiesce() {
  const std::uint64_t accepted = next - refused;
  const bool drained =
      wait_for([&] { return record->delivered() >= accepted; }, 30.0);
  // Slots the client still lacks after this count as failed, not wrong.
  wait_for(
      [&] { return client_slots.load(std::memory_order_acquire) >= accepted; },
      10.0);
  // Let the collector finish the bookkeeping after the last sink call.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  return drained;
}

void CellChain::set_spans(SpanBuffer* collector, SpanBuffer* client_buf) {
  for (auto& t : timed) {
    t->set_spans(collector);
  }
  record->set_spans(collector);
  client_spans.store(client_buf, std::memory_order_release);
}

void CellChain::teardown() {
  if (stopped) {
    return;
  }
  stopped = true;
  pipeline->stop();  // drains; the server's on_finish ends the stream
  buffers_after_stop = pipeline->buffers_in_flight();
  client->wait_end_of_stream(2.0);
  client->stop();
  server->stop();
}

/// Build a chain and feed it until the engine tracks every UE.
struct Setup {
  std::unique_ptr<CellChain> chain;
  SetupTime time;
  bool acquired = false;
};

Setup set_up(const Options& opt) {
  Setup s;
  s.chain = std::make_unique<CellChain>(opt, opt.seed);
  CellChain& c = *s.chain;
  const unsigned spf = nrs::slots_per_frame(c.gnb->cell().scs);
  while (c.next < kMaxAcquireSlots) {
    c.feed_one(nullptr);
    if (c.next % spf == 0) {
      c.quiesce();
      if (acquired(c.pipeline->engine(), *c.gnb)) {
        s.acquired = true;
        break;
      }
    }
  }
  s.time.stop();
  return s;
}

/// One measured window on a running chain.  In trace mode it alternates
/// untraced and traced blocks of kBlock slots, so both rates see the same
/// conditions on the host.
struct Window {
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  nrs::MetricsSnapshot before;
  nrs::MetricsSnapshot after;
  nrs::alloc::Totals a0;
  nrs::alloc::Totals a1;
  std::uint64_t made0 = 0, made1 = 0, infer0 = 0, infer1 = 0;
  double cpu0 = 0.0, cpu1 = 0.0;  ///< process CPU seconds
  std::vector<double> rate_untraced;  ///< slots/s per untraced block
  std::vector<double> rate_traced;    ///< slots/s per traced block
  std::uint64_t traced_slots = 0;
  bool quiet = true;

  [[nodiscard]] std::uint64_t slots() const { return end - first; }
};

constexpr std::uint64_t kBlock = 250;  ///< slots per rate block

struct Tracing {
  SpanBuffer feeder{"feeder", 1u << 18};
  SpanBuffer collector{"collector", 1u << 19};
  SpanBuffer client{"client", 1u << 18};
};

Window measure(CellChain& c, double seconds, Tracing* tracing) {
  Window w;
  c.quiesce();
  w.before = c.pipeline->metrics();
  w.made0 = c.predictor->predictions_made();
  w.infer0 = c.predictor->inference_ns();
  w.a0 = nrs::alloc::totals();
  w.first = c.next;
  w.cpu0 = process_cpu_s();
  w.t0 = now_ns();
  const std::int64_t stop = w.t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t block_start = w.t0;
  bool traced = false;
  CpuRotation rotation;  // the feeder does most of the work: a vCPU a block
  rotation.next();
  while ((now_ns() < stop || c.next - w.first < 2 * kBlock) &&
         c.next < kMaxSlots - 1) {
    c.feed_one(traced ? &tracing->feeder : nullptr);
    w.traced_slots += traced ? 1 : 0;
    if ((c.next - w.first) % kBlock == 0) {
      // In trace mode each vCPU runs one untraced and one traced block.
      if (tracing == nullptr || (c.next - w.first) / kBlock % 2 == 0) {
        rotation.next();
      }
      const std::int64_t t = now_ns();
      (traced ? w.rate_traced : w.rate_untraced)
          .push_back(static_cast<double>(kBlock) /
                     (static_cast<double>(t - block_start) / 1e9));
      block_start = t;
      if (tracing != nullptr) {
        traced = !traced;
        c.set_spans(traced ? &tracing->collector : nullptr,
                    traced ? &tracing->client : nullptr);
      }
    }
  }
  c.set_spans(nullptr, nullptr);
  w.end = c.next;
  w.quiet = c.quiesce();  // false only when the pipeline itself stalls
  w.cpu1 = process_cpu_s();
  w.a1 = nrs::alloc::totals();
  w.t1 = c.record->delivered_ns(w.end - 1);
  w.after = c.pipeline->metrics();
  w.made1 = c.predictor->predictions_made();
  w.infer1 = c.predictor->inference_ns();
  return w;
}

Timing span_timing(const std::vector<const SpanBuffer*>& bufs,
                   std::string_view name) {
  std::vector<double> d;
  for (const SpanBuffer* b : bufs) {
    for (const Span& sp : b->spans()) {
      if (sp.name == name) {
        d.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
      }
    }
  }
  return summarize(std::move(d));
}

}  // namespace

Report run_cell_e2e(const Options& opt) {
  Report r;
  std::printf("cell_e2e: amarisoft 51 PRB / 30 kHz, %u CBR UEs, AWGN %.0f dB, "
              "%u demod workers, closed loop\n",
              kUes, kSnifferSnrDb, kDemodWorkers);
  std::vector<SetupTime> setups;
  Setup s;
  for (unsigned i = 0; i < kSetups; ++i) {
    s.chain.reset();  // tear the previous chain down before timing anew
    s = set_up(opt);
    setups.push_back(s.time);
    std::printf("  setup %u: %s (%llu slots to acquire)\n", i + 1,
                s.time.str().c_str(),
                static_cast<unsigned long long>(s.chain->next));
    r.require(s.acquired, "engine never tracked every UE's C-RNTI");
    if (!s.acquired) {
      return r;
    }
  }
  CellChain& c = *s.chain;
  const std::uint64_t acquired_at = c.next;
  for (std::uint64_t i = 0; i < kWarmupSlots; ++i) {
    c.feed_one(nullptr);
  }

  std::unique_ptr<Tracing> tracing =
      opt.trace ? std::make_unique<Tracing>() : nullptr;
  const Window w = measure(c, opt.seconds, tracing.get());
  const std::uint64_t resyncs =
      c.pipeline->metrics().counter_value("nrscope.resyncs");
  c.teardown();

  // ---- end-to-end ----
  std::vector<double> slot_lat, age;
  std::uint64_t never_received = 0;
  for (std::uint64_t i = w.first; i < w.end; ++i) {
    const std::int64_t cap = c.capture_ns.get(i);
    const std::int64_t del = c.record->delivered_ns(i);
    const std::int64_t rx = c.client_ns.get(i);
    if (del != 0) {
      slot_lat.push_back(static_cast<double>(del - cap) / 1e3);
    }
    if (rx != 0) {
      age.push_back(static_cast<double>(rx - cap) / 1e3);
    } else {
      ++never_received;
    }
  }
  constexpr std::size_t kLatencyBlock = 1000;  // p99 keeps 10 beyond it
  const Timing lat = block_summary(slot_lat, kLatencyBlock);
  const Timing age_t = block_summary(age, kLatencyBlock);
  std::vector<double> rates = w.rate_untraced;
  const double sps = percentile(rates, 50.0);
  r.attempted = w.slots();
  r.failed = never_received;  // a refused push never reaches the client
  const double cpu_us =
      (w.cpu1 - w.cpu0) * 1e6 / static_cast<double>(w.slots());
  const Ratio miss =
      dci_miss_ratio(c.gnb->truth(), c.record->dcis(), w.first, w.end);
  std::printf("\n  slots_per_s          %.1f slots/s (median of %zu blocks of "
              "%llu slots; %llu slots in %.2f s)\n",
              sps, w.rate_untraced.size(),
              static_cast<unsigned long long>(kBlock),
              static_cast<unsigned long long>(w.slots()),
              static_cast<double>(w.t1 - w.t0) / 1e9);
  std::printf("  slot_latency         %s (capture to recording sink)\n",
              describe(lat, "us").c_str());
  std::printf("  telemetry_age        %s (capture to stream client)\n",
              describe(age_t, "us").c_str());
  std::printf("  dci_miss_ratio       %s\n", miss.str().c_str());
  std::printf("  failed_ratio         %s (slots the stream client never "
              "received)\n",
              Ratio{static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)}
                  .str()
                  .c_str());
  std::printf("  cpu_us_per_slot      %.1f us (whole process)\n", cpu_us);
  report_setup(r, setups);
  report_allocs(r, "measured window", w.a1.allocs - w.a0.allocs,
                w.a1.bytes - w.a0.bytes, w.slots());
  r.e2e("cpu_us_per_slot", cpu_us, "us");
  r.layer("slots_per_s", sps, "slots/s");
  r.layer("slot_latency_p50_us", lat.p50, "us");
  r.layer("consumer.latency_p50_us", age_t.p50, "us");
  r.layer("mem.peak_rss_mb", peak_rss_mb(), "MB");
  r.layer("tail.slot_latency_p99_us", lat.p99, "us");
  r.layer("tail.consumer_latency_p99_us", age_t.p99, "us");

  // ---- correctness gate ----
  r.require(miss.value() <= kMissCeiling,
            "dci_miss_ratio " + miss.str() + " above the AWGN ceiling");
  r.require(resyncs == 0, "nrscope.resyncs above zero on the AWGN link");
  r.require(c.buffers_after_stop == 0, "buffers_in_flight() != 0 after stop()");
  r.require(c.record->dcis_dropped() == 0, "recording sink overflowed");
  r.require(w.quiet, "pipeline did not drain after the window");
  r.require(lat.n >= kLatencyBlock, "fewer than 1000 measured slots");

  if (!opt.trace) {
    return r;
  }
  // ---- per-layer (traced blocks for spans, whole window for counts) ----
  std::vector<double> traced_rates = w.rate_traced;
  const double traced_sps = percentile(traced_rates, 50.0);
  const double overhead = 1.0 - traced_sps / sps;
  std::printf("\n  traced blocks: %.1f slots/s vs untraced %.1f slots/s "
              "(tracing overhead %.2f%%)\n",
              traced_sps, sps, 100.0 * overhead);
  r.layer("bench.trace_overhead", overhead, "ratio");
  const RegistryWindow reg(w.before, w.after);
  const std::vector<const SpanBuffer*> bufs = {
      &tracing->feeder, &tracing->collector, &tracing->client};
  const double n = static_cast<double>(w.slots());
  std::uint64_t truth_dcis = 0;
  for (const nrs::SlotTruth& st : c.gnb->truth().slots()) {
    if (st.slot >= w.first && st.slot < w.end) {
      truth_dcis += st.dcis.size();
    }
  }
  layer_timing(r, "gnb.step_us", span_timing(bufs, "gnb"));
  r.layer("gnb.dcis_per_slot", static_cast<double>(truth_dcis) / n, "count");
  layer_timing(r, "radio.capture_us", span_timing(bufs, "radio"));
  layer_timing(r, "pipeline.push_wait_us", span_timing(bufs, "push"));
  layer_timing(r, "pipeline.demod_us", reg.histogram("pipeline.demod_us"));
  layer_timing(r, "pipeline.collect_us", reg.histogram("pipeline.collect_us"));
  r.layer("pipeline.collector_wait_us.p50",
          reg.histogram("pipeline.collector_wait_us").percentile(50.0), "us");
  r.layer("pipeline.input_queue_depth.max",
          static_cast<double>(c.max_queue_depth), "count");
  r.layer("pipeline.reorder_occupancy.max", static_cast<double>(c.max_reorder),
          "count");
  r.layer("pipeline.slots_dropped.queue_full",
          static_cast<double>(reg.counter("pipeline.slots_dropped.queue_full")),
          "count");
  layer_timing(r, "nrscope.blind_decode_us",
               reg.histogram("nrscope.blind_decode_us"));
  const Ratio dedupe{
      static_cast<double>(reg.counter("nrscope.dedupe_locations")),
      static_cast<double>(reg.counter("nrscope.dedupe_candidates"))};
  r.layer("nrscope.dedupe_locations_per_candidate", dedupe.value(), "ratio");
  const Ratio tracking{
      static_cast<double>(reg.counter("nrscope.slots_tracking")), n};
  r.layer("nrscope.tracking_share", tracking.value(), "ratio");
  r.layer("nrscope.resyncs",
          static_cast<double>(reg.counter("nrscope.resyncs")), "count");
  r.layer("nrscope.degraded_slots",
          static_cast<double>(reg.counter("nrscope.degraded_slots")), "count");
  r.layer("nrscope.dci_miss_ratio", miss.value(), "ratio");
  const std::vector<nrs::Rnti> known = c.pipeline->engine().known_ues();
  Ratio discovered;
  for (const nrs::Rnti rnti : c.gnb->connected_rntis()) {
    discovered.den += 1;
    discovered.num +=
        std::find(known.begin(), known.end(), rnti) != known.end() ? 1 : 0;
  }
  r.layer("rach.discovered_share", discovered.value(), "ratio");
  std::printf("  dedupe locations/candidate %s, tracking share %s, "
              "rach discovered %s (acquired after %llu slots)\n",
              dedupe.str().c_str(), tracking.str().c_str(),
              discovered.str().c_str(),
              static_cast<unsigned long long>(acquired_at));

  layer_timing(r, "store.on_slot_us", span_timing(bufs, "store"));
  const double rows = static_cast<double>(reg.counter("store.rows_ingested"));
  r.layer("store.rows_per_slot", rows / n, "count");
  r.layer("store.rows_ingested_per_s",
          rows / (static_cast<double>(w.t1 - w.t0) / 1e9), "1/s");
  layer_timing(r, "analysis.on_slot_us", span_timing(bufs, "analysis"));
  const Ratio infer{static_cast<double>(w.infer1 - w.infer0),
                    static_cast<double>(w.made1 - w.made0)};
  r.layer("analysis.inference_ns_per_forecast", infer.value(), "ns");
  std::printf("  analysis inference ns/forecast %s\n", infer.str().c_str());
  layer_timing(r, "net.on_slot_us", span_timing(bufs, "net"));
  layer_timing(r, "net.rx_us", span_timing(bufs, "net.rx"));
  r.layer("net.bytes_per_slot",
          static_cast<double>(reg.counter("net.bytes_sent")) / n, "B");
  r.layer("net.frames_dropped",
          static_cast<double>(reg.counter_family("net.frames_dropped.")),
          "count");
  report_self_times(r, bufs,
                    {"slot", "gnb", "radio", "push", "store", "analysis",
                     "net", "record", "net.rx"},
                    w.traced_slots, "slots");
  save_spans(opt, bufs);
  return r;
}

}  // namespace perfbench
