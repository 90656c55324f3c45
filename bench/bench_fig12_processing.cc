// Reproduces paper Fig. 12: per-slot processing time vs. number of UEs on
// a 20 MHz cell (Amarisoft) and a 10 MHz cell (T-Mobile).  Paper: linear
// growth with the UE count (O(n log n + m)) for its per-UE decode loop,
// with four DCI threads keeping up at 195/285 UEs.  This engine decodes
// each candidate location once for all UEs on one thread; the paper's
// per-UE loop is timed against it in bench_ablation_dedupe.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"

namespace nrs::bench {
namespace {

struct Fixture {
  std::unique_ptr<GnbSim> gnb;
  std::unique_ptr<VirtualRadio> radio;
  std::unique_ptr<NrScope> scope;
  std::vector<IqBuffer> slots;

  Fixture(const CellConfig& cell, unsigned n_ues) {
    GnbConfig gnb_cfg;
    gnb_cfg.cell = cell;
    gnb_cfg.seed = 5;
    gnb = std::make_unique<GnbSim>(std::move(gnb_cfg));
    VirtualRadioConfig radio_cfg;
    radio_cfg.n_prb = cell.n_prb;
    radio_cfg.channel.snr_db = 28.0;
    radio = std::make_unique<VirtualRadio>(radio_cfg);
    NrScopeConfig scope_cfg;
    scope_cfg.n_prb = cell.n_prb;
    scope_cfg.scs = cell.scs;
    scope_cfg.ue_inactivity_slots = 1u << 30;  // keep every UE
    scope = std::make_unique<NrScope>(scope_cfg);

    // A couple of live UEs generate real DCIs on the grid; the rest of the
    // tracked-UE population is registered directly (their blind decodes
    // cost the same whether or not the UE currently has traffic).
    for (unsigned i = 0; i < std::min(n_ues, 4u); ++i) {
      gnb->add_ue(make_ue(i + 1, 24.0, TrafficKind::kCbr, 2e6));
    }
    // Drive until the sniffer is tracking.
    SlotResult result;
    for (unsigned i = 0; i < 400 &&
                         scope->state() != NrScope::State::kTracking;
         ++i) {
      scope->process_slot(radio->capture(gnb->step()), result);
    }
    for (unsigned i = 0; i < n_ues; ++i) {
      scope->add_ue(static_cast<Rnti>(0x5000 + i), RrcSetup{});
    }
    // Pre-capture slots so the benchmark loop measures only the sniffer.
    for (unsigned i = 0; i < 20; ++i) {
      slots.push_back(radio->capture(gnb->step()));
    }
  }
};

void bm_processing(benchmark::State& state, const CellConfig& cell) {
  const auto n_ues = static_cast<unsigned>(state.range(0));
  Fixture fixture(cell, n_ues);
  SlotResult result;
  std::size_t i = 0;
  for (auto _ : state) {
    fixture.scope->process_slot(fixture.slots[i % fixture.slots.size()],
                                result);
    benchmark::DoNotOptimize(result);
    ++i;
  }
  state.counters["ues"] = n_ues;
  // Per-stage breakdown from the metrics subsystem: where the slot budget
  // goes (FFT demodulation vs. PDCCH blind decoding), paper section 5.3.2.
  const MetricsSnapshot snap = fixture.scope->metrics();
  if (const auto* demod = snap.find_histogram("nrscope.demod_us")) {
    state.counters["demod_us_p50"] = demod->p50();
  }
  if (const auto* blind = snap.find_histogram("nrscope.blind_decode_us")) {
    state.counters["blind_us_p50"] = blind->p50();
    state.counters["blind_us_p95"] = blind->p95();
  }
}

/// Counts delivered slots; the benchmark thread waits on the count.
class SlotCounter : public SlotSink {
 public:
  void on_slot(const SlotResult&) override {
    slots_.fetch_add(1, std::memory_order_release);
  }

  /// Block until `n` slots have been delivered.
  void wait_for(std::uint64_t n) const {
    while (slots_.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<std::uint64_t> slots_{0};
};

/// The full Fig.-4 asynchronous pipeline in steady state: push one slot,
/// wait for its result.  Reports the demod / blind-decode / engine-thread
/// split from the nrscope.* and pipeline.* stage metrics.
void bm_pipeline_breakdown(benchmark::State& state, const CellConfig& cell) {
  const auto n_ues = static_cast<unsigned>(state.range(0));
  Fixture fixture(cell, n_ues);
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.ue_inactivity_slots = 1u << 30;
  NrScopePipeline pipeline(cfg);
  auto counter = std::make_shared<SlotCounter>();
  pipeline.add_sink("counter", counter);
  std::uint64_t pushed = 0;
  // Warm up on live slots until the pipeline's engine is tracking, so the
  // steady-state loop exercises the blind-decode stage too.
  for (unsigned w = 0; w < 400 && pipeline.engine().state() !=
                                      NrScope::State::kTracking;
       ++w) {
    auto samples = pipeline.acquire_samples();
    fixture.radio->capture_into(fixture.gnb->step(), *samples);
    pipeline.push_slot_wait(std::move(samples));
    counter->wait_for(++pushed);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const IqBuffer& slot = fixture.slots[i % fixture.slots.size()];
    auto samples = pipeline.acquire_samples();
    samples->assign(slot.begin(), slot.end());
    pipeline.push_slot_wait(std::move(samples));
    counter->wait_for(++pushed);
    ++i;
  }
  pipeline.stop();
  state.counters["ues"] = n_ues;
  const MetricsSnapshot snap = pipeline.metrics();
  if (const auto* demod = snap.find_histogram("nrscope.demod_us")) {
    state.counters["demod_us_p50"] = demod->p50();
  }
  if (const auto* blind = snap.find_histogram("nrscope.blind_decode_us")) {
    state.counters["blind_us_p50"] = blind->p50();
  }
  if (const auto* collect = snap.find_histogram("pipeline.collect_us")) {
    state.counters["collect_us_p50"] = collect->p50();
  }
  if (const auto* wait = snap.find_histogram("pipeline.collector_wait_us")) {
    state.counters["collector_wait_us_p50"] = wait->p50();
  }
}

void amarisoft_20mhz(benchmark::State& state) {
  bm_processing(state, amarisoft_cell());
}
void tmobile_10mhz(benchmark::State& state) {
  bm_processing(state, tmobile_cell1());
}
void amarisoft_20mhz_pipeline(benchmark::State& state) {
  bm_pipeline_breakdown(state, amarisoft_cell());
}

}  // namespace
}  // namespace nrs::bench

BENCHMARK(nrs::bench::amarisoft_20mhz)
    ->Unit(benchmark::kMicrosecond)
    ->ArgsProduct({{1, 2, 4, 8, 16, 32, 64, 128}});
BENCHMARK(nrs::bench::tmobile_10mhz)
    ->Unit(benchmark::kMicrosecond)
    ->ArgsProduct({{64, 195, 285}});
BENCHMARK(nrs::bench::amarisoft_20mhz_pipeline)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(4);

BENCHMARK_MAIN();
