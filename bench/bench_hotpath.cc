// Hot-path benchmark: slots/sec, per-slot latency percentiles and heap
// traffic of the steady-state tracking loop (engine-only and through the
// full NrScopePipeline).  The allocation numbers come from the counting
// operator new/delete shim (common/alloc_shim.h) included by this binary;
// the library itself is unchanged.  See DESIGN.md "Hot-path memory
// discipline" and the before/after row in EXPERIMENTS.md.
//
// Flags:
//   --quick   a few hundred slots instead of a few thousand (CI smoke run)
//   --json    additionally write BENCH_hotpath.json to the current
//             directory (invoke from the repo root to place it there)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench/bench_util.h"
#include "common/alloc_shim.h"
#include "nrscope/pipeline.h"

namespace nrs::bench {
namespace {

struct PhaseStats {
  double slots_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double allocs_per_slot = 0.0;
  double frees_per_slot = 0.0;
  double bytes_per_slot = 0.0;
};

struct Feed {
  GnbConfig gnb_cfg;
  std::vector<IqBuffer> history;  ///< every slot since power-on
  std::size_t replay_start = 0;   ///< first index of the cyclic window
  std::size_t replay_len = 0;
  NrScopeConfig scope_cfg;
};

constexpr unsigned kUes = 4;

NrScopeConfig make_scope_config(const CellConfig& cell) {
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  cfg.ue_inactivity_slots = 1u << 30;
  return cfg;
}

/// Drive a gNB + virtual radio from power-on until a probe NrScope is
/// tracking all UEs, recording every captured slot.  The recorded history
/// replays deterministically into engines and pipelines alike; the cyclic
/// replay window is a whole number of frames so frame-phase-dependent
/// sequences (DMRS, search-space hashing) line up on every pass.
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
    std::fprintf(stderr, "bench_hotpath: probe never reached tracking\n");
    std::exit(1);
  }
  // Append one frame of pure steady-state slots as the replay window.
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

/// Synchronous engine loop: per-slot latency and heap traffic.
PhaseStats run_engine(const Feed& feed, unsigned n_slots) {
  NrScope scope(feed.scope_cfg);
  SlotResult result;  // reused: the engine clears it in place
  for (std::size_t i = 0; i < feed.history.size(); ++i) {
    scope.process_slot(feed.history[i], result);
  }
  // Extra replayed warm-up so grow-only containers reach steady capacity.
  // Must cover at least one full telemetry rate window: the per-UE sample
  // rings keep doubling until a whole window of DCIs has been observed.
  const std::uint64_t warm_extra =
      feed.scope_cfg.rate_window_slots + 3 * feed.replay_len;
  for (unsigned i = 0; i < warm_extra; ++i) {
    scope.process_slot(replay_slot(feed, i), result);
  }

  std::vector<double> latency_us(n_slots, 0.0);
  nrs::alloc::reset();
  const auto bench_start = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < n_slots; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    scope.process_slot(replay_slot(feed, i), result);
    const auto t1 = std::chrono::steady_clock::now();
    latency_us[i] =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
  }
  const auto bench_end = std::chrono::steady_clock::now();
  const auto totals = nrs::alloc::totals();

  PhaseStats stats;
  const double elapsed_s =
      std::chrono::duration<double>(bench_end - bench_start).count();
  stats.slots_per_sec = n_slots / std::max(elapsed_s, 1e-9);
  std::sort(latency_us.begin(), latency_us.end());
  stats.p50_us = latency_us[latency_us.size() / 2];
  stats.p99_us = latency_us[latency_us.size() * 99 / 100];
  stats.allocs_per_slot = static_cast<double>(totals.allocs) / n_slots;
  stats.frees_per_slot = static_cast<double>(totals.frees) / n_slots;
  stats.bytes_per_slot = static_cast<double>(totals.bytes) / n_slots;
  return stats;
}

/// Counts deliveries so the feeder can pace itself without polling.
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

/// Full pipeline: push the recorded history, then a measured cyclic replay.
PhaseStats run_pipeline(const Feed& feed, unsigned n_slots) {
  NrScopePipeline pipeline(feed.scope_cfg, /*n_demod_workers=*/2);
  auto sink = std::make_shared<CountingSink>();
  pipeline.add_sink(sink);

  // The allocation-free feed path: copy each replayed slot into a recycled
  // pooled buffer instead of handing the pipeline a fresh IqBuffer.
  auto push_blocking = [&](const IqBuffer& samples) {
    for (;;) {
      auto handle = pipeline.acquire_samples();
      handle->assign(samples.begin(), samples.end());
      if (pipeline.push_slot(std::move(handle))) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };
  for (const auto& samples : feed.history) {
    push_blocking(samples);
  }
  const std::uint64_t warm_extra =
      feed.scope_cfg.rate_window_slots + 3 * feed.replay_len;
  for (unsigned i = 0; i < warm_extra; ++i) {
    push_blocking(replay_slot(feed, i));
  }
  const std::uint64_t warm_total = feed.history.size() + warm_extra;
  while (sink->delivered() < warm_total) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  nrs::alloc::reset();
  const auto bench_start = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < n_slots; ++i) {
    push_blocking(replay_slot(feed, i));
  }
  while (sink->delivered() < warm_total + n_slots) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto bench_end = std::chrono::steady_clock::now();
  const auto totals = nrs::alloc::totals();

  PhaseStats stats;
  const double elapsed_s =
      std::chrono::duration<double>(bench_end - bench_start).count();
  stats.slots_per_sec = n_slots / std::max(elapsed_s, 1e-9);
  stats.allocs_per_slot = static_cast<double>(totals.allocs) / n_slots;
  stats.frees_per_slot = static_cast<double>(totals.frees) / n_slots;
  stats.bytes_per_slot = static_cast<double>(totals.bytes) / n_slots;
  return stats;
}

void print_phase(const char* name, const PhaseStats& s, bool latency) {
  std::printf("%-10s %12.0f slots/s", name, s.slots_per_sec);
  if (latency) {
    std::printf("   p50 %7.1f us   p99 %7.1f us", s.p50_us, s.p99_us);
  }
  std::printf("   %8.2f allocs/slot   %10.0f B/slot\n", s.allocs_per_slot,
              s.bytes_per_slot);
}

int run(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool assert_zero_alloc = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--assert-zero-alloc") == 0) {
      assert_zero_alloc = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--quick] [--json]"
                   " [--assert-zero-alloc]\n");
      return 2;
    }
  }
  const unsigned n_slots = quick ? 400 : 4000;

  print_header("Hotpath",
               "Steady-state slot throughput, latency and heap traffic");
  std::printf("(4 UEs, MSG2-assisted RACH, %u measured slots)\n\n",
              n_slots);
  const Feed feed = build_feed();
  const PhaseStats engine = run_engine(feed, n_slots);
  print_phase("engine", engine, true);
  const PhaseStats pipeline = run_pipeline(feed, n_slots);
  print_phase("pipeline", pipeline, false);

  if (json) {
    std::ofstream out("BENCH_hotpath.json");
    out << "{\n  \"slots\": " << n_slots << ",\n  \"engine\": {\n"
        << "    \"slots_per_sec\": " << engine.slots_per_sec << ",\n"
        << "    \"latency_p50_us\": " << engine.p50_us << ",\n"
        << "    \"latency_p99_us\": " << engine.p99_us << ",\n"
        << "    \"allocs_per_slot\": " << engine.allocs_per_slot << ",\n"
        << "    \"frees_per_slot\": " << engine.frees_per_slot << ",\n"
        << "    \"bytes_per_slot\": " << engine.bytes_per_slot << "\n"
        << "  },\n  \"pipeline\": {\n"
        << "    \"slots_per_sec\": " << pipeline.slots_per_sec << ",\n"
        << "    \"allocs_per_slot\": " << pipeline.allocs_per_slot << ",\n"
        << "    \"frees_per_slot\": " << pipeline.frees_per_slot << ",\n"
        << "    \"bytes_per_slot\": " << pipeline.bytes_per_slot << "\n"
        << "  }\n}\n";
    std::printf("\nwrote BENCH_hotpath.json\n");
  }
  if (assert_zero_alloc &&
      (engine.allocs_per_slot != 0.0 || pipeline.allocs_per_slot != 0.0)) {
    std::fprintf(stderr,
                 "FAIL: steady state touched the heap (engine %.2f, "
                 "pipeline %.2f allocs/slot)\n",
                 engine.allocs_per_slot, pipeline.allocs_per_slot);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nrs::bench

int main(int argc, char** argv) { return nrs::bench::run(argc, argv); }
