// Offline IQ replay (paper section 4: the worker-pool design enables
// "asynchronous, on-demand slot data processing" when real-time output is
// not needed).  Record 2 seconds of IQ from the virtual radio — like a
// USRP capture to disk — then post-process it through the asynchronous
// Fig. 4 pipeline (feed queue + engine thread + a counting sink) faster
// than real time.  The capture is fed to the recorder as a raw sample
// stream (IqRecorder::append) and is cut short mid-slot — the way a real
// SDR capture dies when the disk fills or the process is killed — so
// finalize() demonstrates the truncated-tail handling: the partial slot
// is dropped and counted instead of replaying garbage.
//
// Run:  ./build/examples/offline_replay
#include <chrono>
#include <cstdio>
#include <span>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/pipeline.h"
#include "nrscope/slot_sink.h"
#include "radio/virtual_radio.h"

namespace {

/// Counts replayed slots and decoded DCIs on the collector thread; read
/// the totals after NrScopePipeline::stop().
class ReplayCounter : public nrs::SlotSink {
 public:
  void on_slot(const nrs::SlotResult& result) override {
    ++slots;
    dcis += result.dcis.size();
  }

  std::uint64_t slots = 0;
  std::uint64_t dcis = 0;
};

}  // namespace

int main() {
  using namespace nrs;

  // ---- Phase 1: record.
  GnbConfig gnb_config;
  gnb_config.cell = amarisoft_cell();
  gnb_config.seed = 21;
  GnbSim gnb(std::move(gnb_config));
  for (unsigned i = 0; i < 6; ++i) {
    UeConfig ue;
    ue.channel.snr_db = 20.0 + i;
    ue.dl_traffic = std::make_unique<CbrSource>(1e6);
    ue.ul_traffic = std::make_unique<CbrSource>(3e5);
    ue.seed = i + 1;
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb.cell().n_prb;
  radio_config.channel.snr_db = 24.0;
  // Exercise the resampling path (TwinRX-style off-nominal capture rate).
  radio_config.capture_rate_ratio = 1.0;
  VirtualRadio radio(radio_config);

  IqRecorder recorder;
  constexpr unsigned kSlots = 4000;  // 2 s at 0.5 ms TTI
  const std::size_t slot_len = radio.ofdm_config().samples_per_slot();
  for (unsigned i = 0; i < kSlots; ++i) {
    // Stream-style recording: the recorder cuts whole slots out of the
    // raw sample flow (a real capture has no slot framing).
    recorder.append(radio.capture(gnb.step()), slot_len);
  }
  // The capture dies a third of the way into one more slot.
  const IqBuffer interrupted = radio.capture(gnb.step());
  recorder.append(std::span<const cf32>(interrupted).first(slot_len / 3),
                  slot_len);
  const std::size_t tail = recorder.finalize();
  const double mb = kSlots * static_cast<double>(slot_len) * sizeof(cf32) /
                    1e6;
  std::printf("recorded %zu slots (%.0f MB of IQ); capture interrupted: "
              "dropped a %zu-sample truncated tail (%llu partial slots)\n",
              recorder.n_slots(), mb, tail,
              static_cast<unsigned long long>(recorder.truncated_slots()));

  // ---- Phase 2: replay through the asynchronous pipeline.
  NrScopeConfig scope_config;
  scope_config.n_prb = gnb.cell().n_prb;
  scope_config.scs = gnb.cell().scs;
  NrScopePipeline pipeline(scope_config);
  auto counter = std::make_shared<ReplayCounter>();
  pipeline.add_sink("counter", counter);

  const auto start = std::chrono::steady_clock::now();
  // A recording can wait, so replay closed loop: no slot is dropped.
  for (std::size_t i = 0; i < recorder.n_slots(); ++i) {
    const IqBuffer& slot = recorder.slot(i);
    auto samples = pipeline.acquire_samples();
    samples->assign(slot.begin(), slot.end());
    pipeline.push_slot_wait(std::move(samples));
  }
  pipeline.stop();  // drains every queued slot through the sink
  const std::uint64_t slots_done = counter->slots;
  const std::uint64_t dcis = counter->dcis;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double air = kSlots * slot_duration_s(gnb.cell().scs);

  std::printf("replayed %lu slots, %lu DCIs decoded\n",
              static_cast<unsigned long>(slots_done),
              static_cast<unsigned long>(dcis));
  std::printf("air time %.2f s processed in %.2f s (%.1fx real time)\n",
              air, wall, air / wall);
  for (const auto& [rnti, telem] : pipeline.engine().telemetry().ues()) {
    std::printf("  UE 0x%04x: %lu DL / %lu UL DCIs, %.2f Mbit/s\n", rnti,
                static_cast<unsigned long>(telem.dl_dcis()),
                static_cast<unsigned long>(telem.ul_dcis()),
                telem.dl_rate_bps(slots_done,
                                  slot_duration_s(gnb.cell().scs)) /
                    1e6);
  }
  return 0;
}
