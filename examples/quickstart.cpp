// Quickstart: the smallest complete NR-Scope session.
//
// A simulated 5G SA cell (srsRAN-like, 20 MHz, 30 kHz SCS, TDD) serves one
// phone streaming video.  NR-Scope attaches passively through the virtual
// radio, finds the cell (PSS/SSS -> MIB -> SIB1), watches the phone's RACH
// to learn its C-RNTI, then prints live per-UE telemetry: throughput, MCS
// and retransmissions — everything the paper's Fig. 2/3 pipeline produces.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/log_writer.h"
#include "nrscope/nrscope.h"
#include "radio/virtual_radio.h"

int main() {
  using namespace nrs;

  // ---- The network under observation (normally not yours to control).
  GnbConfig gnb_config;
  gnb_config.cell = srsran_cell();
  gnb_config.seed = 1;
  GnbSim gnb(std::move(gnb_config));

  UeConfig phone;
  phone.channel.profile = ChannelProfile::kPedestrian;
  phone.channel.snr_db = 22.0;
  phone.dl_traffic = std::make_unique<VideoSource>(4e6, /*seed=*/7);
  phone.ul_traffic = std::make_unique<CbrSource>(5e5);
  gnb.add_ue(std::move(phone));

  // ---- The sniffer: a USRP-like virtual radio plus the NrScope engine.
  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb.cell().n_prb;
  radio_config.channel.profile = ChannelProfile::kPedestrian;
  radio_config.channel.snr_db = 21.0;
  VirtualRadio radio(radio_config);

  NrScopeConfig scope_config;
  scope_config.n_prb = gnb.cell().n_prb;
  scope_config.scs = gnb.cell().scs;
  NrScope scope(scope_config);

  TelemetryLogWriter log("quickstart_telemetry.csv");

  // ---- Observe 3 seconds of air time (6000 TTIs at 0.5 ms).
  std::printf("observing %s: %u PRB, %s SCS, PCI %u\n",
              gnb.cell().name.c_str(), gnb.cell().n_prb,
              to_string(gnb.cell().scs), gnb.cell().pci);
  SlotResult result;  // reused every slot
  for (unsigned slot = 0; slot < 6000; ++slot) {
    const ResourceGrid& grid = gnb.step();
    const IqBuffer samples = radio.capture(grid);
    scope.process_slot(samples, result);
    log.write(result);

    if (result.mib) {
      std::printf("[slot %5u] cell found: PCI %u, MIB sfn=%u\n", slot,
                  scope.pci(), result.mib->sfn);
    }
    if (result.sib1_decoded) {
      std::printf("[slot %5u] SIB1 decoded: CORESET %u PRBs, TDD %u/%u/%u\n",
                  slot, scope.cell().coreset.n_prb, scope.cell().tdd.period,
                  scope.cell().tdd.n_dl, scope.cell().tdd.n_ul);
    }
    for (const auto& ue : result.new_ues) {
      std::printf("[slot %5u] new UE: C-RNTI 0x%04x (%s)\n", slot,
                  ue.c_rnti, ue.verified ? "RRC Setup verified" : "cached");
    }
    if (slot > 0 && slot % 1000 == 0) {
      for (const auto& [rnti, telem] : scope.telemetry().ues()) {
        std::printf(
            "[slot %5u] UE 0x%04x: DL %6.2f Mbit/s (UL %5.2f), %lu DCIs, "
            "retx %.1f%%, spare %5.2f Mbit/s\n",
            slot, rnti,
            telem.dl_rate_bps(slot, scope.slot_duration()) / 1e6,
            telem.ul_rate_bps(slot, scope.slot_duration()) / 1e6,
            static_cast<unsigned long>(telem.dl_dcis()),
            100.0 * telem.retransmission_ratio(),
            scope.telemetry().spare_bps(rnti) / 1e6);
      }
    }
  }
  std::printf("done; per-DCI log in quickstart_telemetry.csv\n");
  return 0;
}
