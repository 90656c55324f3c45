// Reproduces paper Fig. 16(d) / Appendix D: packet aggregation in the RAN.
// Comparing per-TTI TBS against application packet sizes shows how many
// packets the gNB aggregates into one TTI — with spare capacity the RAN
// drains bursts in few TTIs (high aggregation); under competition each UE
// gets fewer REs per TTI so packets spread out.
#include <cstdio>

#include "bench/bench_util.h"

namespace nrs::bench {
namespace {

SampleSet packets_per_tti(unsigned n_competitors) {
  RunConfig cfg;
  cfg.cell = mosolab_cell();
  cfg.sniffer_snr_db = 26.0;
  cfg.n_slots = 5000;
  cfg.warmup_slots = 500;
  std::vector<UeConfig> ues;
  // Observed UE: bursty video traffic with distinct packets.
  ues.push_back(make_ue(1, 24.0, TrafficKind::kVideo, 5e6));
  // Competitors keep the cell busy so the observed UE loses spare REs.
  for (unsigned i = 0; i < n_competitors; ++i) {
    ues.push_back(make_ue(10 + i, 22.0, TrafficKind::kFullBuffer, 0.0));
  }
  RunResult result = run_experiment(std::move(cfg), std::move(ues));
  SampleSet packets;
  const UeEmulator* ue = result.gnb->ue(result.ue_ids[0]);
  if (ue != nullptr) {
    for (const auto& e : ue->trace().entries()) {
      if (e.slot >= cfg.warmup_slots) {
        packets.add(static_cast<double>(e.packets));
      }
    }
  }
  return packets;
}

}  // namespace
}  // namespace nrs::bench

int main() {
  using namespace nrs::bench;
  using namespace nrs;
  print_header("Fig. 16d", "Packets aggregated per TTI");
  const SampleSet spare = packets_per_tti(0);
  const SampleSet competition = packets_per_tti(3);
  std::printf("\nSpare cell:       mean %.2f packets/TTI, p90 %.1f\n",
              spare.mean(), spare.percentile(90));
  std::printf("With competition: mean %.2f packets/TTI, p90 %.1f\n",
              competition.mean(), competition.percentile(90));
  print_cdf("Spare", spare, "packets/TTI", 8);
  print_cdf("With competition", competition, "packets/TTI", 8);
  std::printf("(paper: aggregation shifts left under competition)\n");
  return 0;
}
