// Ablation: the sliding-window length behind NR-Scope's throughput
// estimate (paper section 3.2.2 "maintaining a sliding window to calculate
// the bit rate").  Short windows react fast but are noisy; long windows
// smooth but lag bursty traffic.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace nrs::bench;
  using namespace nrs;
  print_header("Ablation", "Throughput sliding-window length");

  RunConfig cfg;
  cfg.cell = mosolab_cell();
  cfg.sniffer_snr_db = 26.0;
  cfg.n_slots = 9000;
  cfg.warmup_slots = 600;
  std::vector<UeConfig> ues;
  ues.push_back(make_ue(1, 24.0, TrafficKind::kVideo, 5e6));
  RunResult result = run_experiment(std::move(cfg), std::move(ues));
  const Rnti rnti = result.gnb->ue_rnti(result.ue_ids[0]);
  if (rnti == kInvalidRnti) {
    std::printf("UE failed to attach\n");
    return 1;
  }
  std::printf("%14s %14s %14s %14s\n", "window (ms)", "median err",
              "p95 err (kbps)", "samples");
  for (std::uint64_t window : {100u, 200u, 400u, 800u, 1600u, 3200u}) {
    const SampleSet errs = tput_error_series(
        result, rnti, result.ue_ids[0], window, 50,
        result.gnb->cell().scs);
    std::printf("%14.0f %14.2f %14.2f %14zu\n",
                window * slot_duration_s(result.gnb->cell().scs) * 1e3,
                errs.median() / 1e3, errs.percentile(95) / 1e3,
                errs.size());
  }
  std::printf("(short windows expose per-burst noise; long windows hide "
              "rate changes; the estimates elsewhere use ~0.3-0.5 s)\n");
  return 0;
}
