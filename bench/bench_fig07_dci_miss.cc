// Reproduces paper Fig. 7: DCI miss rate vs. number of UEs.
//  (a) srsRAN gNB with 1-4 phone-like UEs
//  (b) Amarisoft gNB with 8-64 emulated UEs
// Paper values: miss rates of 0.33% (DL) / 0.28% (UL) in srsRAN and
// 0.93% / 0.31% in the Amarisoft network — "two 9's of reliability".
#include <cstdio>

#include "bench/bench_util.h"

namespace nrs::bench {
namespace {

void run_srsran() {
  print_header("Fig. 7a", "DCI miss rate, srsRAN cell, phones as UEs");
  std::printf("%8s %12s %12s %12s %12s\n", "UEs", "DL truth", "UL truth",
              "DL miss %", "UL miss %");
  for (unsigned n_ues : {1u, 2u, 3u, 4u}) {
    RunConfig cfg;
    cfg.cell = srsran_cell();
    cfg.sniffer_snr_db = 27.0;
    cfg.sniffer_profile = ChannelProfile::kPedestrian;
    cfg.n_slots = 2400;  // 1.2 s of air time
    cfg.warmup_slots = 300;
    std::vector<UeConfig> ues;
    for (unsigned i = 0; i < n_ues; ++i) {
      ues.push_back(make_ue(i + 1, 24.0 - 2.0 * i, TrafficKind::kCbr,
                            3e6 / n_ues));
    }
    const RunResult result = run_experiment(std::move(cfg), std::move(ues));
    const MissRateReport report = result.miss_rate();
    std::printf("%8u %12lu %12lu %12.3f %12.3f\n", n_ues,
                static_cast<unsigned long>(report.dl_truth),
                static_cast<unsigned long>(report.ul_truth),
                100.0 * report.dl_miss_rate(),
                100.0 * report.ul_miss_rate());
  }
  std::printf("(paper: 0.33%% DL / 0.28%% UL average)\n");
}

void run_amarisoft() {
  print_header("Fig. 7b", "DCI miss rate, Amarisoft cell, emulated UEs");
  std::printf("%8s %12s %12s %12s %12s\n", "UEs", "DL truth", "UL truth",
              "DL miss %", "UL miss %");
  for (unsigned n_ues : {8u, 16u, 32u, 64u}) {
    RunConfig cfg;
    cfg.cell = amarisoft_cell();
    cfg.sniffer_snr_db = 26.0;
    cfg.sniffer_profile = ChannelProfile::kPedestrian;
    cfg.n_slots = 1500;
    cfg.warmup_slots = 500;  // many UEs take longer to RACH in
    std::vector<UeConfig> ues;
    for (unsigned i = 0; i < n_ues; ++i) {
      ues.push_back(make_ue(i + 1, 26.0 - (i % 12), TrafficKind::kPoisson,
                            4e5, ChannelProfile::kAwgn, 0.25));
    }
    const RunResult result = run_experiment(std::move(cfg), std::move(ues));
    const MissRateReport report = result.miss_rate();
    std::printf("%8u %12lu %12lu %12.3f %12.3f\n", n_ues,
                static_cast<unsigned long>(report.dl_truth),
                static_cast<unsigned long>(report.ul_truth),
                100.0 * report.dl_miss_rate(),
                100.0 * report.ul_miss_rate());
  }
  std::printf("(paper: 0.93%% DL / 0.31%% UL average)\n");
}

}  // namespace
}  // namespace nrs::bench

int main() {
  nrs::bench::run_srsran();
  nrs::bench::run_amarisoft();
  return 0;
}
