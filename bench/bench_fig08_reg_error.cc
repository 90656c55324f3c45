// Reproduces paper Fig. 8: CCDF of the REG-count estimation error per TTI
// against the gNB's ground truth.  Paper result: 0.77 REG average error,
// zero error in > 99% of TTIs, tail out to several hundred REGs (one
// missed grant's worth).
#include <cstdio>

#include "bench/bench_util.h"

namespace nrs::bench {
namespace {

void run_network(const char* figure, const CellConfig& cell,
                 const std::vector<unsigned>& ue_counts, TrafficKind kind,
                 double rate_bps, unsigned n_slots) {
  print_header(figure, std::string("REG decode error per TTI, ") +
                           cell.name);
  for (unsigned n_ues : ue_counts) {
    RunConfig cfg;
    cfg.cell = cell;
    cfg.sniffer_snr_db = 26.0;
    cfg.sniffer_profile = ChannelProfile::kPedestrian;
    cfg.n_slots = n_slots;
    cfg.warmup_slots = 400;
    std::vector<UeConfig> ues;
    for (unsigned i = 0; i < n_ues; ++i) {
      ues.push_back(make_ue(i + 1, 25.0 - (i % 10), kind,
                            rate_bps / n_ues));
    }
    const RunResult result = run_experiment(std::move(cfg), std::move(ues));
    const SampleSet errors = result.reg_errors();
    std::printf("\n[%u UEs] mean REG error = %.3f / TTI, zero-error TTIs = "
                "%.2f%%\n",
                n_ues, errors.mean(), 100.0 * errors.cdf(0.5));
    print_ccdf("REG error, " + std::to_string(n_ues) + " UEs", errors,
               "REG count err");
  }
  std::printf("(paper: 0.77 REGs average error; >99%% of TTIs exact)\n");
}

}  // namespace
}  // namespace nrs::bench

int main() {
  using namespace nrs::bench;
  run_network("Fig. 8a", nrs::srsran_cell(), {1, 2, 3, 4},
              TrafficKind::kCbr, 4e6, 2000);
  run_network("Fig. 8b", nrs::amarisoft_cell(), {8, 16, 32, 64},
              TrafficKind::kPoisson, 6e6, 1200);
  return 0;
}
