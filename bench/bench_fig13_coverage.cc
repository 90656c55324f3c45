// Reproduces paper Fig. 13: DCI miss rate across sniffer locations on the
// floor (64 UEs in the Amarisoft cell).  Each location maps to a sniffer
// SNR via log-distance path loss; the paper observes near-zero miss rates
// that rise where the received signal quality degrades.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

namespace nrs::bench {
namespace {

/// Log-distance path loss: SNR at 1 m is `snr0`; exponent 2.2 (indoor).
double snr_at(double snr0_db, double distance_m) {
  return snr0_db - 10.0 * 2.2 * std::log10(std::max(1.0, distance_m));
}

}  // namespace
}  // namespace nrs::bench

int main() {
  using namespace nrs::bench;
  using namespace nrs;
  print_header("Fig. 13", "DCI miss rate across the floor (16 UEs)");
  // gNB at a corner of a 10 m x 7 m floor (paper Fig. 13 layout); sniffer
  // at a 3x3 grid of locations.
  constexpr double kGnbX = 0.0;
  constexpr double kGnbY = 0.0;
  constexpr double kSnr0 = 38.0;
  std::printf("%10s %10s %10s %12s %12s\n", "x (m)", "y (m)", "SNR (dB)",
              "DL miss %", "UL miss %");
  for (double y : {1.0, 3.5, 6.0}) {
    for (double x : {1.0, 5.0, 9.0}) {
      const double d = std::hypot(x - kGnbX, y - kGnbY);
      const double snr = snr_at(kSnr0, d);
      RunConfig cfg;
      cfg.cell = amarisoft_cell();
      cfg.sniffer_snr_db = snr;
      cfg.sniffer_profile = ChannelProfile::kPedestrian;
      cfg.n_slots = 1200;
      cfg.warmup_slots = 400;
      std::vector<UeConfig> ues;
      for (unsigned i = 0; i < 16; ++i) {
        ues.push_back(make_ue(i + 1, 26.0 - (i % 10), TrafficKind::kPoisson,
                              5e5));
      }
      const RunResult result = run_experiment(std::move(cfg), std::move(ues));
      const MissRateReport report = result.miss_rate();
      std::printf("%10.1f %10.1f %10.1f %12.2f %12.2f\n", x, y, snr,
                  100.0 * report.dl_miss_rate(),
                  100.0 * report.ul_miss_rate());
    }
  }
  std::printf("(paper: near-zero miss rate, up to a few %% at the far "
              "corners)\n");
  return 0;
}
