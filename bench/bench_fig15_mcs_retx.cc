// Reproduces paper Fig. 15: CDFs of MCS index and retransmission ratio for
// UEs under emulated Normal / AWGN / Pedestrian / Vehicle / Urban channels
// (Amarisoft cell).  Better channels get higher MCS and fewer
// retransmissions; the paper reports R^2 = 0.9970 (MCS) and 0.9862
// (retransmissions) between NR-Scope and ground truth.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"

int main() {
  using namespace nrs::bench;
  using namespace nrs;
  print_header("Fig. 15", "MCS and retransmission telemetry per channel");

  struct Scenario {
    const char* name;
    ChannelProfile profile;
    double snr_db;
  };
  const Scenario scenarios[] = {
      {"Normal", ChannelProfile::kAwgn, 30.0},
      {"AWGN", ChannelProfile::kAwgn, 24.0},
      {"Pedestrian", ChannelProfile::kPedestrian, 16.0},
      {"Vehicle", ChannelProfile::kVehicle, 13.0},
      {"Urban", ChannelProfile::kUrban, 11.0},
  };

  std::vector<double> truth_mcs_means;
  std::vector<double> est_mcs_means;
  std::vector<double> truth_retx;
  std::vector<double> est_retx;

  for (const auto& s : scenarios) {
    RunConfig cfg;
    cfg.cell = amarisoft_cell();
    cfg.sniffer_snr_db = 26.0;
    cfg.n_slots = 2500;
    cfg.warmup_slots = 600;
    std::vector<UeConfig> ues;
    for (unsigned i = 0; i < 16; ++i) {
      ues.push_back(make_ue(i + 1, s.snr_db + (i % 5) - 2.0,
                            TrafficKind::kCbr, 2.5e5, s.profile));
    }
    RunResult result = run_experiment(std::move(cfg), std::move(ues));

    // Sniffer-side MCS histogram and retransmission ratio.
    SampleSet est_mcs;
    std::uint64_t est_dcis = 0;
    std::uint64_t est_retx_count = 0;
    for (const auto& [rnti, telem] : result.scope->telemetry().ues()) {
      const auto& hist = telem.mcs_histogram();
      for (std::size_t mcs = 0; mcs < hist.size(); ++mcs) {
        est_mcs.add_count(static_cast<double>(mcs), hist[mcs]);
      }
      est_dcis += telem.harq().observed();
      est_retx_count += telem.harq().retransmissions();
    }
    // Ground truth from the gNB log.
    SampleSet truth_mcs;
    std::uint64_t truth_dcis = 0;
    std::uint64_t truth_retx_count = 0;
    for (const auto& slot : result.gnb->truth().slots()) {
      if (slot.slot < cfg.warmup_slots) {
        continue;
      }
      for (const auto& d : slot.dcis) {
        if (d.kind != DciKind::kData) {
          continue;
        }
        truth_mcs.add(static_cast<double>(d.dci.mcs));
        ++truth_dcis;
        truth_retx_count += d.is_retx;
      }
    }
    const double est_ratio =
        est_dcis ? 100.0 * est_retx_count / est_dcis : 0.0;
    const double truth_ratio =
        truth_dcis ? 100.0 * truth_retx_count / truth_dcis : 0.0;
    std::printf("\n%-11s est MCS median %5.1f (truth %5.1f) | est retx "
                "%5.2f%% (truth %5.2f%%)\n",
                s.name, est_mcs.median(), truth_mcs.median(), est_ratio,
                truth_ratio);
    print_cdf(std::string(s.name) + " MCS index", est_mcs, "MCS", 8);

    truth_mcs_means.push_back(truth_mcs.mean());
    est_mcs_means.push_back(est_mcs.mean());
    truth_retx.push_back(truth_ratio);
    est_retx.push_back(est_ratio);
  }

  std::printf("\nR^2 (MCS means across channels):  %.4f (paper 0.9970)\n",
              r_squared(truth_mcs_means, est_mcs_means));
  std::printf("R^2 (retransmission ratios):      %.4f (paper 0.9862)\n",
              r_squared(truth_retx, est_retx));
  return 0;
}
