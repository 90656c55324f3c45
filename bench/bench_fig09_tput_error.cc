// Reproduces paper Fig. 9: CCDF of the per-UE downlink throughput
// estimation error.
//  (a) Mosolab cell, 1-4 UEs, ground truth = tcpdump (UE packet trace)
//  (b) Amarisoft cell, 8-64 UEs, ground truth = gNB log
//  (c) T-Mobile cells, one UE, indoor / outdoor / moving
// Paper: median 1.01 kbps (Onramp), 0 kbps (Amarisoft), 42.56 kbps
// (T-Mobile); overall error under 0.9% of the mean bit rate.
#include <cstdio>

#include "bench/bench_util.h"

namespace nrs::bench {
namespace {

constexpr std::uint64_t kWindow = 600;  // 0.3 s at 0.5 ms TTI
constexpr unsigned kStride = 50;

void run_mosolab() {
  print_header("Fig. 9a", "Throughput error, Mosolab cell (vs tcpdump)");
  for (unsigned n_ues : {1u, 2u, 3u, 4u}) {
    RunConfig cfg;
    cfg.cell = mosolab_cell();
    cfg.sniffer_snr_db = 24.0;
    cfg.sniffer_profile = ChannelProfile::kPedestrian;
    cfg.n_slots = 6000;  // 3 s
    cfg.warmup_slots = 600;
    std::vector<UeConfig> ues;
    for (unsigned i = 0; i < n_ues; ++i) {
      ues.push_back(make_ue(i + 1, 24.0 - 2.0 * i, TrafficKind::kVideo,
                            4e6 / n_ues));
    }
    RunResult result = run_experiment(std::move(cfg), std::move(ues));
    SampleSet all;
    for (unsigned i = 0; i < n_ues; ++i) {
      const Rnti rnti = result.gnb->ue_rnti(result.ue_ids[i]);
      if (rnti == kInvalidRnti) {
        continue;
      }
      const SampleSet errs =
          tput_error_series(result, rnti, result.ue_ids[i], kWindow,
                            kStride, result.gnb->cell().scs);
      for (double v : errs.values()) {
        all.add(v);
      }
    }
    std::printf("\n[%u UEs] median err = %.2f kbps, p75 = %.2f kbps\n",
                n_ues, all.median() / 1e3, all.percentile(75) / 1e3);
    print_ccdf("tput err, " + std::to_string(n_ues) + " UEs (kbps)", all,
               "err (bps)");
  }
  std::printf("(paper: median 1.01 kbps, p75 2.33 kbps)\n");
}

void run_amarisoft() {
  print_header("Fig. 9b", "Throughput error, Amarisoft cell (vs gNB log)");
  for (unsigned n_ues : {8u, 16u, 32u, 64u}) {
    RunConfig cfg;
    cfg.cell = amarisoft_cell();
    cfg.sniffer_snr_db = 22.0;
    cfg.sniffer_profile = ChannelProfile::kPedestrian;
    cfg.n_slots = 3000;
    cfg.warmup_slots = 600;
    std::vector<UeConfig> ues;
    for (unsigned i = 0; i < n_ues; ++i) {
      ues.push_back(make_ue(i + 1, 26.0 - (i % 10), TrafficKind::kPoisson,
                            4e5));
    }
    RunResult result = run_experiment(std::move(cfg), std::move(ues));

    // Ground truth here is the gNB log (paper: "In the Amarisoft cell, we
    // extract the gNB's log as the ground truth"): windowed delivered TBS.
    SampleSet all;
    const double slot_s = slot_duration_s(result.gnb->cell().scs);
    const double window_s = static_cast<double>(kWindow) * slot_s;
    for (unsigned i = 0; i < n_ues; ++i) {
      const Rnti rnti = result.gnb->ue_rnti(result.ue_ids[i]);
      if (rnti == kInvalidRnti) {
        continue;
      }
      std::vector<double> est_bits(result.n_slots, 0.0);
      for (const auto& d : result.dcis) {
        if (d.rnti == rnti && is_downlink(d.dci.format) && !d.is_retx &&
            d.slot < result.n_slots) {
          est_bits[d.slot] += static_cast<double>(d.grant.tbs);
        }
      }
      for (std::uint64_t end = result.warmup_slots + kWindow;
           end < result.n_slots; end += kStride) {
        double est = 0.0;
        for (std::uint64_t s = end - kWindow; s < end; ++s) {
          est += est_bits[s];
        }
        const double truth = static_cast<double>(
            result.gnb->truth().scheduled_bits(rnti, end - kWindow, end));
        all.add(std::abs(est - truth) / window_s);
      }
    }
    std::printf("\n[%u UEs] median err = %.2f kbps, p95 = %.2f kbps\n",
                n_ues, all.median() / 1e3, all.percentile(95) / 1e3);
    print_ccdf("tput err, " + std::to_string(n_ues) + " UEs", all,
               "err (bps)");
  }
  std::printf("(paper: median 0 kbps, p95 35.86 kbps)\n");
}

void run_tmobile() {
  print_header("Fig. 9c", "Throughput error, T-Mobile cells, UE scenarios");
  struct Scenario {
    const char* name;
    CellConfig cell;
    ChannelProfile ue_profile;
    double ue_snr;
    double sniffer_snr;
  };
  const Scenario scenarios[] = {
      {"Indoor (1)", tmobile_cell1(), ChannelProfile::kPedestrian, 18.0,
       17.0},
      {"Outdoor (1)", tmobile_cell1(), ChannelProfile::kUrban, 22.0, 20.0},
      {"Moving (1)", tmobile_cell1(), ChannelProfile::kVehicle, 15.0, 18.0},
      {"Indoor (2)", tmobile_cell2(), ChannelProfile::kPedestrian, 18.0,
       17.0},
      {"Outdoor (2)", tmobile_cell2(), ChannelProfile::kUrban, 22.0, 20.0},
      {"Moving (2)", tmobile_cell2(), ChannelProfile::kVehicle, 15.0, 18.0},
  };
  for (const auto& s : scenarios) {
    RunConfig cfg;
    cfg.cell = s.cell;
    cfg.sniffer_snr_db = s.sniffer_snr;
    cfg.sniffer_profile = ChannelProfile::kPedestrian;
    cfg.n_slots = 3000;  // 15 kHz SCS -> 3 s
    cfg.warmup_slots = 400;
    std::vector<UeConfig> ues;
    ues.push_back(
        make_ue(1, s.ue_snr, TrafficKind::kVideo, 5e6, s.ue_profile));
    RunResult result = run_experiment(std::move(cfg), std::move(ues));
    const Rnti rnti = result.gnb->ue_rnti(result.ue_ids[0]);
    if (rnti == kInvalidRnti) {
      std::printf("%-12s UE failed to attach\n", s.name);
      continue;
    }
    const SampleSet errs =
        tput_error_series(result, rnti, result.ue_ids[0], kWindow / 2,
                          kStride, result.gnb->cell().scs);
    std::printf("%-12s median err = %8.2f kbps, p95 = %8.2f kbps\n", s.name,
                errs.median() / 1e3, errs.percentile(95) / 1e3);
  }
  std::printf("(paper: median 42.56 kbps across T-Mobile scenarios)\n");
}

}  // namespace
}  // namespace nrs::bench

int main() {
  nrs::bench::run_mosolab();
  nrs::bench::run_amarisoft();
  nrs::bench::run_tmobile();
  return 0;
}
