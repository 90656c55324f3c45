// Reproduces paper Fig. 16(a-c): throughput estimation error CCDF for
// static / blocked / moving UEs in the Mosolab cell (Appendix C details of
// Fig. 9a).  "Blocked" is modelled as a static UE behind an obstruction
// (lower mean SNR, pedestrian fading); "moving" as vehicular fading.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace nrs::bench;
  using namespace nrs;
  struct Scenario {
    const char* name;
    ChannelProfile profile;
    double snr_db;
  };
  const Scenario scenarios[] = {
      {"Static", ChannelProfile::kAwgn, 24.0},
      {"Blocked", ChannelProfile::kPedestrian, 14.0},
      {"Moving", ChannelProfile::kVehicle, 17.0},
  };
  for (const auto& s : scenarios) {
    print_header(std::string("Fig. 16") +
                     (s.name[0] == 'S' ? "a" : s.name[0] == 'B' ? "b" : "c"),
                 std::string("Throughput error, ") + s.name +
                     " UEs, Mosolab cell");
    for (unsigned n_ues : {1u, 2u, 3u, 4u}) {
      RunConfig cfg;
      cfg.cell = mosolab_cell();
      cfg.sniffer_snr_db = 26.0;
      cfg.n_slots = 5000;
      cfg.warmup_slots = 600;
      std::vector<UeConfig> ues;
      for (unsigned i = 0; i < n_ues; ++i) {
        ues.push_back(make_ue(i + 1, s.snr_db - i, TrafficKind::kVideo,
                              4e6 / n_ues, s.profile));
      }
      RunResult result = run_experiment(std::move(cfg), std::move(ues));
      SampleSet all;
      for (unsigned i = 0; i < n_ues; ++i) {
        const Rnti rnti = result.gnb->ue_rnti(result.ue_ids[i]);
        if (rnti == kInvalidRnti) {
          continue;
        }
        const SampleSet errs =
            tput_error_series(result, rnti, result.ue_ids[i], 600, 50,
                              result.gnb->cell().scs);
        for (double v : errs.values()) {
          all.add(v);
        }
      }
      std::printf("[%s, %u UEs] median err %.2f kbps, p90 %.2f kbps\n",
                  s.name, n_ues, all.median() / 1e3,
                  all.percentile(90) / 1e3);
    }
  }
  std::printf("\n(paper Fig. 16a-c: errors from ~0.01 to ~100 kbps, "
              "heavier tails when blocked/moving)\n");
  return 0;
}
