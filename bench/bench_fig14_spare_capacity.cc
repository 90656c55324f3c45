// Reproduces paper Fig. 14: spare-capacity estimation with two UEs in the
// Mosolab cell.  (a) per-UE bit rate: NR-Scope estimate vs. tcpdump, plus
// the fair-share spare rate; (b) used REs and fair-share spare REs per
// TTI.  The two UEs carry different MCS, so equal spare REs translate to
// different spare bit rates — the effect the paper highlights.
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace nrs::bench;
  using namespace nrs;
  print_header("Fig. 14", "Spare capacity estimation, 2 UEs, Mosolab cell");

  RunConfig cfg;
  cfg.cell = mosolab_cell();
  cfg.sniffer_snr_db = 26.0;
  cfg.n_slots = 8000;  // 4 s
  cfg.warmup_slots = 500;
  cfg.scope.keep_capacity_history = true;
  cfg.scope.rate_window_slots = 600;

  std::vector<UeConfig> ues;
  // UE 1: good link (high MCS); UE 2: weaker link (low MCS) — same REs
  // must yield different spare bit rates.
  ues.push_back(make_ue(1, 27.0, TrafficKind::kVideo, 8e6));
  ues.push_back(make_ue(2, 12.0, TrafficKind::kVideo, 4e6));
  RunResult result = run_experiment(std::move(cfg), std::move(ues));

  const Rnti rnti1 = result.gnb->ue_rnti(result.ue_ids[0]);
  const Rnti rnti2 = result.gnb->ue_rnti(result.ue_ids[1]);
  if (rnti1 == kInvalidRnti || rnti2 == kInvalidRnti) {
    std::printf("UEs failed to attach\n");
    return 1;
  }

  // (a) Time series of estimated vs. true vs. spare bit rate.
  const Scs scs = result.gnb->cell().scs;
  const double slot_s = slot_duration_s(scs);
  constexpr std::uint64_t kWindow = 600;
  std::printf("\n(a) Bit rate time series (Mbps), window %.2f s\n",
              kWindow * slot_s);
  std::printf("%8s | %8s %8s %8s | %8s %8s %8s\n", "t (s)", "UE1 est",
              "UE1 true", "UE1 spr", "UE2 est", "UE2 true", "UE2 spr");

  auto windowed = [&](const std::vector<double>& bits, std::uint64_t end) {
    double acc = 0.0;
    for (std::uint64_t s = end - kWindow; s < end; ++s) {
      acc += bits[s];
    }
    return acc / (kWindow * slot_s) / 1e6;
  };
  auto per_slot_bits = [&](Rnti rnti, bool from_trace, unsigned ue_id) {
    std::vector<double> bits(result.n_slots, 0.0);
    if (from_trace) {
      for (const auto& e : result.gnb->ue(ue_id)->trace().entries()) {
        if (e.slot < result.n_slots) {
          bits[e.slot] += e.bytes * 8.0;
        }
      }
    } else {
      for (const auto& d : result.dcis) {
        if (d.rnti == rnti && is_downlink(d.dci.format) && !d.is_retx &&
            d.slot < result.n_slots) {
          bits[d.slot] += d.grant.tbs;
        }
      }
    }
    return bits;
  };
  const auto est1 = per_slot_bits(rnti1, false, result.ue_ids[0]);
  const auto tru1 = per_slot_bits(rnti1, true, result.ue_ids[0]);
  const auto est2 = per_slot_bits(rnti2, false, result.ue_ids[1]);
  const auto tru2 = per_slot_bits(rnti2, true, result.ue_ids[1]);

  // Spare bps per UE from the sniffer's capacity history, averaged over
  // the same window.
  const auto& history = result.scope->telemetry().history();
  auto spare_series = [&](Rnti rnti) {
    std::vector<double> spare(result.n_slots, 0.0);
    for (const auto& cap : history) {
      const auto it = cap.spare_bps.find(rnti);
      if (it != cap.spare_bps.end() && cap.slot < result.n_slots) {
        spare[cap.slot] = it->second;
      }
    }
    return spare;
  };
  const auto spare1 = spare_series(rnti1);
  const auto spare2 = spare_series(rnti2);
  auto avg_window = [&](const std::vector<double>& v, std::uint64_t end) {
    double acc = 0.0;
    unsigned n = 0;
    for (std::uint64_t s = end - kWindow; s < end; ++s) {
      acc += v[s];
      ++n;
    }
    return acc / std::max(1u, n) / 1e6;
  };

  for (std::uint64_t end = cfg.warmup_slots + kWindow;
       end < result.n_slots; end += 400) {
    std::printf("%8.2f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
                end * slot_s, windowed(est1, end), windowed(tru1, end),
                avg_window(spare1, end), windowed(est2, end),
                windowed(tru2, end), avg_window(spare2, end));
  }

  // (b) Used and fair-share spare REs per TTI for a short excerpt.
  std::printf("\n(b) Per-TTI RE accounting (50 downlink TTIs)\n");
  std::printf("%8s %10s %10s %12s\n", "TTI", "UE1 REs", "UE2 REs",
              "spare/UE REs");
  unsigned printed = 0;
  for (const auto& cap : history) {
    if (cap.slot < cfg.warmup_slots || cap.data_res_total == 0) {
      continue;
    }
    const auto u1 = cap.used_res.count(rnti1) ? cap.used_res.at(rnti1) : 0u;
    const auto u2 = cap.used_res.count(rnti2) ? cap.used_res.at(rnti2) : 0u;
    const double spare_per_ue =
        cap.data_res_total > cap.data_res_used
            ? (cap.data_res_total - cap.data_res_used) / 2.0
            : 0.0;
    std::printf("%8lu %10u %10u %12.0f\n",
                static_cast<unsigned long>(cap.slot), u1, u2, spare_per_ue);
    if (++printed >= 50) {
      break;
    }
  }
  std::printf("(paper: estimate tracks just under tcpdump; equal spare REs "
              "but different spare bit rates per UE)\n");
  return 0;
}
