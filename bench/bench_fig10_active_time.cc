// Reproduces paper Fig. 10: CCDF of UE active time in the commercial
// T-Mobile cells, measured morning / afternoon / night.  Paper: 400-600
// distinct UEs per 10 minutes in cell 1, 100-200 in cell 2; 90% of UEs
// stay under 35 seconds ("come-and-go" pattern).
//
// The churn process runs at full 10-minute scale (it is analytic); a
// second, compressed-time pass pushes a churn sample through the full
// gNB -> radio -> sniffer stack to validate that NR-Scope's first-seen /
// last-seen telemetry reproduces the session durations.
#include <cstdio>

#include "bench/bench_util.h"
#include "ue/churn.h"

namespace nrs::bench {
namespace {

void run_analytic() {
  print_header("Fig. 10", "UE active time in T-Mobile cells (10 min)");
  struct TimeOfDay {
    const char* name;
    double rate_cell1;  // arrivals/s
    double rate_cell2;
  };
  const TimeOfDay times[] = {
      {"Morning", 0.75, 0.20},
      {"Afternoon", 1.00, 0.33},
      {"Night", 0.67, 0.17},
  };
  for (const auto& tod : times) {
    for (int cell = 1; cell <= 2; ++cell) {
      ChurnConfig cfg;
      cfg.arrival_rate_per_s = cell == 1 ? tod.rate_cell1 : tod.rate_cell2;
      cfg.duration_s = 600.0;
      cfg.seed = static_cast<std::uint64_t>(cell) * 100 +
                 (tod.name[0] == 'M' ? 1 : tod.name[0] == 'A' ? 2 : 3);
      const auto sessions = generate_churn(cfg);
      SampleSet dwell;
      for (const auto& s : sessions) {
        dwell.add(s.dwell_s());
      }
      std::printf("\n%s (cell %d): %zu distinct UEs, median dwell %.1f s, "
                  "90%% under %.1f s\n",
                  tod.name, cell, sessions.size(), dwell.median(),
                  dwell.percentile(90));
      print_ccdf(std::string(tod.name) + " (" + std::to_string(cell) + ")",
                 dwell, "active time (s)", 10);
    }
  }
  std::printf("(paper: 400-600 UEs in cell 1, 100-200 in cell 2; 90%% of "
              "UEs < 35 s)\n");
}

void run_sniffer_validation() {
  print_header("Fig. 10 validation",
               "NR-Scope-measured active time vs. churn truth (compressed)");
  // 20 s of compressed air time with short-dwell UEs arriving/leaving.
  ChurnConfig churn;
  churn.arrival_rate_per_s = 0.5;
  churn.short_dwell_mean_s = 2.0;
  churn.long_dwell_mean_s = 8.0;
  churn.duration_s = 20.0;
  churn.seed = 42;
  const auto sessions = generate_churn(churn);

  RunConfig cfg;
  cfg.cell = tmobile_cell1();
  cfg.sniffer_snr_db = 22.0;
  cfg.n_slots = static_cast<unsigned>(churn.duration_s /
                                      slot_duration_s(cfg.cell.scs));
  cfg.warmup_slots = 0;
  cfg.scope.ue_inactivity_slots = 2000;  // 2 s idle -> gone

  GnbConfig gnb_cfg;
  gnb_cfg.cell = cfg.cell;
  gnb_cfg.seed = 11;
  GnbSim gnb(std::move(gnb_cfg));
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = cfg.cell.n_prb;
  radio_cfg.channel.snr_db = cfg.sniffer_snr_db;
  VirtualRadio radio(radio_cfg);
  cfg.scope.n_prb = cfg.cell.n_prb;
  cfg.scope.scs = cfg.cell.scs;
  NrScope scope(cfg.scope);

  const double slot_s = slot_duration_s(cfg.cell.scs);
  std::size_t next_arrival = 0;
  std::vector<std::pair<double, unsigned>> departures;  // time, ue id
  SlotResult result;
  for (unsigned slot = 0; slot < cfg.n_slots; ++slot) {
    const double now = slot * slot_s;
    while (next_arrival < sessions.size() &&
           sessions[next_arrival].arrival_s <= now) {
      UeConfig ue = make_ue(static_cast<unsigned>(next_arrival) + 1, 22.0,
                            TrafficKind::kCbr, 1e6);
      const unsigned id = gnb.add_ue(std::move(ue));
      departures.emplace_back(sessions[next_arrival].departure_s, id);
      ++next_arrival;
    }
    for (auto& [t, id] : departures) {
      if (t > 0 && t <= now) {
        gnb.remove_ue(id);
        t = -1.0;
      }
    }
    const ResourceGrid& grid = gnb.step();
    const IqBuffer samples = radio.capture(grid);
    scope.process_slot(samples, result);
  }

  SampleSet measured;
  for (const auto& [rnti, telem] : scope.telemetry().ues()) {
    const double active =
        static_cast<double>(telem.last_slot() - telem.first_slot()) *
        slot_s;
    measured.add(active);
  }
  SampleSet truth;
  for (std::size_t i = 0; i < next_arrival; ++i) {
    truth.add(sessions[i].dwell_s());
  }
  std::printf("sessions started: %zu, sessions sniffed: %zu\n",
              static_cast<std::size_t>(next_arrival), measured.size());
  std::printf("median dwell: truth %.2f s vs sniffer %.2f s\n",
              truth.median(), measured.median());
}

}  // namespace
}  // namespace nrs::bench

int main() {
  nrs::bench::run_analytic();
  nrs::bench::run_sniffer_validation();
  return 0;
}
