#include "bench/bench_util.h"

#include <cstdio>

namespace nrs::bench {

UeConfig make_ue(unsigned seed, double snr_db, TrafficKind kind,
                 double rate_bps, ChannelProfile profile,
                 double ul_fraction) {
  UeConfig cfg;
  cfg.channel.profile = profile;
  cfg.channel.snr_db = snr_db;
  cfg.channel.seed = 5000 + seed;
  cfg.seed = seed;
  switch (kind) {
    case TrafficKind::kCbr:
      cfg.dl_traffic = std::make_unique<CbrSource>(rate_bps);
      break;
    case TrafficKind::kVideo:
      cfg.dl_traffic = std::make_unique<VideoSource>(rate_bps, seed * 3 + 1);
      break;
    case TrafficKind::kDownload:
      cfg.dl_traffic = std::make_unique<FileDownloadSource>(
          static_cast<std::size_t>(rate_bps / 8.0), 1.0, seed * 5 + 1);
      break;
    case TrafficKind::kPoisson:
      cfg.dl_traffic = std::make_unique<PoissonSource>(
          rate_bps / 8.0 / 1000.0, 1000, seed * 7 + 1);
      break;
    case TrafficKind::kFullBuffer:
      cfg.dl_traffic = std::make_unique<FullBufferSource>();
      break;
  }
  if (ul_fraction > 0.0) {
    cfg.ul_traffic = std::make_unique<CbrSource>(rate_bps * ul_fraction);
  }
  return cfg;
}

RunResult run_experiment(
    RunConfig config, std::vector<UeConfig> ues,
    const std::function<void(std::uint64_t, const SlotResult&)>& per_slot,
    bool keep_slot_results) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = config.cell;
  gnb_cfg.seed = config.seed;

  RunResult result;
  result.warmup_slots = config.warmup_slots;
  result.n_slots = config.n_slots;
  result.gnb = std::make_unique<GnbSim>(std::move(gnb_cfg));

  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = config.cell.n_prb;
  radio_cfg.channel.profile = config.sniffer_profile;
  radio_cfg.channel.snr_db = config.sniffer_snr_db;
  radio_cfg.channel.seed = config.seed * 31 + 1;
  VirtualRadio radio(radio_cfg);

  config.scope.n_prb = config.cell.n_prb;
  config.scope.scs = config.cell.scs;
  result.scope = std::make_unique<NrScope>(config.scope);

  for (auto& ue : ues) {
    result.ue_ids.push_back(result.gnb->add_ue(std::move(ue)));
  }

  SlotResult slot_result;
  for (unsigned i = 0; i < config.n_slots; ++i) {
    const ResourceGrid& grid = result.gnb->step();
    const IqBuffer samples = radio.capture(grid);
    result.scope->process_slot(samples, slot_result);
    result.dcis.insert(result.dcis.end(), slot_result.dcis.begin(),
                       slot_result.dcis.end());
    if (per_slot) {
      per_slot(i, slot_result);
    }
    if (keep_slot_results) {
      result.slot_results.push_back(slot_result);
    }
  }
  return result;
}

SampleSet tput_error_series(const RunResult& result, Rnti rnti,
                            unsigned ue_id, std::uint64_t window_slots,
                            unsigned stride_slots, Scs scs) {
  const double slot_s = slot_duration_s(scs);
  // Per-slot sniffer bits (new downlink data only, like the paper).
  std::vector<double> est_bits(result.n_slots, 0.0);
  for (const auto& d : result.dcis) {
    if (d.rnti == rnti && is_downlink(d.dci.format) && !d.is_retx &&
        d.slot < result.n_slots) {
      est_bits[d.slot] += static_cast<double>(d.grant.tbs);
    }
  }
  // Per-slot delivered application bytes from the UE's trace.
  std::vector<double> true_bits(result.n_slots, 0.0);
  const UeEmulator* ue = result.gnb->ue(ue_id);
  if (ue != nullptr) {
    for (const auto& e : ue->trace().entries()) {
      if (e.slot < result.n_slots) {
        true_bits[e.slot] += static_cast<double>(e.bytes) * 8.0;
      }
    }
  }
  SampleSet errors;
  const double window_s = static_cast<double>(window_slots) * slot_s;
  for (std::uint64_t end = result.warmup_slots + window_slots;
       end < result.n_slots; end += stride_slots) {
    double est = 0.0;
    double truth = 0.0;
    for (std::uint64_t s = end - window_slots; s < end; ++s) {
      est += est_bits[s];
      truth += true_bits[s];
    }
    errors.add(std::abs(est - truth) / window_s);
  }
  return errors;
}

void print_header(const std::string& figure, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("================================================================\n");
}

void print_ccdf(const std::string& label, const SampleSet& samples,
                const std::string& x_label, std::size_t points) {
  std::printf("-- CCDF: %s (n=%zu, median=%.3f, p95=%.3f)\n", label.c_str(),
              samples.size(), samples.median(), samples.percentile(95));
  const auto curve = ccdf_curve(samples, points);
  std::printf("   %14s  %10s\n", x_label.c_str(), "P[X>x]");
  for (const auto& p : curve) {
    std::printf("   %14.3f  %10.5f\n", p.x, p.y);
  }
}

void print_cdf(const std::string& label, const SampleSet& samples,
               const std::string& x_label, std::size_t points) {
  std::printf("-- CDF: %s (n=%zu, median=%.3f)\n", label.c_str(),
              samples.size(), samples.median());
  const auto curve = cdf_curve(samples, points);
  std::printf("   %14s  %10s\n", x_label.c_str(), "P[X<=x]");
  for (const auto& p : curve) {
    std::printf("   %14.3f  %10.5f\n", p.x, p.y);
  }
}

}  // namespace nrs::bench
