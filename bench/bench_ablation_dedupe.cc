// Ablation: the paper's per-UE DCI decode loop (cost O(m) in the UE count,
// Fig. 12) vs. the engine's shared-candidate decode.  The polar decode of a
// PDCCH candidate does not depend on the RNTI (only the CRC mask does), so
// the engine estimates the CORESET once per slot, channel-decodes each
// (level, CCE) location once and compares every tracked RNTI with the one
// its CRC names.  Candidate locations
// saturate with the CORESET size, so its decode cost flattens out as UEs
// grow.  The per-UE loop lives here, as the paper's reference: both sides
// process the same pre-captured slots for the same tracked UEs.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "nr/grant.h"
#include "phy/ofdm.h"

namespace nrs::bench {
namespace {

/// The paper's per-UE blind decode (section 3.2.1): with a UE's C-RNTI and
/// RRC-learned search-space / format parameters, try every PDCCH candidate
/// it monitors and keep the ones whose CRC names its RNTI.  Each UE and
/// level estimates the CORESET afresh, as a per-UE decoder would.
/// Decoded DCIs are appended to `out`; all buffers live in `scratch`.
void decode_ue_dcis(const ResourceGrid& grid, const SlotPoint& slot,
                    std::uint64_t slot_index, const CellConfig& cell,
                    const UeSearchContext& ue, PdcchScratch& scratch,
                    std::vector<DecodedDci>& out) {
  // The size-aligned pair hint: 1_1 resolves 0_1 too via the format bit.
  const DciFormat hint = ue.config.dl_format == DciFormat::kDl1_1
                             ? DciFormat::kDl1_1
                             : DciFormat::kDl1_0;
  const unsigned payload_bits = dci_payload_size(hint, cell.n_prb);
  const unsigned k_bits = payload_bits + kCrc24C.length();
  for (unsigned level : ue.config.ue_ss.agg_levels) {
    pdcch_candidates(cell.coreset, ue.config.ue_ss, level, slot, ue.rnti,
                     scratch.cand_cces);
    // One batch channel-decodes every candidate of this level; only the
    // RNTI compare is per candidate.
    auto& locs = scratch.cand_locs;
    locs.clear();
    for (unsigned cce : scratch.cand_cces) {
      locs.push_back({level, cce});
    }
    const PdcchEstimate& estimate =
        estimate_coreset(cell.coreset, slot, grid, scratch);
    if (decode_pdcch_batch(cell.coreset, locs, payload_bits, slot, estimate,
                           scratch) == 0) {
      continue;
    }
    const auto& b = scratch.batch;
    for (std::size_t j = 0; j < locs.size(); ++j) {
      if (b.rnti[j] != ue.rnti) {
        continue;
      }
      DecodedDci dci;
      dci.slot = slot_index;
      dci.rnti = ue.rnti;
      dci.dci = Dci::unpack(hint, cell.n_prb,
                            std::span<const std::uint8_t>(
                                b.bits.data() + j * k_bits, payload_bits));
      dci.grant = translate_dci(dci.dci, ue.rnti, cell.n_prb, cell.pdsch,
                                ue.config.mcs_table,
                                ue.config.max_mimo_layers);
      dci.agg_level = level;
      dci.cce_start = locs[j].cce_start;
      out.push_back(dci);
    }
  }
}

/// Mean cost per slot, whole slot and blind decoding alone.  The engine's
/// slot also scans the RACH and updates telemetry, which the reference
/// skips, so the decode-only pair is the like-for-like comparison.
struct SlotCost {
  double per_ue_us = 0.0;         ///< demodulation + the per-UE loop
  double engine_us = 0.0;         ///< NrScope::process_slot
  double per_ue_decode_us = 0.0;  ///< the per-UE loop alone
  /// The engine's nrscope.blind_decode_us plus its CORESET estimate
  /// (nrscope.pdcch_estimate_us), which the reference pays per UE.
  double engine_decode_us = 0.0;
};

/// (count, sum) of the engine's blind-decode histogram, with the sum of
/// its CORESET-estimate histogram (one observation each per tracking
/// slot) added in.
std::pair<std::uint64_t, double> blind_decode_totals(const NrScope& scope) {
  const MetricsSnapshot snap = scope.metrics();
  const HistogramSnapshot* h = snap.find_histogram("nrscope.blind_decode_us");
  const HistogramSnapshot* e =
      snap.find_histogram("nrscope.pdcch_estimate_us");
  if (h == nullptr || e == nullptr) {
    return {0, 0.0};
  }
  return {h->count, h->sum + e->sum};
}

SlotCost mean_slot_us(unsigned n_ues) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = amarisoft_cell();
  gnb_cfg.seed = 5;
  GnbSim gnb(std::move(gnb_cfg));
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.snr_db = 28.0;
  VirtualRadio radio(radio_cfg);
  NrScopeConfig scope_cfg;
  scope_cfg.n_prb = gnb.cell().n_prb;
  scope_cfg.scs = gnb.cell().scs;
  scope_cfg.ue_inactivity_slots = 1u << 30;
  NrScope scope(scope_cfg);

  for (unsigned i = 0; i < std::min(n_ues, 4u); ++i) {
    gnb.add_ue(make_ue(i + 1, 24.0, TrafficKind::kCbr, 2e6));
  }
  SlotResult result;
  for (unsigned i = 0;
       i < 400 && scope.state() != NrScope::State::kTracking; ++i) {
    scope.process_slot(radio.capture(gnb.step()), result);
  }
  for (unsigned i = 0; i < n_ues; ++i) {
    scope.add_ue(static_cast<Rnti>(0x5000 + i), RrcSetup{});
  }
  std::vector<IqBuffer> slots;
  for (unsigned i = 0; i < 20; ++i) {
    slots.push_back(radio.capture(gnb.step()));
  }

  // The reference tracks the engine's UEs.  The gNB hands every UE the
  // default RRC Setup, the same one the registered UEs carry.
  std::vector<UeSearchContext> ues;
  for (Rnti rnti : scope.known_ues()) {
    ues.push_back(UeSearchContext{rnti, RrcSetup{}});
  }
  OfdmDemodulator demod(make_ofdm_config(scope.cell().n_prb));
  ResourceGrid grid(scope.cell().n_prb);
  PdcchScratch scratch;
  std::vector<DecodedDci> dcis;
  const unsigned spf = slots_per_frame(scope.cell().scs);

  using Clock = std::chrono::steady_clock;
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  constexpr unsigned kReps = 60;
  SlotCost cost;
  const auto [count0, sum0] = blind_decode_totals(scope);
  for (unsigned rep = 0; rep < kReps; ++rep) {
    const auto& samples = slots[rep % slots.size()];
    const SlotPoint now{scope.cell().scs, 0, rep % spf};
    const auto t0 = Clock::now();
    demod.demodulate_into(samples, grid);
    const auto t1 = Clock::now();
    dcis.clear();
    for (const UeSearchContext& ue : ues) {
      decode_ue_dcis(grid, now, rep, scope.cell(), ue, scratch, dcis);
    }
    const auto t2 = Clock::now();
    scope.process_slot(samples, result);
    const auto t3 = Clock::now();
    cost.per_ue_us += us(t2 - t0);
    cost.per_ue_decode_us += us(t2 - t1);
    cost.engine_us += us(t3 - t2);
  }
  const auto [count1, sum1] = blind_decode_totals(scope);
  cost.per_ue_us /= kReps;
  cost.per_ue_decode_us /= kReps;
  cost.engine_us /= kReps;
  cost.engine_decode_us =
      count1 > count0 ? (sum1 - sum0) / static_cast<double>(count1 - count0)
                      : 0.0;
  return cost;
}

}  // namespace
}  // namespace nrs::bench

int main() {
  using namespace nrs::bench;
  print_header("Ablation",
               "Per-UE candidate decoding (paper) vs shared-candidate "
               "decode (engine)");
  std::printf("%6s | %14s %14s | %14s %14s %8s\n", "", "slot (us)", "",
              "decode (us)", "", "decode");
  std::printf("%6s | %14s %14s | %14s %14s %8s\n", "UEs", "per-UE",
              "engine", "per-UE", "engine", "speedup");
  for (unsigned n : {1u, 4u, 16u, 64u, 128u}) {
    const SlotCost cost = mean_slot_us(n);
    std::printf("%6u | %14.0f %14.0f | %14.0f %14.0f %7.2fx\n", n,
                cost.per_ue_us, cost.engine_us, cost.per_ue_decode_us,
                cost.engine_decode_us,
                cost.per_ue_decode_us / cost.engine_decode_us);
  }
  std::printf("(the shared decode flattens the paper's O(m) DCI cost once "
              "UE search spaces overlap)\n");
  return 0;
}
