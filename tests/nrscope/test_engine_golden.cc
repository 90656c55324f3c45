// Golden SlotResult streams of the tracking engine.  Fixed, seeded cells
// run through NrScope::process_slot; every SlotResult field except the
// wall-clock processing time, plus the final tracked-UE list, is folded
// field by field into one FNV-1a 64 digest.  The pinned digest and DCI
// count catch any change to what the engine decodes, however small.  One
// case also scripts a fault storm, so the pins cover resync, the PCI-change
// flush and a second SIB1 wait as well as steady tracking.  The engine
// demodulates only the OFDM symbols it reads; the pins show that this
// changes no decoded bit, and EngineDemod pins the FFT count they cannot
// show; EngineTiming pins when the per-step timing histograms observe.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "nrscope/nrscope.h"
#include "radio/virtual_radio.h"

namespace nrs {
namespace {

/// FNV-1a 64 over a sequence of scalars, each folded as its value widened
/// to 64 bits in little-endian byte order (independent of struct layout
/// and padding).
class Fnv1a64 {
 public:
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void add(T value) {
    fold(static_cast<std::uint64_t>(value));
  }
  void add(double value) { fold(std::bit_cast<std::uint64_t>(value)); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }

  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

void fold(Fnv1a64& h, const Dci& d) {
  h.add(d.format);
  h.add(d.freq_alloc_riv);
  h.add(d.time_alloc);
  h.add(d.mcs);
  h.add(d.ndi);
  h.add(d.rv);
  h.add(d.harq_id);
  h.add(d.dai);
  h.add(d.tpc);
  h.add(d.pucch_resource);
  h.add(d.harq_feedback);
  h.add(d.ports);
  h.add(d.srs_request);
  h.add(d.dmrs_id);
}

void fold(Fnv1a64& h, const Grant& g) {
  h.add(g.rnti);
  h.add(g.format);
  h.add(g.prb_start);
  h.add(g.prb_len);
  h.add(g.start_symbol);
  h.add(g.n_symbols);
  h.add(g.mcs);
  h.add(g.modulation);
  h.add(g.code_rate);
  h.add(g.n_layers);
  h.add(g.tbs);
  h.add(g.ndi);
  h.add(g.rv);
  h.add(g.harq_id);
}

void fold(Fnv1a64& h, const DecodedDci& d) {
  h.add(d.slot);
  h.add(d.rnti);
  fold(h, d.dci);
  fold(h, d.grant);
  h.add(d.agg_level);
  h.add(d.cce_start);
  h.add(d.is_retx);
}

void fold(Fnv1a64& h, const RrcSetup& r) {
  h.add(r.ue_ss.ue_specific);
  h.add(r.ue_ss.agg_levels.size());
  for (unsigned level : r.ue_ss.agg_levels) {
    h.add(level);
  }
  h.add(r.ue_ss.candidates_per_level);
  h.add(r.dl_format);
  h.add(r.mcs_table);
  h.add(r.max_mimo_layers);
  h.add(r.n_harq_processes);
}

void fold(Fnv1a64& h, const NewUe& ue) {
  h.add(ue.c_rnti);
  h.add(ue.slot);
  fold(h, ue.config);
  h.add(ue.verified);
}

void fold(Fnv1a64& h, const Mib& m) {
  h.add(m.sfn);
  h.add(m.scs_common);
  h.add(m.coreset0_rb_start);
  h.add(m.coreset0_n_prb6);
  h.add(m.coreset0_duration);
  h.add(m.searchspace0);
  h.add(m.cell_barred);
}

/// Every field except processing_time_us (wall clock).
void fold(Fnv1a64& h, const SlotResult& r) {
  h.add(r.slot);
  h.add(r.dcis.size());
  for (const DecodedDci& d : r.dcis) {
    fold(h, d);
  }
  h.add(r.new_ues.size());
  for (const NewUe& ue : r.new_ues) {
    fold(h, ue);
  }
  h.add(r.mib.has_value());
  if (r.mib) {
    fold(h, *r.mib);
  }
  h.add(r.sib1_decoded);
  h.add(r.sync_state);
  h.add(r.degraded);
}

/// Faults and feeder actions of a scripted case.  The IQ faults run on the
/// radio's capture clock; the rest on the feed clock (captured slots).
struct FaultScript {
  std::array<FaultEvent, 3> radio_faults;
  std::uint64_t gap_at;       ///< declared gap, through note_stream_gap
  std::uint64_t gap_slots;
  std::uint64_t restart_at;   ///< the gNB restarts onto PCI + 7, no UEs
  std::uint64_t reattach_at;  ///< the case's UEs attach again
  // Engine settings the script runs under.
  RachTrackMode rach_mode;
  std::uint64_t empty_slot_limit;
};

struct GoldenCase {
  CellConfig (*cell)();
  unsigned n_ues;
  double ue_rate_bps;
  double sniffer_snr_db;
  ChannelProfile profile;  ///< UE links and the sniffer link alike
  std::uint64_t seed;
  // The pins.
  std::uint64_t hash;
  std::size_t n_dcis;
  unsigned n_slots = 1500;
  const FaultScript* script = nullptr;
};

/// The fleet's default cell: srsRAN, two 2 Mbps UEs, 28 dB AWGN sniffer.
constexpr GoldenCase kSrsranFleetCell{
    srsran_cell, 2, 2e6, 28.0, ChannelProfile::kAwgn, 101,
    0x9face3b993d6a0e2ull, 1871};
constexpr GoldenCase kAmarisoftAwgn{
    amarisoft_cell, 16, 1e6, 28.0, ChannelProfile::kAwgn, 202,
    0x5925264be8ee8ce6ull, 11391};
constexpr GoldenCase kAmarisoftPedestrian{
    amarisoft_cell, 16, 1e6, 28.0, ChannelProfile::kPedestrian, 202,
    0x6226b755c82e0ff1ull, 11457};
constexpr GoldenCase kSrsranLowSnr{
    srsran_cell, 8, 1e6, 12.0, ChannelProfile::kAwgn, 303,
    0x3eba9c614858974dull, 6414};

/// The fault script of Resilience.FaultStormRecoversWithoutProcessRestart:
/// a 37-slot declared gap, an outage, a 97 % sample gap and a 22.5 kHz
/// CFO step, then a gNB restart onto a new PCI and the UEs re-attaching.
constexpr FaultScript kStormScript{
    {{{FaultKind::kOutage, 700, 120, 35.0},
      {FaultKind::kSampleGap, 1100, 400, 0.97},
      {FaultKind::kCfoStep, 1800, 240, 22500.0}}},
    650,
    37,
    2400,
    2700,
    RachTrackMode::kMsg2Assisted,
    300};
constexpr GoldenCase kAmarisoftFaultStorm{
    amarisoft_cell, 3, 2e6, 28.0, ChannelProfile::kAwgn, 11,
    0x4e73c2796376f27bull, 4286, 3400, &kStormScript};

struct StreamDigest {
  std::uint64_t hash = 0;
  std::size_t n_dcis = 0;
  std::size_t n_known_ues = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t pci_changes = 0;
};

NrScopeConfig scope_config(const GoldenCase& c) {
  const CellConfig cell = c.cell();
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  if (c.script != nullptr) {
    cfg.rach.mode = c.script->rach_mode;
    cfg.sync.empty_slot_limit = c.script->empty_slot_limit;
  }
  return cfg;
}

/// Attach the case's UEs; `generation` gives re-attached UEs fresh seeds.
void add_ues(const GoldenCase& c, unsigned generation, GnbSim& gnb) {
  for (unsigned u = 0; u < c.n_ues; ++u) {
    const unsigned k = generation * c.n_ues + u;
    UeConfig ue;
    ue.id = k;
    ue.channel.profile = c.profile;
    ue.channel.snr_db = 18.0 + (u % 4);
    ue.channel.seed = c.seed * 1000 + k;
    ue.dl_traffic = std::make_unique<CbrSource>(c.ue_rate_bps);
    ue.ul_traffic = std::make_unique<CbrSource>(c.ue_rate_bps * 0.25);
    ue.seed = c.seed * 2000 + k;
    gnb.add_ue(std::move(ue));
  }
}

std::unique_ptr<GnbSim> make_gnb(const CellConfig& cell, std::uint64_t seed) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = cell;
  gnb_cfg.seed = seed;
  return std::make_unique<GnbSim>(std::move(gnb_cfg));
}

VirtualRadioConfig radio_config(const GoldenCase& c) {
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = c.cell().n_prb;
  radio_cfg.channel.profile = c.profile;
  radio_cfg.channel.snr_db = c.sniffer_snr_db;
  radio_cfg.channel.seed = c.seed * 3000;
  if (c.script != nullptr) {
    radio_cfg.faults.events.assign(c.script->radio_faults.begin(),
                                   c.script->radio_faults.end());
  }
  return radio_cfg;
}

StreamDigest run_case(const GoldenCase& c, const NrScopeConfig& scope_cfg) {
  const FaultScript* script = c.script;
  CellConfig cell = c.cell();
  auto gnb = make_gnb(cell, c.seed);
  add_ues(c, 0, *gnb);
  VirtualRadio radio(radio_config(c));
  NrScope scope(scope_cfg);

  Fnv1a64 h;
  StreamDigest digest;
  SlotResult result;
  for (unsigned slot = 0; slot < c.n_slots; ++slot) {
    if (script != nullptr && slot == script->gap_at) {
      // Air time the feeder lost, and says so (an SDR overflow report).
      for (std::uint64_t j = 0; j < script->gap_slots; ++j) {
        (void)gnb->step();
      }
      scope.note_stream_gap(script->gap_slots);
    }
    if (script != nullptr && slot == script->restart_at) {
      cell.pci = static_cast<std::uint16_t>((cell.pci + 7) % 1008);
      cell.coreset.shift = cell.pci;
      cell.coreset.n_id = cell.pci;
      gnb = make_gnb(cell, c.seed + 1);
    }
    if (script != nullptr && slot == script->reattach_at) {
      add_ues(c, 1, *gnb);
    }
    scope.process_slot(radio.capture(gnb->step()), result);
    fold(h, result);
    digest.n_dcis += result.dcis.size();
  }
  const std::vector<Rnti> known = scope.known_ues();
  h.add(known.size());
  for (Rnti rnti : known) {
    h.add(rnti);
  }
  digest.hash = h.value();
  digest.n_known_ues = known.size();
  digest.resyncs = scope.sync_monitor().resyncs();
  digest.pci_changes = scope.sync_monitor().pci_changes();
  return digest;
}

void expect_pins(const GoldenCase& c, const StreamDigest& d) {
  EXPECT_EQ(d.hash, c.hash) << std::hex << "0x" << d.hash;
  EXPECT_EQ(d.n_dcis, c.n_dcis);
  // A stream without tracked UEs would pin nothing worth pinning.
  EXPECT_EQ(d.n_known_ues, c.n_ues);
}

void expect_golden(const GoldenCase& c) {
  expect_pins(c, run_case(c, scope_config(c)));
}

TEST(EngineGolden, SrsranFleetCell) {
  expect_golden(kSrsranFleetCell);
}

TEST(EngineGolden, AmarisoftSixteenUesAwgn) {
  expect_golden(kAmarisoftAwgn);
}

TEST(EngineGolden, AmarisoftSixteenUesPedestrian) {
  expect_golden(kAmarisoftPedestrian);
}

TEST(EngineGolden, SrsranEightUesLowSnr) {
  expect_golden(kSrsranLowSnr);
}

TEST(EngineGolden, AmarisoftFaultStorm) {
  const StreamDigest d =
      run_case(kAmarisoftFaultStorm, scope_config(kAmarisoftFaultStorm));
  expect_pins(kAmarisoftFaultStorm, d);
  // The pin covers the recovery paths only if the storm reached them:
  // every fault resynced, and the restart flushed onto the new PCI.
  EXPECT_GE(d.resyncs, 4u);
  EXPECT_EQ(d.pci_changes, 1u);
}

TEST(EngineDemod, FftsOnlyTheSymbolsItReads) {
  // The fleet cell: two UEs that attach early and then only carry traffic.
  // MSG2-assisted RACH, because XOR mode also verifies noise recoveries
  // with a MSG4 PDSCH decode, which costs that grant's rows.
  const GoldenCase& c = kSrsranFleetCell;
  auto gnb = make_gnb(c.cell(), c.seed);
  add_ues(c, 0, *gnb);
  VirtualRadio radio(radio_config(c));
  NrScopeConfig cfg = scope_config(c);
  cfg.rach.mode = RachTrackMode::kMsg2Assisted;
  NrScope scope(cfg);
  const Counter& ffts =
      scope.metrics_registry().counter("nrscope.demod_symbols");
  const Counter& pdsch =
      scope.metrics_registry().counter("rach.pdsch_decodes");
  SlotResult result;

  // A search slot FFTs the SSB rows: PSS, PBCH and SSS.
  ASSERT_EQ(scope.state(), NrScope::State::kSearching);
  scope.process_slot(radio.capture(gnb->step()), result);
  EXPECT_EQ(ffts.value(), 4u);

  // Run past both RACHes, then watch a steady tracking window: every slot
  // FFTs the CORESET rows and nothing else (the SSB's PSS row lies inside
  // the CORESET, and no RAR, MSG4 or SIB1 PDSCH is decoded).
  for (unsigned slot = 1; slot < 700; ++slot) {
    scope.process_slot(radio.capture(gnb->step()), result);
  }
  ASSERT_EQ(scope.state(), NrScope::State::kTracking);
  ASSERT_EQ(scope.known_ues().size(), c.n_ues);
  const std::uint64_t coreset_rows = scope.cell().coreset.duration;
  const std::uint64_t pdsch_before = pdsch.value();
  for (unsigned slot = 0; slot < 600; ++slot) {
    const std::uint64_t before = ffts.value();
    scope.process_slot(radio.capture(gnb->step()), result);
    ASSERT_EQ(ffts.value() - before, coreset_rows) << "window slot " << slot;
  }
  EXPECT_EQ(pdsch.value(), pdsch_before) << "the window saw a RACH decode";
  const MetricsSnapshot snap = scope.metrics();
  const auto* demod_us = snap.find_histogram("nrscope.demod_us");
  ASSERT_NE(demod_us, nullptr);
  EXPECT_EQ(demod_us->count, 1300u) << "one observation per slot";
}

TEST(EngineTiming, RachScanIsObservedOncePerTrackingSlot) {
  // The CORESET estimate and the RACH scan run in every tracking slot and
  // in no other: their histograms count exactly the tracking slots, and
  // the search and SIB1 slots before the lock add nothing.
  const GoldenCase& c = kSrsranFleetCell;
  auto gnb = make_gnb(c.cell(), c.seed);
  add_ues(c, 0, *gnb);
  VirtualRadio radio(radio_config(c));
  NrScope scope(scope_config(c));
  SlotResult result;
  constexpr unsigned kSlots = 400;
  for (unsigned slot = 0; slot < kSlots; ++slot) {
    scope.process_slot(radio.capture(gnb->step()), result);
  }
  ASSERT_EQ(scope.state(), NrScope::State::kTracking);
  const MetricsSnapshot snap = scope.metrics();
  const std::uint64_t tracking = snap.counter_value("nrscope.slots_tracking");
  EXPECT_GT(tracking, 0u);
  EXPECT_LT(tracking, kSlots);
  const auto* estimate = snap.find_histogram("nrscope.pdcch_estimate_us");
  ASSERT_NE(estimate, nullptr);
  EXPECT_EQ(estimate->count, tracking);
  const auto* rach_scan = snap.find_histogram("nrscope.rach_scan_us");
  ASSERT_NE(rach_scan, nullptr);
  EXPECT_EQ(rach_scan->count, tracking);
  const auto* blind = snap.find_histogram("nrscope.blind_decode_us");
  ASSERT_NE(blind, nullptr);
  EXPECT_EQ(blind->count, tracking);
}

}  // namespace
}  // namespace nrs
