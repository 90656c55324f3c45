// Golden SlotResult streams of the tracking engine.  Four fixed, seeded
// cells run through NrScope::process_slot; every SlotResult field except
// the wall-clock processing time, plus the final tracked-UE list, is
// folded field by field into one FNV-1a 64 digest.  The pinned digest and
// DCI count catch any change to what the engine decodes, however small.
#include <gtest/gtest.h>

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
};

constexpr unsigned kGoldenSlots = 1500;

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

struct StreamDigest {
  std::uint64_t hash = 0;
  std::size_t n_dcis = 0;
  std::size_t n_known_ues = 0;
};

NrScopeConfig scope_config(const GoldenCase& c) {
  const CellConfig cell = c.cell();
  NrScopeConfig cfg;
  cfg.n_prb = cell.n_prb;
  cfg.scs = cell.scs;
  return cfg;
}

StreamDigest run_case(const GoldenCase& c, const NrScopeConfig& scope_cfg) {
  GnbConfig gnb_cfg;
  gnb_cfg.cell = c.cell();
  gnb_cfg.seed = c.seed;
  GnbSim gnb(std::move(gnb_cfg));
  for (unsigned u = 0; u < c.n_ues; ++u) {
    UeConfig ue;
    ue.id = u;
    ue.channel.profile = c.profile;
    ue.channel.snr_db = 18.0 + (u % 4);
    ue.channel.seed = c.seed * 1000 + u;
    ue.dl_traffic = std::make_unique<CbrSource>(c.ue_rate_bps);
    ue.ul_traffic = std::make_unique<CbrSource>(c.ue_rate_bps * 0.25);
    ue.seed = c.seed * 2000 + u;
    gnb.add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_cfg;
  radio_cfg.n_prb = gnb.cell().n_prb;
  radio_cfg.channel.profile = c.profile;
  radio_cfg.channel.snr_db = c.sniffer_snr_db;
  radio_cfg.channel.seed = c.seed * 3000;
  VirtualRadio radio(radio_cfg);
  NrScope scope(scope_cfg);

  Fnv1a64 h;
  StreamDigest digest;
  SlotResult result;
  for (unsigned slot = 0; slot < kGoldenSlots; ++slot) {
    scope.process_slot(radio.capture(gnb.step()), result);
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

}  // namespace
}  // namespace nrs
