#include "gnb/gnb_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nr/mib.h"
#include "nr/pdcch.h"
#include "nr/pdsch.h"
#include "nr/sib1.h"
#include "nr/tbs.h"

namespace nrs {
namespace {

/// Smallest PRB count whose TBS at (mcs, table) carries `bits`.
unsigned prbs_for_bits(unsigned bits, unsigned mcs, McsTable table,
                       const PdschConfig& pdsch, unsigned n_symbols,
                       unsigned n_prb_max) {
  const McsEntry entry = mcs_entry(table, mcs);
  for (unsigned n = 1; n <= n_prb_max; ++n) {
    TbsParams params;
    params.n_prb = n;
    params.n_symbols = n_symbols;
    params.dmrs_re_per_prb = pdsch.dmrs_re_per_prb;
    params.overhead_re = pdsch.xoverhead;
    params.code_rate = entry.code_rate();
    params.qm = entry.qm;
    if (calculate_tbs(params) >= bits) {
      return n;
    }
  }
  return n_prb_max;
}

/// Pick a TDRA row matching the backlog: small payloads get short
/// allocations, keeping REG counts diverse (paper Fig. 8's grants range
/// from a few to several hundred REGs).
std::uint8_t choose_tdra(std::size_t backlog_bytes) {
  if (backlog_bytes < 400) {
    return 3;  // 4 symbols
  }
  if (backlog_bytes < 4000) {
    return 2;  // 7 symbols
  }
  return 0;  // full slot, 12 symbols
}

/// Transmissions of one transport block before the gNB gives up on it,
/// and the redundancy version of each.
constexpr unsigned kMaxHarqTx = 4;
constexpr unsigned kRvSequence[kMaxHarqTx] = {0, 2, 3, 1};

}  // namespace

GnbSim::GnbSim(GnbConfig config)
    : config_(std::move(config)), clock_(config_.cell.scs),
      rng_(config_.seed), grid_(config_.cell.n_prb) {
  if (config_.cell.coreset.rb_start + config_.cell.coreset.n_prb >
      config_.cell.n_prb) {
    throw std::invalid_argument("GnbSim: CORESET exceeds the BWP");
  }
  // The RRC Setup handed out in MSG4 must describe how this cell actually
  // schedules, or every UE (and the sniffer) would compute a wrong TBS.
  rrc_setup_.mcs_table = config_.cell.pdsch.mcs_table;
  rrc_setup_.max_mimo_layers = config_.cell.pdsch.max_mimo_layers;
  rrc_setup_.ue_ss = config_.cell.ue_ss;
  used_cce_.resize(config_.cell.coreset.n_cce(), false);
  // CCEs with a REG inside the SS/PBCH block's PRBs and symbols; they are
  // off limits in SSB slots (TS 38.213 10.1 drops PDCCH candidates that
  // overlap SS/PBCH REs).
  const CoresetConfig& coreset = config_.cell.coreset;
  const unsigned ssb_first = config_.cell.ssb_prb_start;
  const unsigned ssb_end = ssb_first + SsbLocation::kNPrb;
  ssb_cces_.assign(coreset.n_cce(), false);
  for (unsigned cce = 0; cce < coreset.n_cce(); ++cce) {
    for (const RegLocation& reg : cce_to_regs(coreset, cce, 1)) {
      if (reg.prb >= ssb_first && reg.prb < ssb_end &&
          reg.symbol <= SsbLocation::kSssSymbol) {
        ssb_cces_[cce] = true;
      }
    }
  }
}

unsigned GnbSim::add_ue(UeConfig ue_config) {
  UeContext ctx;
  ctx.id = next_ue_id_++;
  ue_config.id = ctx.id;
  ctx.emulator = std::make_unique<UeEmulator>(std::move(ue_config));
  ctx.stage = RachStage::kIdle;
  ctx.stage_slot = clock_.count();
  ues_.push_back(std::move(ctx));
  return ues_.back().id;
}

void GnbSim::remove_ue(unsigned ue_id) {
  std::erase_if(ues_, [ue_id](const UeContext& c) { return c.id == ue_id; });
}

const UeEmulator* GnbSim::ue(unsigned ue_id) const {
  for (const auto& ctx : ues_) {
    if (ctx.id == ue_id) {
      return ctx.emulator.get();
    }
  }
  return nullptr;
}

UeEmulator* GnbSim::ue(unsigned ue_id) {
  return const_cast<UeEmulator*>(
      static_cast<const GnbSim*>(this)->ue(ue_id));
}

Rnti GnbSim::ue_rnti(unsigned ue_id) const {
  for (const auto& ctx : ues_) {
    if (ctx.id == ue_id) {
      return ctx.stage == RachStage::kConnected ? ctx.rnti : kInvalidRnti;
    }
  }
  return kInvalidRnti;
}

std::vector<Rnti> GnbSim::connected_rntis() const {
  std::vector<Rnti> rntis;
  for (const auto& ctx : ues_) {
    if (ctx.stage == RachStage::kConnected) {
      rntis.push_back(ctx.rnti);
    }
  }
  return rntis;
}

unsigned GnbSim::n_data_symbols() const {
  return tdra_entry(0).n_symbols;
}

bool GnbSim::allocate_pdcch(Rnti rnti, const SearchSpaceConfig& ss,
                            unsigned agg_level, unsigned& cce_start) {
  pdcch_candidates(config_.cell.coreset, ss, agg_level, clock_.now(), rnti,
                   cand_cces_);
  for (unsigned cce : cand_cces_) {
    bool free = true;
    for (unsigned i = cce; i < cce + agg_level; ++i) {
      if (used_cce_[i]) {
        free = false;
        break;
      }
    }
    if (free) {
      for (unsigned i = cce; i < cce + agg_level; ++i) {
        used_cce_[i] = true;
      }
      cce_start = cce;
      return true;
    }
  }
  ++pdcch_blocked_;
  return false;  // PDCCH blocking: the UE is skipped this TTI
}

void GnbSim::broadcast(bool& has_ssb) {
  const SlotPoint& now = clock_.now();
  const CellConfig& cell = config_.cell;
  has_ssb = false;
  if (now.slot == 0 && now.sfn % cell.ssb_period_frames == 0) {
    Mib mib;
    mib.sfn = static_cast<std::uint16_t>(now.sfn);
    mib.scs_common = cell.scs;
    mib.coreset0_rb_start = static_cast<std::uint8_t>(cell.coreset.rb_start);
    mib.coreset0_n_prb6 = static_cast<std::uint8_t>(cell.coreset.n_prb / 6);
    mib.coreset0_duration = static_cast<std::uint8_t>(cell.coreset.duration);
    const SsbLocation ssb{cell.ssb_prb_start};
    encode_ssb(cell.pci, ssb, mib, now, grid_, pbch_scratch_);
    has_ssb = true;
  }
}

void GnbSim::run_rach(bool allow_tx) {
  const std::uint64_t slot = clock_.count();
  const CellConfig& cell = config_.cell;
  // MSG2/MSG4 need a clean downlink slot; state transitions (MSG1 on the
  // PRACH, MSG3 on the PUSCH) happen regardless.
  const bool dl = allow_tx && cell.tdd.is_downlink(slot);

  for (auto& ctx : ues_) {
    switch (ctx.stage) {
      case RachStage::kIdle:
        if (is_prach_occasion(cell.rach, slot)) {
          ctx.stage = RachStage::kMsg1Sent;
          ctx.stage_slot = slot;
        }
        break;
      case RachStage::kMsg1Sent: {
        if (!dl || slot < ctx.stage_slot + 2) {
          break;
        }
        // MSG2: RAR on PDSCH, scheduled by an RA-RNTI DCI 1_0.
        const Rnti ra_rnti = ra_rnti_for_slot(cell.rach, ctx.stage_slot);
        unsigned cce = 0;
        if (!allocate_pdcch(ra_rnti, cell.common_ss,
                            cell.rach.msg4_agg_level, cce)) {
          break;  // retry next slot (TC-RNTI not consumed)
        }
        ctx.rnti = next_tc_rnti_++;
        if (next_tc_rnti_ >= kLastTcRnti) {
          next_tc_rnti_ = kFirstTcRnti;
        }
        Rar rar;
        rar.tc_rnti = ctx.rnti;
        rar.timing_advance = static_cast<unsigned>(rng_.uniform_int(0, 63));
        rar.msg3_grant = 0xA5;
        transmit_common_pdsch(ra_rnti, DciKind::kRar, cce, rar.pack());
        ctx.stage = RachStage::kMsg2Sent;
        ctx.stage_slot = slot;
        break;
      }
      case RachStage::kMsg2Sent:
        // MSG3 (RRC Setup Request) arrives on the PUSCH; not materialized.
        if (slot >= ctx.stage_slot + 2) {
          ctx.stage = RachStage::kMsg3Received;
          ctx.stage_slot = slot;
        }
        break;
      case RachStage::kMsg3Received: {
        if (!dl || slot < ctx.stage_slot + 2) {
          break;
        }
        // MSG4: RRC Setup on PDSCH, scheduled with the TC-RNTI; after this
        // the TC-RNTI is promoted to the C-RNTI (paper section 3.1.2).
        unsigned cce = 0;
        if (!allocate_pdcch(ctx.rnti, cell.common_ss,
                            cell.rach.msg4_agg_level, cce)) {
          break;
        }
        transmit_common_pdsch(ctx.rnti, DciKind::kMsg4, cce,
                              rrc_setup_.pack());
        ctx.stage = RachStage::kConnected;
        ctx.stage_slot = slot;
        ctx.emulator->set_rnti(ctx.rnti);
        break;
      }
      case RachStage::kConnected:
        break;
    }
  }
}

void GnbSim::transmit_common_pdsch(Rnti rnti, DciKind kind, unsigned cce,
                                   const BitVector& payload) {
  const CellConfig& cell = config_.cell;
  const SlotPoint& now = clock_.now();
  Dci dci;
  dci.format = DciFormat::kDl1_0;
  dci.time_alloc = 2;
  dci.mcs = 2;
  const unsigned n_sym = tdra_entry(dci.time_alloc).n_symbols;
  const unsigned len =
      prbs_for_bits(static_cast<unsigned>(payload.size()), dci.mcs,
                    McsTable::kQam64, cell.pdsch, n_sym, cell.n_prb);
  dci.freq_alloc_riv = riv_encode(prb_cursor_, len, cell.n_prb);
  prb_cursor_ += len;
  encode_pdcch(cell.coreset, {rnti, cell.rach.msg4_agg_level, cce}, dci,
               cell.n_prb, now, grid_, pdcch_scratch_);
  const Grant grant = translate_dci(dci, rnti, cell);
  payload_scratch_.assign(payload.begin(), payload.end());
  payload_scratch_.resize(grant.tbs, 0);
  encode_pdsch(pdsch_allocation(grant, cell.pci), now, payload_scratch_,
               grid_, pdsch_scratch_);
  truth_.add_dci(TruthDci{clock_.count(), rnti, kind, dci, grant, false, true,
                          cell.rach.msg4_agg_level, cce});
}

unsigned GnbSim::agg_level_for(unsigned prb_len) {
  // Wider allocations get a higher aggregation level, mirroring how real
  // schedulers protect large grants; small grants use AL1 so many UEs fit
  // into the CORESET's CCEs in one TTI.
  return prb_len >= 24 ? 4u : (prb_len >= 10 ? 2u : 1u);
}

void GnbSim::transmit_dl_grant(UeContext& ue_ctx, DlProcess& process,
                               unsigned harq_id, DciKind kind, unsigned agg,
                               unsigned cce) {
  // The caller has already reserved the PDCCH candidate; this function
  // cannot fail, so HARQ state mutations stay consistent.
  const CellConfig& cell = config_.cell;
  const SlotPoint& now = clock_.now();
  const std::uint64_t slot = clock_.count();

  Dci dci;
  dci.format = rrc_setup_.dl_format;
  dci.freq_alloc_riv =
      riv_encode(process.grant.prb_start, process.grant.prb_len, cell.n_prb);
  // Recover the TDRA row from the grant's symbol count.
  for (unsigned row = 0; row < tdra_table_size(); ++row) {
    const TdraEntry e = tdra_entry(static_cast<std::uint8_t>(row));
    if (e.start_symbol == process.grant.start_symbol &&
        e.n_symbols == process.grant.n_symbols) {
      dci.time_alloc = static_cast<std::uint8_t>(row);
      break;
    }
  }
  dci.mcs = static_cast<std::uint8_t>(process.grant.mcs);
  dci.ndi = process.ndi;
  dci.rv = static_cast<std::uint8_t>(kRvSequence[process.tx_count]);
  dci.harq_id = static_cast<std::uint8_t>(harq_id);
  encode_pdcch(cell.coreset, {ue_ctx.rnti, agg, cce}, dci, cell.n_prb, now,
               grid_, pdcch_scratch_);

  // PDSCH payload content is opaque to the sniffer, so user data is the
  // all-zero block, passed empty (scrambling randomizes the on-air bits
  // anyway).
  encode_pdsch(pdsch_allocation(process.grant, cell.pci), now, {}, grid_,
               pdsch_scratch_);

  const bool is_retx = process.tx_count > 0;
  const bool acked = ue_ctx.emulator->decide_ack(process.grant);
  ++process.tx_count;

  // Outer-loop link adaptation.
  if (acked) {
    ue_ctx.olla_db = std::min(3.0, ue_ctx.olla_db + 0.05);
    ue_ctx.emulator->deliver(slot, process.payload_bytes, process.packets);
    process.active = false;
    process.awaiting_retx = false;
  } else {
    ue_ctx.olla_db = std::max(-6.0, ue_ctx.olla_db - 0.45);
    if (process.tx_count >= kMaxHarqTx) {
      process.active = false;  // give up; bytes lost
      process.awaiting_retx = false;
    } else {
      process.awaiting_retx = true;
    }
  }

  Grant logged = process.grant;
  logged.ndi = process.ndi;
  logged.rv = dci.rv;
  logged.harq_id = dci.harq_id;
  truth_.add_dci(
      TruthDci{slot, ue_ctx.rnti, kind, dci, logged, is_retx, acked, agg,
               cce});
}

void GnbSim::schedule_downlink() {
  const CellConfig& cell = config_.cell;
  const unsigned n_prb = cell.n_prb;
  if (prb_cursor_ >= n_prb) {
    return;
  }

  // 1) Retransmissions first: replay the stored grant at a (possibly new)
  //    PRB position.
  for (auto& ctx : ues_) {
    if (ctx.stage != RachStage::kConnected) {
      continue;
    }
    for (unsigned h = 0; h < kMaxHarqProcesses; ++h) {
      DlProcess& p = ctx.dl_harq[h];
      if (p.active && p.awaiting_retx) {
        if (prb_cursor_ + p.grant.prb_len > n_prb) {
          continue;  // no room this TTI
        }
        const unsigned agg = agg_level_for(p.grant.prb_len);
        unsigned cce = 0;
        if (!allocate_pdcch(ctx.rnti, rrc_setup_.ue_ss, agg, cce)) {
          continue;  // PDCCH blocked; the retransmission waits a TTI
        }
        p.grant.prb_start = prb_cursor_;
        prb_cursor_ += p.grant.prb_len;
        p.awaiting_retx = false;
        transmit_dl_grant(ctx, p, h, DciKind::kData, agg, cce);
      }
    }
  }
  if (prb_cursor_ >= n_prb) {
    return;
  }

  // 2) New transmissions via the round-robin scheduler.
  std::vector<SchedRequest>& requests = sched_requests_;
  std::vector<UeContext*>& request_ctx = sched_ctx_;
  requests.clear();
  request_ctx.clear();
  for (auto& ctx : ues_) {
    if (ctx.stage != RachStage::kConnected || !ctx.emulator->dl_traffic()) {
      continue;
    }
    // A UE with all HARQ processes busy cannot take new data.
    bool has_free = false;
    for (const auto& p : ctx.dl_harq) {
      if (!p.active) {
        has_free = true;
        break;
      }
    }
    if (!has_free) {
      continue;
    }
    TrafficSource* traffic = ctx.emulator->dl_traffic();
    if (!traffic->is_full_buffer() && traffic->backlog_bytes() == 0) {
      continue;
    }
    SchedRequest req;
    req.rnti = ctx.rnti;
    req.backlog_bytes = traffic->backlog_bytes();
    req.full_buffer = traffic->is_full_buffer();
    req.snr_db = ctx.emulator->reported_snr_db() + ctx.olla_db;
    requests.push_back(req);
    request_ctx.push_back(&ctx);
  }
  if (requests.empty()) {
    return;
  }

  const unsigned data_prbs = n_prb - prb_cursor_;
  schedule_tti(requests, data_prbs, cell.pdsch.mcs_table, rr_cursor_++,
               n_data_symbols(), cell.pdsch.dmrs_re_per_prb,
               cell.pdsch.xoverhead, sched_scratch_, sched_decisions_);
  const std::vector<SchedDecision>& decisions = sched_decisions_;

  for (const auto& d : decisions) {
    // Find the context back (decisions reference RNTIs).
    UeContext* ctx = nullptr;
    for (auto* c : request_ctx) {
      if (c->rnti == d.rnti) {
        ctx = c;
        break;
      }
    }
    if (ctx == nullptr) {
      continue;
    }
    // Pick a free HARQ process.
    unsigned harq_id = kMaxHarqProcesses;
    for (unsigned h = 0; h < kMaxHarqProcesses; ++h) {
      if (!ctx->dl_harq[h].active) {
        harq_id = h;
        break;
      }
    }
    if (harq_id == kMaxHarqProcesses) {
      continue;
    }
    TrafficSource* traffic = ctx->emulator->dl_traffic();
    const std::uint8_t tdra =
        choose_tdra(traffic->is_full_buffer() ? 1u << 20
                                              : traffic->backlog_bytes());
    Dci probe;
    probe.format = rrc_setup_.dl_format;
    probe.freq_alloc_riv =
        riv_encode(prb_cursor_ + d.prb_start, d.prb_len, cell.n_prb);
    probe.time_alloc = tdra;
    probe.mcs = static_cast<std::uint8_t>(d.mcs);
    Grant grant = translate_dci(probe, ctx->rnti, cell.n_prb, cell.pdsch,
                                cell.pdsch.mcs_table,
                                cell.pdsch.max_mimo_layers);
    if (grant.tbs == 0) {
      continue;
    }
    const unsigned agg = agg_level_for(grant.prb_len);
    unsigned cce = 0;
    if (!allocate_pdcch(ctx->rnti, rrc_setup_.ue_ss, agg, cce)) {
      continue;  // PDCCH blocked; the data stays queued
    }
    const DrainResult drained = traffic->drain(grant.tbs / 8);

    DlProcess& p = ctx->dl_harq[harq_id];
    p.active = true;
    p.ndi ^= 1;  // toggle for new data
    p.awaiting_retx = false;
    p.grant = grant;
    p.payload_bytes = drained.bytes;
    p.packets = drained.packets_completed;
    p.tx_count = 0;
    transmit_dl_grant(*ctx, p, harq_id, DciKind::kData, agg, cce);
  }
}

void GnbSim::schedule_uplink() {
  const CellConfig& cell = config_.cell;
  const std::uint64_t slot = clock_.count();
  const SlotPoint& now = clock_.now();

  // Grant PUSCH resources for the next UL slot, round-robin full-band.
  std::vector<UeContext*>& uplinkers = uplinkers_;
  uplinkers.clear();
  for (auto& ctx : ues_) {
    if (ctx.stage == RachStage::kConnected && ctx.emulator->ul_traffic() &&
        (ctx.emulator->ul_traffic()->is_full_buffer() ||
         ctx.emulator->ul_traffic()->backlog_bytes() > 0)) {
      uplinkers.push_back(&ctx);
    }
  }
  if (uplinkers.empty()) {
    return;
  }
  const unsigned share =
      std::max(1u, cell.n_prb / static_cast<unsigned>(uplinkers.size()));
  unsigned prb = 0;
  for (auto* ctx : uplinkers) {
    if (prb >= cell.n_prb) {
      break;
    }
    // Size the grant to the UE's UL backlog, capped at its share.
    const unsigned ul_mcs = select_mcs_for_snr(
        McsTable::kQam64, ctx->emulator->reported_snr_db() + ctx->olla_db);
    TrafficSource* ul = ctx->emulator->ul_traffic();
    const unsigned want =
        ul->is_full_buffer()
            ? cell.n_prb
            : prbs_for_bits(
                  static_cast<unsigned>(
                      std::min<std::size_t>(ul->backlog_bytes() * 8,
                                            1u << 20)),
                  ul_mcs, McsTable::kQam64, cell.pdsch,
                  tdra_entry(0).n_symbols, cell.n_prb);
    const unsigned len = std::min({want, share, cell.n_prb - prb});
    // Uplink grants ride on AL1 to leave CCEs for the data DCIs.
    unsigned cce = 0;
    if (!allocate_pdcch(ctx->rnti, rrc_setup_.ue_ss, 1, cce)) {
      continue;
    }
    Dci dci;
    dci.format = rrc_setup_.dl_format == DciFormat::kDl1_1 ? DciFormat::kUl0_1
                                                            : DciFormat::kUl0_0;
    dci.freq_alloc_riv = riv_encode(prb, len, cell.n_prb);
    dci.time_alloc = 0;
    dci.mcs = static_cast<std::uint8_t>(ul_mcs);
    dci.harq_id = static_cast<std::uint8_t>(ctx->ul_harq_cursor);
    dci.ndi = ctx->ul_ndi[ctx->ul_harq_cursor] ^= 1;
    ctx->ul_harq_cursor = (ctx->ul_harq_cursor + 1) % kMaxHarqProcesses;
    prb += len;
    encode_pdcch(cell.coreset, {ctx->rnti, 1, cce}, dci, cell.n_prb, now,
                 grid_, pdcch_scratch_);
    Grant grant = translate_dci(dci, ctx->rnti, cell.n_prb, cell.pdsch,
                                McsTable::kQam64, 1);
    ctx->emulator->ul_traffic()->drain(grant.tbs / 8);
    truth_.add_dci(
        TruthDci{slot, ctx->rnti, DciKind::kUplink, dci, grant, false, true,
                 1, cce});
  }
}

const ResourceGrid& GnbSim::step() {
  const std::uint64_t slot = clock_.count();
  const CellConfig& cell = config_.cell;
  const double now_s = clock_.elapsed_s();

  for (auto& ctx : ues_) {
    ctx.emulator->step(slot, now_s);
  }

  grid_.clear();
  std::fill(used_cce_.begin(), used_cce_.end(), false);
  prb_cursor_ = 0;

  bool has_ssb = false;
  const bool dl = cell.tdd.is_downlink(slot);
  const bool special = cell.tdd.is_special(slot);

  if (dl) {
    broadcast(has_ssb);
  }
  if (has_ssb) {
    used_cce_ = ssb_cces_;  // PDCCH must not overwrite PSS/PBCH REs
  }
  truth_.begin_slot(slot, has_ssb);
  run_rach(/*allow_tx=*/dl && !has_ssb);

  if (dl && !has_ssb) {
    // SIB1 periodically in slot 1.
    const SlotPoint& now = clock_.now();
    if (now.slot == 1 && now.sfn % cell.sib1_period_frames == 0) {
      unsigned cce = 0;
      if (allocate_pdcch(kSiRnti, cell.common_ss, cell.rach.msg4_agg_level,
                         cce)) {
        if (sib1_payload_.empty()) {
          sib1_payload_ = Sib1::from_cell(cell).pack();
        }
        transmit_common_pdsch(kSiRnti, DciKind::kSib, cce, sib1_payload_);
      }
    }
    schedule_downlink();
  }
  if (dl || special) {
    schedule_uplink();
  }

  clock_.tick();
  return grid_;
}

}  // namespace nrs
