#include "nrscope/nrscope.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "nr/grant.h"
#include "nr/pdsch.h"
#include "nr/rach.h"
#include "nr/sib1.h"
#include "phy/pss.h"
#include "phy/sss.h"

namespace nrs {
namespace {

/// PSS/SSS sit `kSyncScOffset` subcarriers into the 12-PRB SSB window.
constexpr unsigned kSyncScOffset =
    (SsbLocation::kNPrb * kSubcarriersPerPrb - kPssLength) / 2;

/// A blind-decode candidate packed into one sort key, 16 bits per field,
/// most significant first: (payload_bits, level, cce, ue_index).  One
/// integer compare orders candidates as the tuple would, and equal
/// (payload, level, cce) prefixes mark one shared location.  Every field
/// fits: DCI sizes are tens of bits; a level with candidates is at most
/// the CORESET's CCE count and every CCE index is below it, and the MIB
/// and SIB1 fields cap that count at 255 * 6 PRBs * 3 symbols / 6 = 765;
/// tracked UEs have distinct 16-bit RNTIs.
constexpr unsigned kKeyFieldBits = 16;
static_assert(255 * 6 * 3 / kRegsPerCce < (1u << kKeyFieldBits));
static_assert(sizeof(Rnti) * 8 <= kKeyFieldBits);

std::uint64_t candidate_key(unsigned payload_bits, unsigned level,
                            unsigned cce, std::size_t ue_index) {
  if ((payload_bits | level | cce | ue_index) >> kKeyFieldBits != 0) {
    throw std::out_of_range("blind-decode candidate overflows its sort key");
  }
  return static_cast<std::uint64_t>(payload_bits) << (3 * kKeyFieldBits) |
         static_cast<std::uint64_t>(level) << (2 * kKeyFieldBits) |
         static_cast<std::uint64_t>(cce) << kKeyFieldBits | ue_index;
}

unsigned key_field(std::uint64_t key, unsigned field) {
  return static_cast<unsigned>(key >> (field * kKeyFieldBits)) & 0xFFFFu;
}
unsigned key_payload_bits(std::uint64_t key) { return key_field(key, 3); }
unsigned key_level(std::uint64_t key) { return key_field(key, 2); }
unsigned key_cce(std::uint64_t key) { return key_field(key, 1); }
std::size_t key_ue_index(std::uint64_t key) { return key_field(key, 0); }
/// The key without its UE: equal for every watcher of one location.
std::uint64_t key_location(std::uint64_t key) {
  return key >> kKeyFieldBits;
}

/// CORESET 0's fields that the MIB and the PCI define: the MIB's position,
/// width and duration, and the PCI's REG shift and DMRS/scrambling
/// identity.
void set_coreset0(const Mib& mib, std::uint16_t pci, CoresetConfig& coreset) {
  coreset.rb_start = mib.coreset0_rb_start;
  coreset.n_prb = mib.coreset0_n_prb6 * 6u;
  coreset.duration = mib.coreset0_duration;
  coreset.shift = pci;
  coreset.n_id = pci;
}

/// Throw-on-invalid wrapper so the config is checked before any other
/// member (the demodulator in particular) is built from it.
const NrScopeConfig& validated(const NrScopeConfig& config) {
  if (auto error = config.validate()) {
    throw std::invalid_argument("NrScopeConfig: " + *error);
  }
  return config;
}

}  // namespace

const char* to_string(SyncState state) {
  switch (state) {
    case SyncState::kSearching:
      return "searching";
    case SyncState::kWaitSib1:
      return "wait_sib1";
    case SyncState::kTracking:
      return "tracking";
    case SyncState::kResync:
      return "resync";
  }
  return "?";
}

std::optional<std::string> NrScopeConfig::validate() const {
  if (n_prb < SsbLocation::kNPrb || n_prb > 275) {
    return "n_prb must be in [12, 275], got " + std::to_string(n_prb);
  }
  if (rate_window_slots == 0) {
    return "rate_window_slots must be > 0";
  }
  if (ue_inactivity_slots == 0) {
    return "ue_inactivity_slots must be > 0";
  }
  if (auto error = sync.validate()) {
    return error;
  }
  return std::nullopt;
}

NrScope::NrScope(const NrScopeConfig& config)
    : config_(validated(config)),
      rx_(make_ofdm_config(config.n_prb)), rach_(config.rach),
      telemetry_(config.scs, config.rate_window_slots, &metrics_registry_),
      sync_(config.sync, metrics_registry_) {
  cell_.n_prb = config_.n_prb;
  cell_.scs = config_.scs;
  rach_.bind_metrics(metrics_registry_);
  m_slots_searching_ = &metrics_registry_.counter("nrscope.slots_searching");
  m_slots_wait_sib1_ = &metrics_registry_.counter("nrscope.slots_wait_sib1");
  m_slots_tracking_ = &metrics_registry_.counter("nrscope.slots_tracking");
  m_slots_resync_ = &metrics_registry_.counter("nrscope.slots_resync");
  m_degraded_slots_ = &metrics_registry_.counter("nrscope.degraded_slots");
  m_stream_gap_slots_ =
      &metrics_registry_.counter("nrscope.stream_gap_slots");
  m_stale_evictions_ =
      &metrics_registry_.counter("nrscope.stale_ue_evictions");
  m_rnti_evictions_ = &metrics_registry_.counter("nrscope.rnti_evictions");
  m_candidates_ = &metrics_registry_.counter("nrscope.dedupe_candidates");
  m_candidate_locations_ =
      &metrics_registry_.counter("nrscope.dedupe_locations");
  m_demod_us_ = &metrics_registry_.histogram("nrscope.demod_us");
  m_demod_symbols_ = &metrics_registry_.counter("nrscope.demod_symbols");
  m_pdcch_estimate_us_ =
      &metrics_registry_.histogram("nrscope.pdcch_estimate_us");
  m_blind_decode_us_ =
      &metrics_registry_.histogram("nrscope.blind_decode_us");
  m_rach_scan_us_ = &metrics_registry_.histogram("nrscope.rach_scan_us");
}

NrScope::~NrScope() = default;

SlotPoint NrScope::slot_point() const {
  const unsigned spf = slots_per_frame(cell_.scs);
  SlotPoint point;
  point.scs = cell_.scs;
  if (!phase_locked_) {
    point.sfn = 0;
    point.slot = static_cast<std::uint32_t>(slot_index_ % spf);
    return point;
  }
  const std::int64_t rel =
      static_cast<std::int64_t>(slot_index_) - frame_phase_;
  point.slot = static_cast<std::uint32_t>(((rel % spf) + spf) % spf);
  point.sfn = static_cast<std::uint32_t>(
      ((rel / spf) + (mib_ ? mib_->sfn : 0) + 1024) & 0x3FF);
  return point;
}

std::uint64_t NrScope::air_slot_index() const {
  // Equals slot_index_ only while the sniffer has listened since the cell
  // booted; a restarted cell rebases its clock, and the re-locked frame
  // phase plus the new MIB's SFN recover where it actually is.
  if (!phase_locked_ || !mib_) {
    return slot_index_;
  }
  const unsigned spf = slots_per_frame(cell_.scs);
  const std::int64_t rel =
      static_cast<std::int64_t>(slot_index_) - frame_phase_;
  return static_cast<std::uint64_t>(
      rel + static_cast<std::int64_t>(mib_->sfn) * spf);
}

unsigned NrScope::data_res_total() const {
  // PDSCH capacity of a downlink TTI: full band over the 12 data symbols.
  const std::uint64_t abs_slot = phase_locked_
                                     ? static_cast<std::uint64_t>(
                                           static_cast<std::int64_t>(
                                               slot_index_) -
                                           frame_phase_)
                                     : slot_index_;
  if (!cell_.tdd.is_downlink(abs_slot)) {
    return 0;
  }
  return cell_.n_prb * kSubcarriersPerPrb * 12u;
}

std::vector<Rnti> NrScope::known_ues() const {
  std::vector<Rnti> rntis;
  rntis.reserve(ues_.size());
  for (const auto& ue : ues_) {
    rntis.push_back(ue.rnti);
  }
  return rntis;
}

void NrScope::add_ue(Rnti rnti, const RrcSetup& config) {
  for (auto& ue : ues_) {
    if (ue.rnti == rnti) {
      ue.config = config;
      return;
    }
  }
  ues_.push_back(UeSearchContext{rnti, config});
  ue_last_seen_.push_back(slot_index_);
  telemetry_.add_ue(rnti, slot_index_);
}

void NrScope::bind_rach_ue(Rnti rnti, const RrcSetup& config) {
  for (std::size_t i = 0; i < ues_.size(); ++i) {
    if (ues_[i].rnti == rnti) {
      // C-RNTI reuse: the RACH just granted a tracked value to a new UE,
      // so the old binding is stale — rebind with fresh telemetry.
      ues_[i].config = config;
      ue_last_seen_[i] = slot_index_;
      telemetry_.rebind_ue(rnti, slot_index_);
      m_rnti_evictions_->inc();
      return;
    }
  }
  add_ue(rnti, config);
}

void NrScope::cleanup_stale_ues() {
  for (std::size_t i = 0; i < ues_.size();) {
    if (slot_index_ - ue_last_seen_[i] > config_.ue_inactivity_slots) {
      telemetry_.remove_ue(ues_[i].rnti);
      m_stale_evictions_->inc();
      ues_.erase(ues_.begin() + static_cast<std::ptrdiff_t>(i));
      ue_last_seen_.erase(ue_last_seen_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

std::optional<NrScope::Acquisition> NrScope::detect_cell() {
  // The SSB: PSS on row 0, PBCH on rows 1-2, SSS on row 3.
  const ResourceGrid& grid = rx_.symbols(0, SsbLocation::kSssSymbol + 1);
  // PSS on some symbol-0 subcarrier offset?
  const auto pss = detect_pss(grid.symbol(SsbLocation::kPssSymbol), 0.45f);
  if (!pss || pss->sc_offset < kSyncScOffset) {
    return std::nullopt;
  }
  const unsigned prb_start = (pss->sc_offset - kSyncScOffset) /
                             kSubcarriersPerPrb;
  // SSS confirms and completes the PCI.
  const unsigned sss_sc =
      prb_start * kSubcarriersPerPrb + kSyncScOffset;
  if (sss_sc + kPssLength > grid.n_subcarriers()) {
    return std::nullopt;
  }
  std::vector<cf32> sss_res(kPssLength);
  for (unsigned n = 0; n < kPssLength; ++n) {
    sss_res[n] = grid.at(SsbLocation::kSssSymbol, sss_sc + n);
  }
  const auto sss = detect_sss(sss_res, pss->nid2, 0.3f);
  if (!sss) {
    return std::nullopt;
  }
  Acquisition acq;
  acq.pci = static_cast<std::uint16_t>(3 * sss->nid1 + pss->nid2);
  acq.prb_start = prb_start;
  const auto mib = decode_mib(acq.pci, SsbLocation{prb_start},
                              SlotPoint{cell_.scs, 0, 0}, grid,
                              pbch_scratch_);
  if (!mib) {
    return std::nullopt;
  }
  acq.mib = *mib;
  return acq;
}

void NrScope::apply_acquisition(const Acquisition& acq, SlotResult& result) {
  // Synchronized: SSBs are sent in slot 0 of a frame.
  pci_ = acq.pci;
  mib_ = acq.mib;
  ssb_ = SsbLocation{acq.prb_start};
  frame_phase_ = static_cast<std::int64_t>(slot_index_);
  phase_locked_ = true;
  cell_.pci = acq.pci;
  set_coreset0(acq.mib, acq.pci, cell_.coreset);
  cell_.scs = acq.mib.scs_common;
  result.mib = acq.mib;
}

void NrScope::search(SlotResult& result) {
  if (const auto acq = detect_cell()) {
    apply_acquisition(*acq, result);
    state_ = State::kWaitSib1;
  }
}

void NrScope::wait_sib1(SlotResult& result) {
  const SlotPoint now = slot_point();
  // One batch channel-decodes every common-search-space location at the
  // DCI 1_0 size; the locations are visited level by level, CCE by CCE,
  // and the first SI-RNTI grant whose PDSCH carries a SIB1 wins.
  const PdcchEstimate& estimate =
      estimate_coreset(cell_.coreset, now,
                       rx_.symbols(0, cell_.coreset.duration), pdcch_scratch_);
  const unsigned payload_bits =
      decode_common_search_space(cell_.coreset, cell_.common_ss, cell_.n_prb,
                                 now, estimate, pdcch_scratch_);
  const unsigned k_bits = payload_bits + kCrc24C.length();
  const auto& locs = pdcch_scratch_.cand_locs;
  const auto& batch = pdcch_scratch_.batch;
  for (std::size_t j = 0; j < locs.size(); ++j) {
    if (batch.rnti[j] != kSiRnti) {
      continue;
    }
    const Dci dci = Dci::unpack(
        DciFormat::kDl1_0, cell_.n_prb,
        std::span<const std::uint8_t>(batch.bits.data() + j * k_bits,
                                      payload_bits));
    const Grant grant = translate_dci(dci, kSiRnti, cell_);
    const auto payload =
        decode_pdsch(pdsch_allocation(grant, pci_), now, grant.tbs,
                     rx_.symbols(grant.start_symbol, grant.n_symbols));
    if (!payload) {
      continue;
    }
    const auto sib = Sib1::unpack(*payload);
    if (!sib) {
      continue;
    }
    // Learn the full cell configuration; CORESET 0's MIB- and PCI-derived
    // fields were set at acquisition and win over SIB1's copy of them.
    sib->apply_to(cell_);
    set_coreset0(*mib_, pci_, cell_.coreset);
    rach_.set_cell(cell_);
    result.sib1_decoded = true;
    sib1_seen_ = true;
    state_ = State::kTracking;
    sync_.on_lock();
    DecodedDci out;
    out.slot = slot_index_;
    out.rnti = kSiRnti;
    out.dci = dci;
    out.grant = grant;
    out.agg_level = locs[j].agg_level;
    out.cce_start = locs[j].cce_start;
    result.dcis.push_back(out);
    return;
  }
}

bool NrScope::ssb_expected(const SlotPoint& now) const {
  return phase_locked_ && now.slot == 0 && cell_.ssb_period_frames > 0 &&
         now.sfn % cell_.ssb_period_frames == 0;
}

float NrScope::measure_ssb_quality() {
  // PSS correlation at the locked SSB location — stack buffers only, so
  // the per-SSB health check stays on the zero-allocation slot path.
  const ResourceGrid& grid = rx_.symbols(SsbLocation::kPssSymbol, 1);
  const unsigned sc = ssb_.prb_start * kSubcarriersPerPrb + kSyncScOffset;
  if (sc + kPssLength > grid.n_subcarriers()) {
    return 0.0f;
  }
  const std::array<float, kPssLength> seq = pss_sequence(pci_ % 3);
  return partial_correlation(
      grid.symbol(SsbLocation::kPssSymbol).subspan(sc, kPssLength), seq);
}

void NrScope::enter_resync() {
  resync_cause_ = sync_.loss_cause();
  resync_entered_slot_ = slot_index_;
  phase_locked_ = false;
  sync_.resync_started(slot_index_);
  state_ = State::kResync;
}

void NrScope::force_resync() {
  if (state_ == State::kTracking) {
    enter_resync();
  }
}

void NrScope::note_stream_gap(std::uint64_t missed) {
  // A declared gap (SDR overflow): the missing slots still happened on
  // air, so advancing the slot clock keeps the frame phase locked and no
  // resync is needed.
  slot_index_ += missed;
  m_stream_gap_slots_->inc(missed);
}

void NrScope::flush_tracked_state() {
  // The cell is gone (PCI change or grace expiry): per-UE telemetry must
  // not bleed into whatever is acquired next.
  for (const auto& ue : ues_) {
    telemetry_.remove_ue(ue.rnti);
  }
  ues_.clear();
  ue_last_seen_.clear();
  rach_ = RachTracker(config_.rach);
  rach_.bind_metrics(metrics_registry_);
  cell_ = CellConfig{};
  cell_.n_prb = config_.n_prb;
  cell_.scs = config_.scs;
  sib1_seen_ = false;
  mib_.reset();
  phase_locked_ = false;
}

void NrScope::resync(SlotResult& result) {
  if (const auto acq = detect_cell()) {
    const bool pci_changed = acq->pci != pci_;
    if (pci_changed) {
      flush_tracked_state();
    }
    apply_acquisition(*acq, result);
    sync_.resync_finished(slot_index_, pci_changed);
    if (!pci_changed && sib1_seen_ &&
        resync_cause_ == SyncLossCause::kSsbQuality) {
      // Same cell, configuration intact (the fault was channel-level):
      // resume full telemetry on the retained UE state immediately.  The
      // RACH scan decodes from this slot's estimate of cell_.coreset, which
      // the new MIB just rewrote.
      rach_.set_cell(cell_);
      state_ = State::kTracking;
      sync_.on_lock();
    } else {
      // New cell, or the old one stopped matching what we decode with:
      // re-read SIB1 first.  On a same-PCI recovery the UE state stays
      // (telemetry continuity); stale entries age out normally.
      state_ = State::kWaitSib1;
    }
    resync_cause_ = SyncLossCause::kNone;
    return;
  }
  if (slot_index_ - resync_entered_slot_ >=
      config_.sync.resync_grace_slots) {
    // Grace expired with no cell found: drop the retained state and fall
    // back to a cold search.
    flush_tracked_state();
    sync_.resync_abandoned(slot_index_);
    resync_cause_ = SyncLossCause::kNone;
    state_ = State::kSearching;
  }
}

void NrScope::track(SlotResult& result) {
  const SlotPoint now = slot_point();

  // Sync health, part 1: on the slots where the cell owes us an SSB,
  // measure the PSS correlation at the locked location.  Fades, timing
  // jumps and CFO all collapse it; a restarted cell moves its SSB away
  // from the expected slots, which collapses it just the same.
  if (ssb_expected(now)) {
    sync_.observe_ssb(measure_ssb_quality());
  }

  // One channel estimate of the CORESET serves every PDCCH decode of the
  // slot: the RACH scan's and the blind decode's.  Its rows are the only
  // FFTs of a steady tracking slot.
  const ResourceGrid& coreset_rows = rx_.symbols(0, cell_.coreset.duration);
  {
    ScopedTimer estimate_timer(*m_pdcch_estimate_us_);
    estimate_coreset(cell_.coreset, now, coreset_rows, pdcch_scratch_);
  }
  const PdcchEstimate& estimate = pdcch_scratch_.estimate;

  // RACH: new-UE discovery in the common search space.
  {
    ScopedTimer rach_timer(*m_rach_scan_us_);
    rach_.process_slot(rx_, now, slot_index_, air_slot_index(), estimate,
                       pdcch_scratch_, result.dcis, result.new_ues);
  }
  for (const auto& ue : result.new_ues) {
    bind_rach_ue(ue.c_rnti, ue.config);
  }

  // Blind decoding of every tracked UE's search space.
  auto& per_ue = scratch_.per_ue;
  if (per_ue.size() < ues_.size()) {
    per_ue.resize(ues_.size());  // grow-only: keeps per-UE capacities
  }
  for (std::size_t i = 0; i < ues_.size(); ++i) {
    per_ue[i].clear();
  }
  {
    ScopedTimer blind_timer(*m_blind_decode_us_);
    blind_decode(now, estimate);
  }
  for (std::size_t i = 0; i < ues_.size(); ++i) {
    if (!per_ue[i].empty()) {
      ue_last_seen_[i] = slot_index_;
    }
    result.dcis.insert(result.dcis.end(), per_ue[i].begin(),
                       per_ue[i].end());
  }

  // Deduplicate (a DCI can surface via both the RACH scan and a UE scan
  // when search spaces overlap).
  std::sort(result.dcis.begin(), result.dcis.end(),
            [](const DecodedDci& a, const DecodedDci& b) {
              return std::tie(a.rnti, a.cce_start, a.agg_level) <
                     std::tie(b.rnti, b.cce_start, b.agg_level);
            });
  result.dcis.erase(
      std::unique(result.dcis.begin(), result.dcis.end(),
                  [](const DecodedDci& a, const DecodedDci& b) {
                    return a.rnti == b.rnti && a.cce_start == b.cce_start &&
                           a.agg_level == b.agg_level;
                  }),
      result.dcis.end());

  // Telemetry update: per-UE counters for plausible C-RNTIs only (SI/RA
  // broadcasts are not user telemetry).  Carrying the source index of
  // every user DCI makes the retransmission-flag write-back below O(n)
  // instead of the old all-pairs rescan.
  auto& user_dcis = scratch_.user_dcis;
  auto& user_dci_index = scratch_.user_dci_index;
  user_dcis.clear();
  user_dci_index.clear();
  for (std::size_t j = 0; j < result.dcis.size(); ++j) {
    if (is_plausible_crnti(result.dcis[j].rnti)) {
      user_dcis.push_back(result.dcis[j]);
      user_dci_index.push_back(j);
    }
  }
  telemetry_.observe_slot(slot_index_, user_dcis, data_res_total(),
                          config_.keep_capacity_history);
  // Propagate the retransmission flags back to the result.
  for (std::size_t j = 0; j < user_dcis.size(); ++j) {
    result.dcis[user_dci_index[j]].is_retx = user_dcis[j].is_retx;
  }

  cleanup_stale_ues();

  // Sync health, part 2: blind-decode yield, then the verdict.  kLost
  // falls back to kResync (tracked-UE state retained for the grace
  // window); kDegraded keeps tracking but flags the slot so downstream
  // consumers can tell "no traffic" from "going blind".
  sync_.observe_slot(user_dcis.size(), !ues_.empty());
  switch (sync_.health()) {
    case SyncHealth::kHealthy:
      break;
    case SyncHealth::kDegraded:
      result.degraded = true;
      m_degraded_slots_->inc();
      break;
    case SyncHealth::kLost:
      enter_resync();
      break;
  }
}

void NrScope::blind_decode(const SlotPoint& now,
                           const PdcchEstimate& estimate) {
  // Group candidate locations across UEs: the polar decode of a location
  // and its CRC are RNTI-independent, so one channel decode serves every
  // UE that monitors it (a UE's DCI is a location whose CRC names its
  // RNTI).  The grouping runs over a flat sorted list of packed keys
  // instead of a node-based map so the per-slot setup reuses the scratch
  // buffers allocation-free.
  auto& cands = scratch_.cands;
  cands.clear();
  for (std::size_t i = 0; i < ues_.size(); ++i) {
    const auto& ue = ues_[i];
    const DciFormat hint = ue.config.dl_format == DciFormat::kDl1_1
                               ? DciFormat::kDl1_1
                               : DciFormat::kDl1_0;
    const unsigned payload_bits = dci_payload_size(hint, cell_.n_prb);
    for (unsigned level : ue.config.ue_ss.agg_levels) {
      pdcch_candidates(cell_.coreset, ue.config.ue_ss, level, now, ue.rnti,
                       pdcch_scratch_.cand_cces);
      for (unsigned cce : pdcch_scratch_.cand_cces) {
        cands.push_back(candidate_key(payload_bits, level, cce, i));
      }
    }
  }
  // Payload-major order keeps every location of one payload size
  // contiguous, so each run channel-decodes as one batch.
  std::sort(cands.begin(), cands.end());
  m_candidates_->inc(cands.size());

  auto& locs = scratch_.batch_locs;
  auto& first = scratch_.batch_first;
  std::size_t c0 = 0;
  while (c0 < cands.size()) {
    // Carve one payload run into distinct (level, cce) locations, each
    // with its watcher range [first[j], first[j + 1]) in `cands`.
    const unsigned payload_bits = key_payload_bits(cands[c0]);
    locs.clear();
    first.clear();
    std::size_t c1 = c0;
    for (; c1 < cands.size() && key_payload_bits(cands[c1]) == payload_bits;
         ++c1) {
      if (c1 == c0 ||
          key_location(cands[c1]) != key_location(cands[c1 - 1])) {
        locs.push_back({key_level(cands[c1]), key_cce(cands[c1])});
        first.push_back(c1);
      }
    }
    first.push_back(c1);
    // Hit rate of the shared-location decode: 1 - locations/candidates
    // (every watcher beyond the first reuses an already-decoded location).
    m_candidate_locations_->inc(locs.size());

    // Every aggregation level's candidates decoded in a single batch from
    // the slot's estimate; a watcher's DCI is a location whose CRC names
    // the watcher's RNTI.
    decode_pdcch_batch(cell_.coreset, locs, payload_bits, now, estimate,
                       pdcch_scratch_);
    const auto& b = pdcch_scratch_.batch;
    const unsigned k_bits = payload_bits + kCrc24C.length();
    for (std::size_t j = 0; j < locs.size(); ++j) {
      if (!b.rnti[j]) {
        continue;
      }
      for (std::size_t c = first[j]; c < first[j + 1]; ++c) {
        const std::size_t i = key_ue_index(cands[c]);
        const auto& ue = ues_[i];
        if (*b.rnti[j] != ue.rnti) {
          continue;
        }
        const DciFormat hint = ue.config.dl_format == DciFormat::kDl1_1
                                   ? DciFormat::kDl1_1
                                   : DciFormat::kDl1_0;
        DecodedDci dci;
        dci.slot = slot_index_;
        dci.rnti = ue.rnti;
        dci.dci = Dci::unpack(hint, cell_.n_prb,
                              std::span<const std::uint8_t>(
                                  b.bits.data() + j * k_bits, payload_bits));
        dci.grant = translate_dci(dci.dci, ue.rnti, cell_.n_prb, cell_.pdsch,
                                  ue.config.mcs_table,
                                  ue.config.max_mimo_layers);
        dci.agg_level = locs[j].agg_level;
        dci.cce_start = locs[j].cce_start;
        scratch_.per_ue[i].push_back(dci);
      }
    }
    c0 = c1;
  }
}

void NrScope::process_slot(std::span<const cf32> samples,
                           SlotResult& result) {
  const auto start = std::chrono::steady_clock::now();
  rx_.reset(samples);
  // Reset the caller's result in place: clears keep the vectors'
  // capacities, so a reused result stops allocating once warmed up.
  result.slot = slot_index_;
  result.dcis.clear();
  result.new_ues.clear();
  result.mib.reset();
  result.sib1_decoded = false;
  result.processing_time_us = 0.0;
  result.degraded = false;
  switch (state_) {
    case State::kSearching:
      m_slots_searching_->inc();
      search(result);
      break;
    case State::kWaitSib1:
      m_slots_wait_sib1_->inc();
      wait_sib1(result);
      // The SSB recurs while waiting; nothing else to decode yet.
      break;
    case State::kTracking:
      m_slots_tracking_->inc();
      track(result);
      break;
    case State::kResync:
      m_slots_resync_->inc();
      resync(result);
      break;
  }
  result.sync_state = state_;
  m_demod_us_->observe(rx_.demod_us());
  m_demod_symbols_->inc(rx_.demodulated());
  ++slot_index_;
  const auto end = std::chrono::steady_clock::now();
  result.processing_time_us =
      std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace nrs
