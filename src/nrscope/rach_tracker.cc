#include "nrscope/rach_tracker.h"

#include "nr/grant.h"
#include "nr/pdsch.h"
#include "nr/rach.h"

namespace nrs {
namespace {

/// Build the PDSCH allocation a decoded DCI points at.
PdschAllocation alloc_from_grant(const Grant& grant, std::uint16_t pci) {
  PdschAllocation alloc;
  alloc.rnti = grant.rnti;
  alloc.prb_start = grant.prb_start;
  alloc.prb_len = grant.prb_len;
  alloc.start_symbol = grant.start_symbol;
  alloc.n_symbols = grant.n_symbols;
  alloc.modulation = grant.modulation;
  alloc.n_id = pci;
  return alloc;
}

}  // namespace

void RachTracker::bind_metrics(MetricsRegistry& registry) {
  metric_msg2_ = &registry.counter("rach.msg2_matches");
  metric_msg4_ = &registry.counter("rach.msg4_matches");
  metric_crnti_ = &registry.counter("rach.crnti_discoveries");
  metric_pdsch_ = &registry.counter("rach.pdsch_decodes");
  metric_rejected_ = &registry.counter("rach.rejected_recoveries");
}

std::optional<NewUe> RachTracker::handle_msg4(Rnti rnti, const Dci& dci,
                                              SlotGrid& grid,
                                              const SlotPoint& slot,
                                              std::uint64_t slot_index) {
  const Grant grant = translate_dci(dci, rnti, cell_);
  NewUe ue;
  ue.c_rnti = rnti;
  ue.slot = slot_index;

  // Decode the RRC Setup PDSCH when we still need its contents (no cached
  // copy yet), when the ablation forces it, or — in XOR mode — when the
  // configuration demands CRC verification of every recovery.
  const bool need_decode =
      !cached_rrc_.has_value() || config_.always_decode_msg4_pdsch ||
      (config_.mode == RachTrackMode::kXorRecovery &&
       config_.verify_msg4_pdsch);
  if (need_decode) {
    ++pdsch_decodes_;
    count(metric_pdsch_);
    const auto payload =
        decode_pdsch(alloc_from_grant(grant, cell_.pci), slot, grant.tbs,
                     grid.symbols(grant.start_symbol, grant.n_symbols));
    if (payload) {
      const auto setup = RrcSetup::unpack(*payload);
      if (setup) {
        cached_rrc_ = *setup;
        ue.config = *setup;
        ue.verified = true;
        ++msg4_decoded_;
        count(metric_msg4_);
        return ue;
      }
    }
    // In XOR mode an unverifiable recovery is rejected (likely a false
    // positive); in MSG2-assisted mode the TC-RNTI match already vouches
    // for the DCI, so fall through to the cached/default configuration.
    if (config_.mode == RachTrackMode::kXorRecovery) {
      ++rejected_recoveries_;
      count(metric_rejected_);
      return std::nullopt;
    }
  }
  ++msg4_decoded_;
  count(metric_msg4_);
  ue.config = cached_rrc_.value_or(RrcSetup{});
  ue.verified = cached_rrc_.has_value();
  return ue;
}

void RachTracker::process_slot(SlotGrid& grid,
                               const SlotPoint& slot,
                               std::uint64_t slot_index,
                               std::uint64_t air_slot,
                               PdcchScratch& scratch,
                               std::vector<DecodedDci>& decoded,
                               std::vector<NewUe>& new_ues) {
  const std::size_t new_ues_before = new_ues.size();
  if (cell_.coreset.n_prb == 0) {
    return;
  }

  // Prune TC-RNTIs whose MSG4 never showed up (failed RACHes); a stale
  // entry costs one CRC test per candidate forever otherwise.
  const std::uint64_t ttl = 4ull * std::max<std::uint64_t>(
                                        cell_.rach.prach_period_slots, 40);
  std::erase_if(pending_tc_, [&](const auto& entry) {
    return slot_index > entry.second + ttl;
  });

  // RA-RNTIs that could legitimately appear now.  A loaded gNB may answer
  // preambles well after the nominal response window (its MSG2s queue
  // behind PDCCH capacity), so scan back a full PRACH period as well.
  const std::uint64_t lookback = std::max<std::uint64_t>(
      cell_.rach.ra_response_window, cell_.rach.prach_period_slots);
  ra_rntis_.clear();
  for (std::uint64_t back = 0; back <= lookback; ++back) {
    if (air_slot < back) {
      break;
    }
    const std::uint64_t occasion = air_slot - back;
    if (is_prach_occasion(cell_.rach, occasion)) {
      ra_rntis_.push_back(ra_rnti_for_slot(cell_.rach, occasion));
    }
  }

  // One structure-of-arrays batch channel-decodes every common-SS
  // candidate of every aggregation level (the polar decode is
  // RNTI-independent); each RNTI hypothesis below is then only a CRC test
  // against the shared payload+CRC bits instead of a fresh channel decode.
  const unsigned payload_bits =
      dci_payload_size(DciFormat::kDl1_0, cell_.n_prb);
  const unsigned k_bits = payload_bits + kCrc24C.length();
  auto& locs = scratch.cand_locs;
  locs.clear();
  for (unsigned level : cell_.common_ss.agg_levels) {
    pdcch_candidates(cell_.coreset, cell_.common_ss, level, slot, 0,
                     scratch.cand_cces);
    for (unsigned cce : scratch.cand_cces) {
      locs.push_back({level, cce});
    }
  }
  decode_pdcch_batch(cell_.coreset, locs, payload_bits, slot,
                     grid.symbols(0, cell_.coreset.duration), scratch);
  const auto& batch = scratch.batch;
  for (std::size_t j = 0; j < locs.size(); ++j) {
    if (!batch.ok[j]) {
      continue;
    }
    const unsigned level = locs[j].agg_level;
    const unsigned cce = locs[j].cce_start;
    const std::span<const std::uint8_t> bits(
        batch.bits.data() + j * k_bits, k_bits);
    // 1) MSG2: RA-RNTI-masked DCIs (computable without any secret).
    bool matched = false;
    for (Rnti ra : ra_rntis_) {
      if (!check_pdcch_crc(bits, ra)) {
        continue;
      }
      matched = true;
      DecodedDci out;
      out.slot = slot_index;
      out.rnti = ra;
      out.dci =
          Dci::unpack(DciFormat::kDl1_0, cell_.n_prb,
                      bits.first(payload_bits));
      out.grant = translate_dci(out.dci, ra, cell_);
      out.agg_level = level;
      out.cce_start = cce;
      decoded.push_back(out);
      if (config_.mode == RachTrackMode::kMsg2Assisted) {
        // Decode the RAR to learn the TC-RNTI.
        ++pdsch_decodes_;
        count(metric_pdsch_);
        const auto payload = decode_pdsch(
            alloc_from_grant(out.grant, cell_.pci), slot, out.grant.tbs,
            grid.symbols(out.grant.start_symbol, out.grant.n_symbols));
        if (payload) {
          const auto rar = Rar::unpack(*payload);
          if (rar && is_plausible_crnti(rar->tc_rnti)) {
            pending_tc_[rar->tc_rnti] = slot_index;
            ++msg2_decoded_;
            count(metric_msg2_);
          }
        }
      }
      break;
    }
    if (matched) {
      continue;
    }

    // 2) MSG4 via pending TC-RNTIs (MSG2-assisted mode).
    if (config_.mode == RachTrackMode::kMsg2Assisted) {
      for (auto it = pending_tc_.begin(); it != pending_tc_.end(); ++it) {
        if (!check_pdcch_crc(bits, it->first)) {
          continue;
        }
        DecodedDci out;
        out.slot = slot_index;
        out.rnti = it->first;
        out.dci = Dci::unpack(DciFormat::kDl1_0, cell_.n_prb,
                              bits.first(payload_bits));
        out.grant = translate_dci(out.dci, it->first, cell_);
        out.agg_level = level;
        out.cce_start = cce;
        decoded.push_back(out);
        if (auto ue = handle_msg4(it->first, out.dci, grid, slot,
                                  slot_index)) {
          new_ues.push_back(*ue);
        }
        pending_tc_.erase(it);
        matched = true;
        break;
      }
      if (matched) {
        continue;
      }
    }

    // 3) XOR recovery: recover the mask from the shared bits, validate.
    if (config_.mode == RachTrackMode::kXorRecovery) {
      const Rnti mask = kCrc24C.recover_mask(bits);
      // With the mask applied the full 24-bit CRC must check out; the
      // upper 8 CRC bits are unmasked, so this rejects 255/256 noise
      // decodes.
      if (!kCrc24C.check_masked(bits, mask)) {
        continue;
      }
      const Dci dci = Dci::unpack(DciFormat::kDl1_0, cell_.n_prb,
                                  bits.first(payload_bits));
      if (!is_plausible_crnti(mask) || !is_downlink(dci.format)) {
        ++rejected_recoveries_;
        count(metric_rejected_);
        continue;
      }
      if (auto ue = handle_msg4(mask, dci, grid, slot, slot_index)) {
        DecodedDci out;
        out.slot = slot_index;
        out.rnti = mask;
        out.dci = dci;
        out.grant = translate_dci(dci, mask, cell_);
        out.agg_level = level;
        out.cce_start = cce;
        decoded.push_back(out);
        new_ues.push_back(*ue);
      }
    }
  }
  if (metric_crnti_ != nullptr && new_ues.size() > new_ues_before) {
    metric_crnti_->inc(new_ues.size() - new_ues_before);
  }
}

}  // namespace nrs
