#include "nrscope/rach_tracker.h"

#include <algorithm>

#include "nr/grant.h"
#include "nr/pdsch.h"
#include "nr/rach.h"

namespace nrs {

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
        decode_pdsch(pdsch_allocation(grant, cell_.pci), slot, grant.tbs,
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
                               const PdcchEstimate& estimate,
                               PdcchScratch& scratch,
                               std::vector<DecodedDci>& decoded,
                               std::vector<NewUe>& new_ues) {
  const std::size_t new_ues_before = new_ues.size();
  if (cell_.coreset.n_prb == 0) {
    return;
  }

  // Prune TC-RNTIs whose MSG4 never showed up (failed RACHes); a stale
  // entry would otherwise wait forever for a DCI its RNTI names.
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

  // One batch channel-decodes every common-SS candidate of every
  // aggregation level (the polar decode is RNTI-independent) and reads
  // each one's RNTI off its CRC; each RNTI hypothesis below is then only a
  // compare.
  const unsigned payload_bits = decode_common_search_space(
      cell_.coreset, cell_.common_ss, cell_.n_prb, slot, estimate, scratch);
  const unsigned k_bits = payload_bits + kCrc24C.length();
  const auto& locs = scratch.cand_locs;
  const auto& batch = scratch.batch;
  for (std::size_t j = 0; j < locs.size(); ++j) {
    if (!batch.rnti[j]) {
      continue;  // not decoded, or no RNTI's mask makes the CRC pass
    }
    const Rnti rnti = *batch.rnti[j];
    const Dci dci =
        Dci::unpack(DciFormat::kDl1_0, cell_.n_prb,
                    std::span<const std::uint8_t>(
                        batch.bits.data() + j * k_bits, payload_bits));
    const auto decoded_dci = [&] {
      DecodedDci out;
      out.slot = slot_index;
      out.rnti = rnti;
      out.dci = dci;
      out.grant = translate_dci(dci, rnti, cell_);
      out.agg_level = locs[j].agg_level;
      out.cce_start = locs[j].cce_start;
      return out;
    };

    // 1) MSG2: RA-RNTI-masked DCIs (computable without any secret).
    if (std::find(ra_rntis_.begin(), ra_rntis_.end(), rnti) !=
        ra_rntis_.end()) {
      const DecodedDci out = decoded_dci();
      decoded.push_back(out);
      if (config_.mode == RachTrackMode::kMsg2Assisted) {
        // Decode the RAR to learn the TC-RNTI.
        ++pdsch_decodes_;
        count(metric_pdsch_);
        const auto rar_payload = decode_pdsch(
            pdsch_allocation(out.grant, cell_.pci), slot, out.grant.tbs,
            grid.symbols(out.grant.start_symbol, out.grant.n_symbols));
        if (rar_payload) {
          const auto rar = Rar::unpack(*rar_payload);
          if (rar && is_plausible_crnti(rar->tc_rnti)) {
            pending_tc_[rar->tc_rnti] = slot_index;
            ++msg2_decoded_;
            count(metric_msg2_);
          }
        }
      }
      continue;
    }

    // 2) MSG4 via pending TC-RNTIs (MSG2-assisted mode).
    if (config_.mode == RachTrackMode::kMsg2Assisted) {
      if (const auto it = pending_tc_.find(rnti); it != pending_tc_.end()) {
        const DecodedDci out = decoded_dci();
        decoded.push_back(out);
        if (auto ue = handle_msg4(rnti, dci, grid, slot, slot_index)) {
          new_ues.push_back(*ue);
        }
        pending_tc_.erase(it);
      }
      continue;
    }

    // 3) XOR recovery: the CRC named the masking RNTI (the full 24-bit CRC
    // checks under it; the upper 8 CRC bits are unmasked, so this rejects
    // 255/256 noise decodes); validate it.
    if (!is_plausible_crnti(rnti) || !is_downlink(dci.format)) {
      ++rejected_recoveries_;
      count(metric_rejected_);
      continue;
    }
    if (auto ue = handle_msg4(rnti, dci, grid, slot, slot_index)) {
      decoded.push_back(decoded_dci());
      new_ues.push_back(*ue);
    }
  }
  if (metric_crnti_ != nullptr && new_ues.size() > new_ues_before) {
    metric_crnti_->inc(new_ues.size() - new_ues_before);
  }
}

}  // namespace nrs
