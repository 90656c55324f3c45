#include "gnb/scheduler.h"

#include <algorithm>
#include <cmath>

#include "nr/tbs.h"

namespace nrs {
namespace {

/// PRBs needed to carry `bytes` at the given MCS (rounded up, min 1).
unsigned prbs_for_backlog(std::size_t bytes, unsigned mcs, McsTable table,
                          unsigned n_symbols, unsigned dmrs_re,
                          unsigned overhead) {
  const McsEntry entry = mcs_entry(table, mcs);
  TbsParams params;
  params.n_prb = 1;
  params.n_symbols = n_symbols;
  params.dmrs_re_per_prb = dmrs_re;
  params.overhead_re = overhead;
  params.code_rate = entry.code_rate();
  params.qm = entry.qm;
  const double bits_per_prb = static_cast<double>(tbs_n_re(params)) *
                              entry.efficiency();
  if (bits_per_prb <= 0.0) {
    return 1;
  }
  const double prbs = static_cast<double>(bytes) * 8.0 / bits_per_prb;
  return std::max(1u, static_cast<unsigned>(std::ceil(prbs)));
}

}  // namespace

std::vector<SchedDecision> schedule_tti(std::span<const SchedRequest> requests,
                                        unsigned n_prb, McsTable table,
                                        std::uint64_t round_robin_cursor,
                                        unsigned n_symbols, unsigned dmrs_re,
                                        unsigned overhead) {
  SchedScratch scratch;
  std::vector<SchedDecision> decisions;
  schedule_tti(requests, n_prb, table, round_robin_cursor, n_symbols, dmrs_re,
               overhead, scratch, decisions);
  return decisions;
}

void schedule_tti(std::span<const SchedRequest> requests, unsigned n_prb,
                  McsTable table, std::uint64_t round_robin_cursor,
                  unsigned n_symbols, unsigned dmrs_re, unsigned overhead,
                  SchedScratch& scratch, std::vector<SchedDecision>& out) {
  out.clear();
  // Candidates: anyone with data.
  std::vector<std::size_t>& order = scratch.order;
  order.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].full_buffer || requests[i].backlog_bytes > 0) {
      order.push_back(i);
    }
  }
  if (order.empty() || n_prb == 0) {
    return;
  }

  // Rotate the start position so leftover-PRB advantage moves around.
  std::rotate(order.begin(),
              order.begin() + (round_robin_cursor % order.size()),
              order.end());

  unsigned next_prb = 0;
  // Equal-share baseline so full-buffer UEs split the band, like the
  // paper's Fig. 14 two-UE experiment.
  const unsigned fair_share =
      std::max(1u, n_prb / static_cast<unsigned>(order.size()));
  for (std::size_t k = 0; k < order.size() && next_prb < n_prb; ++k) {
    const SchedRequest& req = requests[order[k]];
    const unsigned mcs = select_mcs_for_snr(table, req.snr_db);
    unsigned want = req.full_buffer
                        ? n_prb  // capped below
                        : prbs_for_backlog(req.backlog_bytes, mcs, table,
                                           n_symbols, dmrs_re, overhead);
    // Last UE in the round may take all remaining PRBs.
    const bool last = k + 1 == order.size();
    const unsigned cap = last ? n_prb - next_prb
                              : std::min(n_prb - next_prb,
                                         std::max(fair_share, 1u));
    const unsigned len = std::min(want, cap);
    if (len == 0) {
      continue;
    }
    out.push_back(SchedDecision{req.rnti, next_prb, len, mcs});
    next_prb += len;
  }
}

}  // namespace nrs
