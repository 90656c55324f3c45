// MAC downlink scheduler: splits the PDSCH PRBs of one TTI among the UEs
// with pending data, picks each UE's MCS from link adaptation, and sizes
// allocations to their backlog.  The order is round-robin: the paper's lab
// gNBs (srsRAN, Amarisoft) default to proportional fair, which with its
// full-buffer iperf traffic behaves like the round-robin equal split
// visible in its Fig. 14.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "nr/mcs_tables.h"

namespace nrs {

/// One UE's scheduling input for a TTI.
struct SchedRequest {
  Rnti rnti = kInvalidRnti;
  std::size_t backlog_bytes = 0;
  bool full_buffer = false;
  double snr_db = 20.0;  ///< link-adaptation SNR (CQI + OLLA offset)
};

/// One UE's allocation decision.
struct SchedDecision {
  Rnti rnti = kInvalidRnti;
  unsigned prb_start = 0;
  unsigned prb_len = 0;
  unsigned mcs = 0;
};

/// Workspace for the allocation-free schedule_tti overload (hot-path
/// memory discipline, DESIGN.md): keeps the candidate ordering's capacity
/// across TTIs.
struct SchedScratch {
  std::vector<std::size_t> order;
};

/// Allocate `n_prb` PRBs among `requests` for one TTI.
/// Contiguous (type-1) allocations; UEs with empty backlog get nothing;
/// allocations shrink to the backlog so small flows don't waste PRBs.
/// The candidates are served in request order rotated by
/// `round_robin_cursor`.
/// `n_symbols`/`dmrs_re`/`overhead` size the per-PRB capacity estimate.
std::vector<SchedDecision> schedule_tti(std::span<const SchedRequest> requests,
                                        unsigned n_prb, McsTable table,
                                        std::uint64_t round_robin_cursor,
                                        unsigned n_symbols = 12,
                                        unsigned dmrs_re = 12,
                                        unsigned overhead = 0);

/// Same, clearing and filling caller-owned `out` (capacity reused across
/// TTIs; allocation-free once warm).
void schedule_tti(std::span<const SchedRequest> requests, unsigned n_prb,
                  McsTable table, std::uint64_t round_robin_cursor,
                  unsigned n_symbols, unsigned dmrs_re, unsigned overhead,
                  SchedScratch& scratch, std::vector<SchedDecision>& out);

}  // namespace nrs
