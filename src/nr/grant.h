// Translation of a decoded DCI into a scheduling grant (the paper's
// Appendix B shows exactly this DCI -> grant step).  The grant carries the
// physical allocation, the modulation/code-rate from the MCS tables, and
// the Transport Block Size — the quantity NR-Scope sums into per-UE
// throughput.
#pragma once

#include <string>

#include "common/types.h"
#include "nr/cell_config.h"
#include "nr/dci.h"
#include "nr/pdsch.h"
#include "nr/tbs.h"

namespace nrs {

struct Grant {
  Rnti rnti = kInvalidRnti;
  DciFormat format = DciFormat::kDl1_0;

  unsigned prb_start = 0;
  unsigned prb_len = 0;
  unsigned start_symbol = 0;
  unsigned n_symbols = 0;

  unsigned mcs = 0;
  Modulation modulation = Modulation::kQpsk;
  double code_rate = 0.0;
  unsigned n_layers = 1;
  unsigned tbs = 0;  ///< bits

  std::uint8_t ndi = 0;
  std::uint8_t rv = 0;
  std::uint8_t harq_id = 0;

  /// Resource element groups (PRB x symbol units) this grant occupies —
  /// the unit of the paper's Fig. 8 decode-accuracy comparison.
  [[nodiscard]] unsigned n_regs() const { return prb_len * n_symbols; }

  /// Appendix-B style rendering.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const Grant&) const = default;
};

/// Translate `dci` for a UE whose MCS table / MIMO layers are known from
/// RRC.  Both the gNB's scheduler log and the sniffer's telemetry run
/// through this one function, so ground truth and estimate agree by
/// construction whenever the DCI bits were decoded correctly.
Grant translate_dci(const Dci& dci, Rnti rnti, unsigned n_prb_bwp,
                    const PdschConfig& pdsch,
                    McsTable mcs_table_override, unsigned n_layers);

/// Convenience: translate with the cell's default PDSCH parameters.
Grant translate_dci(const Dci& dci, Rnti rnti, const CellConfig& cell);

/// The PDSCH a grant points at, scrambled with the grant's RNTI and
/// `n_id` (the PCI).  The gNB encodes and the sniffer decodes through
/// this one mapping.
PdschAllocation pdsch_allocation(const Grant& grant, std::uint16_t n_id);

}  // namespace nrs
