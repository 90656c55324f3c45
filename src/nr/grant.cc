#include "nr/grant.h"

#include <sstream>

namespace nrs {

Grant translate_dci(const Dci& dci, Rnti rnti, unsigned n_prb_bwp,
                    const PdschConfig& pdsch, McsTable mcs_table_override,
                    unsigned n_layers) {
  Grant grant;
  grant.rnti = rnti;
  grant.format = dci.format;
  riv_decode(dci.freq_alloc_riv, n_prb_bwp, grant.prb_start, grant.prb_len);
  const TdraEntry tdra = tdra_entry(dci.time_alloc);
  grant.start_symbol = tdra.start_symbol;
  grant.n_symbols = tdra.n_symbols;
  grant.mcs = dci.mcs;
  // Fallback formats always use the base table (TS 38.214 5.1.3.1).
  const McsTable table =
      (dci.format == DciFormat::kDl1_0 || dci.format == DciFormat::kUl0_0)
          ? McsTable::kQam64
          : mcs_table_override;
  const unsigned table_size = mcs_table_size(table);
  const McsEntry entry = mcs_entry(table, dci.mcs % table_size);
  grant.modulation = entry.modulation();
  grant.code_rate = entry.code_rate();
  grant.n_layers = n_layers;
  grant.ndi = dci.ndi;
  grant.rv = dci.rv;
  grant.harq_id = dci.harq_id;

  TbsParams params;
  params.n_prb = grant.prb_len;
  params.n_symbols = grant.n_symbols;
  params.dmrs_re_per_prb = pdsch.dmrs_re_per_prb;
  params.overhead_re = pdsch.xoverhead;
  params.code_rate = grant.code_rate;
  params.qm = entry.qm;
  params.n_layers = n_layers;
  grant.tbs = calculate_tbs(params);
  return grant;
}

Grant translate_dci(const Dci& dci, Rnti rnti, const CellConfig& cell) {
  return translate_dci(dci, rnti, cell.n_prb, cell.pdsch,
                       cell.pdsch.mcs_table, cell.pdsch.max_mimo_layers);
}

PdschAllocation pdsch_allocation(const Grant& grant, std::uint16_t n_id) {
  PdschAllocation alloc;
  alloc.rnti = grant.rnti;
  alloc.prb_start = grant.prb_start;
  alloc.prb_len = grant.prb_len;
  alloc.start_symbol = grant.start_symbol;
  alloc.n_symbols = grant.n_symbols;
  alloc.modulation = grant.modulation;
  alloc.n_id = n_id;
  return alloc;
}

std::string Grant::to_string() const {
  std::ostringstream os;
  os << "rnti=0x" << std::hex << rnti << std::dec
     << ", f_alloc=" << prb_start << ":" << prb_len
     << ", t_alloc=" << start_symbol << ":" << n_symbols
     << ", mod=" << nrs::to_string(modulation)
     << ", nof_layers=" << n_layers << ", mcs=" << mcs << ", tbs=" << tbs
     << ", R=" << code_rate << ", rv=" << static_cast<int>(rv)
     << ", ndi=" << static_cast<int>(ndi)
     << ", harq_id=" << static_cast<int>(harq_id);
  return os.str();
}

}  // namespace nrs
