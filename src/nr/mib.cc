#include "nr/mib.h"

#include "phy/pss.h"
#include "phy/sss.h"

namespace nrs {
namespace {

/// PSS/SSS occupy 127 of the SSB window's 144 subcarriers, centered.
constexpr unsigned kSyncScOffset =
    (SsbLocation::kNPrb * kSubcarriersPerPrb - kPssLength) / 2;

}  // namespace

BitVector Mib::pack() const {
  BitWriter writer;
  writer.write(sfn, 10);
  writer.write(static_cast<unsigned>(scs_common), 2);
  writer.write(coreset0_rb_start, 8);
  writer.write(coreset0_n_prb6, 8);
  writer.write(coreset0_duration, 2);
  writer.write(searchspace0, 4);
  writer.write(cell_barred ? 1 : 0, 1);
  writer.align_to(8);  // pad like the 3GPP spare bits
  return writer.take();
}

Mib Mib::unpack(std::span<const std::uint8_t> bits) {
  BitReader reader(bits);
  Mib mib;
  mib.sfn = static_cast<std::uint16_t>(reader.read(10));
  mib.scs_common = static_cast<Scs>(reader.read(2));
  mib.coreset0_rb_start = static_cast<std::uint8_t>(reader.read(8));
  mib.coreset0_n_prb6 = static_cast<std::uint8_t>(reader.read(8));
  mib.coreset0_duration = static_cast<std::uint8_t>(reader.read(2));
  mib.searchspace0 = static_cast<std::uint8_t>(reader.read(4));
  mib.cell_barred = reader.read_bit();
  return mib;
}

unsigned mib_payload_size() { return 40; }  // 35 field bits + pad

CoresetConfig pbch_coreset(std::uint16_t pci, const SsbLocation& ssb) {
  CoresetConfig coreset;
  coreset.id = 0;
  coreset.rb_start = ssb.prb_start;
  coreset.n_prb = SsbLocation::kNPrb;
  coreset.duration = 2;  // PBCH on symbols 1-2 via a symbol offset below
  coreset.interleaved = false;
  coreset.shift = pci;
  coreset.n_id = pci;
  return coreset;
}

void encode_ssb(std::uint16_t pci, const SsbLocation& ssb, const Mib& mib,
                const SlotPoint& slot, ResourceGrid& grid,
                PdcchEncodeScratch& scratch) {
  const unsigned sc0 =
      ssb.prb_start * kSubcarriersPerPrb + kSyncScOffset;
  // PSS on symbol 0.
  const auto pss = pss_sequence(pci % 3);
  for (unsigned n = 0; n < kPssLength; ++n) {
    grid.at(SsbLocation::kPssSymbol, sc0 + n) = cf32(pss[n], 0.0f);
  }
  // SSS on symbol 3.
  const auto sss = sss_sequence(pci / 3, pci % 3);
  for (unsigned n = 0; n < kPssLength; ++n) {
    grid.at(SsbLocation::kSssSymbol, sc0 + n) = cf32(sss[n], 0.0f);
  }
  // PBCH: the MIB payload through the polar chain on symbols 1-2.  The
  // pseudo-CORESET starts at symbol 0, so we encode into a 2-symbol grid
  // and copy its rows 0-1 to rows 1-2.
  const CoresetConfig coreset = pbch_coreset(pci, ssb);
  ResourceGrid pbch(grid.n_prb(), 2);
  PdcchAllocation alloc;
  alloc.rnti = 0;
  alloc.agg_level = coreset.n_cce();
  alloc.cce_start = 0;
  encode_pdcch_payload(coreset, alloc, mib.pack(), slot, pbch, scratch);
  for (unsigned sym = 0; sym < 2; ++sym) {
    for (unsigned sc = ssb.prb_start * kSubcarriersPerPrb;
         sc < (ssb.prb_start + SsbLocation::kNPrb) * kSubcarriersPerPrb;
         ++sc) {
      grid.at(sym + 1, sc) = pbch.at(sym, sc);
    }
  }
}

std::optional<Mib> decode_mib(std::uint16_t pci, const SsbLocation& ssb,
                              const SlotPoint& slot,
                              const ResourceGrid& grid,
                              PdcchScratch& scratch) {
  const CoresetConfig coreset = pbch_coreset(pci, ssb);
  // Undo the one-symbol shift used by encode_ssb.
  ResourceGrid pbch(grid.n_prb(), 2);
  for (unsigned sym = 0; sym < 2; ++sym) {
    for (unsigned sc = ssb.prb_start * kSubcarriersPerPrb;
         sc < (ssb.prb_start + SsbLocation::kNPrb) * kSubcarriersPerPrb;
         ++sc) {
      pbch.at(sym, sc) = grid.at(sym + 1, sc);
    }
  }
  const unsigned payload_bits = mib_payload_size();
  const PdcchCandidateLoc loc{coreset.n_cce(), 0};
  const PdcchEstimate& estimate =
      estimate_coreset(coreset, slot, pbch, scratch);
  decode_pdcch_batch(coreset, std::span(&loc, 1), payload_bits, slot,
                     estimate, scratch);
  if (scratch.batch.rnti[0] != Rnti{0}) {
    return std::nullopt;  // no MIB here: the PBCH CRC carries no mask
  }
  return Mib::unpack(std::span<const std::uint8_t>(
      scratch.batch.bits.data(), payload_bits));
}

}  // namespace nrs
