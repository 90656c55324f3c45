#include "nr/dci.h"

#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace nrs {
namespace {

// TDRA rows: PDSCH mapping type A allocations within a 14-symbol slot,
// leaving the first two symbols for the PDCCH.  Signalled via RRC in a real
// network; fixed here and shared by the gNB and the sniffer.
constexpr std::array<TdraEntry, 8> kTdraTable = {{
    {2, 12},  // full-slot data
    {2, 10},
    {2, 7},
    {2, 4},
    {2, 2},
    {9, 5},
    {4, 10},
    {12, 2},
}};

}  // namespace

const char* to_string(DciFormat format) {
  switch (format) {
    case DciFormat::kUl0_0:
      return "0_0";
    case DciFormat::kUl0_1:
      return "0_1";
    case DciFormat::kDl1_0:
      return "1_0";
    case DciFormat::kDl1_1:
      return "1_1";
  }
  return "?";
}

std::uint32_t riv_encode(unsigned start, unsigned length, unsigned n_prb) {
  if (length == 0 || start + length > n_prb) {
    throw std::invalid_argument("riv_encode: allocation out of range");
  }
  if (length - 1 <= n_prb / 2) {
    return n_prb * (length - 1) + start;
  }
  return n_prb * (n_prb - length + 1) + (n_prb - 1 - start);
}

void riv_decode(std::uint32_t riv, unsigned n_prb, unsigned& start,
                unsigned& length) {
  const unsigned l = riv / n_prb;
  const unsigned s = riv % n_prb;
  if (l + 1 + s <= n_prb) {
    length = l + 1;
    start = s;
  } else {
    length = n_prb - l + 1;
    start = n_prb - 1 - s;
  }
  if (length == 0 || start + length > n_prb) {
    // Invalid RIV: clamp to a single PRB so downstream stays in range; the
    // CRC check upstream should have rejected such payloads already.
    start = 0;
    length = 1;
  }
}

unsigned riv_bits(unsigned n_prb) {
  const double combos =
      static_cast<double>(n_prb) * static_cast<double>(n_prb + 1) / 2.0;
  return static_cast<unsigned>(std::ceil(std::log2(combos)));
}

namespace {

// Field widths common to the formats we support.
constexpr unsigned kTimeAllocBits = 3;  // indexes kTdraTable
constexpr unsigned kMcsBits = 5;
constexpr unsigned kHarqBits = 4;
constexpr unsigned kDaiBits = 2;
constexpr unsigned kTpcBits = 2;
constexpr unsigned kPucchResBits = 3;
constexpr unsigned kHarqFeedbackBits = 3;
constexpr unsigned kPortsBits = 3;
constexpr unsigned kSrsBits = 2;

unsigned body_size(DciFormat format, unsigned n_prb) {
  const unsigned fdra = riv_bits(n_prb);
  // format-identifier bit + FDRA + TDRA + MCS + NDI + RV + HARQ id.
  unsigned bits = 1 + fdra + kTimeAllocBits + kMcsBits + 1 + 2 + kHarqBits;
  switch (format) {
    case DciFormat::kUl0_0:
      bits += kTpcBits;
      break;
    case DciFormat::kUl0_1:
      bits += kTpcBits + kPortsBits + kSrsBits + 1 /* dmrs id */;
      break;
    case DciFormat::kDl1_0:
      bits += kDaiBits + kTpcBits + kPucchResBits + kHarqFeedbackBits;
      break;
    case DciFormat::kDl1_1:
      bits += kDaiBits + kTpcBits + kPucchResBits + kHarqFeedbackBits +
              kPortsBits + kSrsBits + 1 /* dmrs id */;
      break;
  }
  return bits;
}

}  // namespace

unsigned dci_payload_size(DciFormat format, unsigned n_prb) {
  // 3GPP aligns the sizes of 0_0 and 1_0 (TS 38.212 7.3.1.0) so one blind
  // decode covers both; we align all four formats pairwise the same way.
  switch (format) {
    case DciFormat::kUl0_0:
    case DciFormat::kDl1_0:
      return std::max(body_size(DciFormat::kUl0_0, n_prb),
                      body_size(DciFormat::kDl1_0, n_prb));
    case DciFormat::kUl0_1:
    case DciFormat::kDl1_1:
      return std::max(body_size(DciFormat::kUl0_1, n_prb),
                      body_size(DciFormat::kDl1_1, n_prb));
  }
  throw std::invalid_argument("unknown DCI format");
}

BitVector Dci::pack(unsigned n_prb) const {
  BitVector bits;
  pack(n_prb, bits);
  return bits;
}

void Dci::pack(unsigned n_prb, BitVector& out) const {
  BitWriter writer(std::move(out));
  // Format identifier (TS 38.212): 0 = uplink, 1 = downlink.
  writer.write(is_downlink(format) ? 1 : 0, 1);
  writer.write(freq_alloc_riv, riv_bits(n_prb));
  writer.write(time_alloc, kTimeAllocBits);
  writer.write(mcs, kMcsBits);
  writer.write(ndi, 1);
  writer.write(rv, 2);
  writer.write(harq_id, kHarqBits);
  switch (format) {
    case DciFormat::kUl0_0:
      writer.write(tpc, kTpcBits);
      break;
    case DciFormat::kUl0_1:
      writer.write(tpc, kTpcBits);
      writer.write(ports, kPortsBits);
      writer.write(srs_request, kSrsBits);
      writer.write(dmrs_id, 1);
      break;
    case DciFormat::kDl1_0:
      writer.write(dai, kDaiBits);
      writer.write(tpc, kTpcBits);
      writer.write(pucch_resource, kPucchResBits);
      writer.write(harq_feedback, kHarqFeedbackBits);
      break;
    case DciFormat::kDl1_1:
      writer.write(dai, kDaiBits);
      writer.write(tpc, kTpcBits);
      writer.write(pucch_resource, kPucchResBits);
      writer.write(harq_feedback, kHarqFeedbackBits);
      writer.write(ports, kPortsBits);
      writer.write(srs_request, kSrsBits);
      writer.write(dmrs_id, 1);
      break;
  }
  out = writer.take();
  const unsigned target = dci_payload_size(format, n_prb);
  if (out.size() < target) {
    out.resize(target, 0);  // size-alignment padding
  }
}

Dci Dci::unpack(DciFormat format, unsigned n_prb,
                std::span<const std::uint8_t> bits) {
  if (bits.size() != dci_payload_size(format, n_prb)) {
    throw std::invalid_argument("Dci::unpack: wrong payload size");
  }
  BitReader reader(bits);
  Dci dci;
  const bool dl_flag = reader.read_bit();
  // The format-identifier bit disambiguates UL/DL within a size-aligned
  // pair; the caller passes the pair's representative and we resolve here.
  switch (format) {
    case DciFormat::kUl0_0:
    case DciFormat::kDl1_0:
      dci.format = dl_flag ? DciFormat::kDl1_0 : DciFormat::kUl0_0;
      break;
    case DciFormat::kUl0_1:
    case DciFormat::kDl1_1:
      dci.format = dl_flag ? DciFormat::kDl1_1 : DciFormat::kUl0_1;
      break;
  }
  dci.freq_alloc_riv = static_cast<std::uint32_t>(reader.read(riv_bits(n_prb)));
  dci.time_alloc = static_cast<std::uint8_t>(reader.read(kTimeAllocBits));
  dci.mcs = static_cast<std::uint8_t>(reader.read(kMcsBits));
  dci.ndi = static_cast<std::uint8_t>(reader.read(1));
  dci.rv = static_cast<std::uint8_t>(reader.read(2));
  dci.harq_id = static_cast<std::uint8_t>(reader.read(kHarqBits));
  switch (dci.format) {
    case DciFormat::kUl0_0:
      dci.tpc = static_cast<std::uint8_t>(reader.read(kTpcBits));
      break;
    case DciFormat::kUl0_1:
      dci.tpc = static_cast<std::uint8_t>(reader.read(kTpcBits));
      dci.ports = static_cast<std::uint8_t>(reader.read(kPortsBits));
      dci.srs_request = static_cast<std::uint8_t>(reader.read(kSrsBits));
      dci.dmrs_id = static_cast<std::uint8_t>(reader.read(1));
      break;
    case DciFormat::kDl1_0:
      dci.dai = static_cast<std::uint8_t>(reader.read(kDaiBits));
      dci.tpc = static_cast<std::uint8_t>(reader.read(kTpcBits));
      dci.pucch_resource = static_cast<std::uint8_t>(reader.read(kPucchResBits));
      dci.harq_feedback =
          static_cast<std::uint8_t>(reader.read(kHarqFeedbackBits));
      break;
    case DciFormat::kDl1_1:
      dci.dai = static_cast<std::uint8_t>(reader.read(kDaiBits));
      dci.tpc = static_cast<std::uint8_t>(reader.read(kTpcBits));
      dci.pucch_resource = static_cast<std::uint8_t>(reader.read(kPucchResBits));
      dci.harq_feedback =
          static_cast<std::uint8_t>(reader.read(kHarqFeedbackBits));
      dci.ports = static_cast<std::uint8_t>(reader.read(kPortsBits));
      dci.srs_request = static_cast<std::uint8_t>(reader.read(kSrsBits));
      dci.dmrs_id = static_cast<std::uint8_t>(reader.read(1));
      break;
  }
  return dci;
}

std::string Dci::to_string() const {
  std::ostringstream os;
  os << "dci=" << nrs::to_string(format) << ", f_alloc=0x" << std::hex
     << freq_alloc_riv << std::dec << ", t_alloc=0x"
     << static_cast<int>(time_alloc) << ", mcs=" << static_cast<int>(mcs)
     << ", ndi=" << static_cast<int>(ndi) << ", rv=" << static_cast<int>(rv)
     << ", harq_id=" << static_cast<int>(harq_id)
     << ", dai=" << static_cast<int>(dai) << ", tpc=" << static_cast<int>(tpc)
     << ", harq_feedback=" << static_cast<int>(harq_feedback)
     << ", ports=" << static_cast<int>(ports)
     << ", srs_request=" << static_cast<int>(srs_request)
     << ", dmrs_id=" << static_cast<int>(dmrs_id);
  return os.str();
}

TdraEntry tdra_entry(std::uint8_t index) {
  return kTdraTable.at(index % kTdraTable.size());
}

unsigned tdra_table_size() { return kTdraTable.size(); }

}  // namespace nrs
