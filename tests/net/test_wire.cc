// Wire-protocol unit tests: exact round-trips for every payload type, a
// fuzz-style randomized round-trip sweep, truncation/corruption robustness
// (decode must return nullopt, never crash or over-read), incremental
// frame parsing across arbitrary chunk boundaries, the exact-version
// header check, and golden bytes for every frame.  The WireCodec typed
// tests at the end run the generic properties over every payload type.
#include <gtest/gtest.h>

#include <concepts>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"

namespace nrs {
namespace {

// ---- Helpers ---------------------------------------------------------

/// The payload bytes of `value` (no frame header).
template <class T>
std::vector<std::uint8_t> payload_of(const T& value) {
  WireWriter w;
  w(value);
  return w.take();
}

template <class T>
void expect_every_truncation_fails(const T& value) {
  const std::vector<std::uint8_t> full = payload_of(value);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(
        decode_payload<T>(std::span<const std::uint8_t>(full.data(), len))
            .has_value())
        << "prefix length " << len;
  }
}

template <class T>
void expect_trailing_byte_rejected(const T& value, std::uint8_t extra) {
  std::vector<std::uint8_t> bytes = payload_of(value);
  bytes.push_back(extra);
  EXPECT_FALSE(decode_payload<T>(bytes).has_value());
}

/// `frame` re-stamped with a foreign protocol version (header bytes 4-5),
/// the way an older or newer peer would send it.
std::vector<std::uint8_t> with_version(std::vector<std::uint8_t> frame,
                                       std::uint16_t version) {
  frame[4] = static_cast<std::uint8_t>(version);
  frame[5] = static_cast<std::uint8_t>(version >> 8);
  return frame;
}

std::vector<std::uint8_t> heartbeat_frame() {
  return encode_frame(FrameType::kHeartbeat, {});
}

// ---- Generators for randomized round-trips ---------------------------

Dci random_dci(Rng& rng) {
  Dci dci;
  dci.format = static_cast<DciFormat>(rng.uniform_int(0, 3));
  dci.freq_alloc_riv = static_cast<std::uint32_t>(
      rng.uniform_int(0, 0xFFFFFFFFLL));
  dci.time_alloc = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  dci.mcs = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
  dci.ndi = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  dci.rv = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.harq_id = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  dci.dai = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.tpc = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.pucch_resource = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
  dci.harq_feedback = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
  dci.ports = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.srs_request = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.dmrs_id = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  return dci;
}

Grant random_grant(Rng& rng) {
  static constexpr Modulation kMods[] = {
      Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
      Modulation::kQam64, Modulation::kQam256};
  Grant grant;
  grant.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
  grant.format = static_cast<DciFormat>(rng.uniform_int(0, 3));
  grant.prb_start = static_cast<unsigned>(rng.uniform_int(0, 270));
  grant.prb_len = static_cast<unsigned>(rng.uniform_int(1, 270));
  grant.start_symbol = static_cast<unsigned>(rng.uniform_int(0, 13));
  grant.n_symbols = static_cast<unsigned>(rng.uniform_int(1, 14));
  grant.mcs = static_cast<unsigned>(rng.uniform_int(0, 31));
  grant.modulation = kMods[rng.uniform_int(0, 4)];
  grant.code_rate = rng.uniform();
  grant.n_layers = static_cast<unsigned>(rng.uniform_int(1, 4));
  grant.tbs = static_cast<unsigned>(rng.uniform_int(0, 1 << 20));
  grant.ndi = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  grant.rv = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  grant.harq_id = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  return grant;
}

SlotResult random_slot_result(Rng& rng) {
  SlotResult result;
  result.slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  result.processing_time_us = rng.uniform(0.0, 50000.0);
  result.sib1_decoded = rng.chance(0.5);
  if (rng.chance(0.3)) {
    Mib mib;
    mib.sfn = static_cast<std::uint16_t>(rng.uniform_int(0, 1023));
    mib.scs_common = static_cast<Scs>(rng.uniform_int(0, 2));
    mib.coreset0_rb_start =
        static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    mib.coreset0_n_prb6 = static_cast<std::uint8_t>(rng.uniform_int(1, 16));
    mib.coreset0_duration =
        static_cast<std::uint8_t>(rng.uniform_int(1, 3));
    mib.searchspace0 = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    mib.cell_barred = rng.chance(0.1);
    result.mib = mib;
  }
  const auto n_dcis = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < n_dcis; ++i) {
    DecodedDci dci;
    dci.slot = result.slot;
    dci.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
    dci.dci = random_dci(rng);
    dci.grant = random_grant(rng);
    dci.agg_level = 1u << rng.uniform_int(0, 4);
    dci.cce_start = static_cast<unsigned>(rng.uniform_int(0, 100));
    dci.is_retx = rng.chance(0.2);
    result.dcis.push_back(dci);
  }
  const auto n_ues = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < n_ues; ++i) {
    NewUe ue;
    ue.c_rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
    ue.slot = result.slot;
    ue.verified = rng.chance(0.8);
    ue.config.ue_ss.ue_specific = true;
    ue.config.ue_ss.agg_levels.clear();
    for (std::int64_t l = 0, n = rng.uniform_int(1, 4); l < n; ++l) {
      ue.config.ue_ss.agg_levels.push_back(
          1u << static_cast<unsigned>(rng.uniform_int(0, 4)));
    }
    ue.config.ue_ss.candidates_per_level =
        static_cast<unsigned>(rng.uniform_int(1, 8));
    ue.config.dl_format =
        rng.chance(0.5) ? DciFormat::kDl1_0 : DciFormat::kDl1_1;
    ue.config.mcs_table = static_cast<McsTable>(rng.uniform_int(1, 3));
    ue.config.max_mimo_layers =
        static_cast<unsigned>(rng.uniform_int(1, 4));
    ue.config.n_harq_processes =
        static_cast<unsigned>(rng.uniform_int(1, 16));
    result.new_ues.push_back(ue);
  }
  return result;
}

MetricsSnapshot sample_metrics_snapshot() {
  MetricsRegistry registry;
  registry.counter("net.frames_sent").inc(123);
  registry.counter("pipeline.slots_pushed").inc(456789);
  registry.gauge("net.clients").set(-3);
  Histogram& hist = registry.histogram("pipeline.demod_us");
  hist.observe(12.5);
  hist.observe(900.0);
  hist.observe(1e6);  // overflow bucket
  return registry.snapshot();
}

// ---- Primitives ------------------------------------------------------

TEST(Wire, PrimitivesRoundTripLittleEndian) {
  WireWriter w;
  w(std::uint8_t{0xAB}, std::uint16_t{0x1234}, std::uint32_t{0xDEADBEEF},
    std::uint64_t{0x0123456789ABCDEFull}, -1234.5e-7, std::string("nrscope"));
  const std::vector<std::uint8_t>& data = w.data();
  // Spot-check the byte order of the u16: LSB first.
  EXPECT_EQ(data[1], 0x34);
  EXPECT_EQ(data[2], 0x12);

  WireReader r(data);
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  std::string str;
  r(u8, u16, u32, u64, f64, str);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(f64, -1234.5e-7);
  EXPECT_EQ(str, "nrscope");
  EXPECT_TRUE(r.done());
}

TEST(Wire, ReaderPastEndSetsStickyError) {
  const std::vector<std::uint8_t> data = {0x01, 0x02};
  WireReader r(data);
  std::uint32_t u32 = 0;
  r(u32);  // only 2 bytes available
  EXPECT_EQ(u32, 0u);
  EXPECT_FALSE(r.ok());
  std::uint8_t u8 = 0;
  r(u8);  // stays failed, even though a byte was left before the error
  EXPECT_EQ(u8, 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

// ---- Payload round-trips ---------------------------------------------

TEST(Wire, HelloRoundTrip) {
  HelloInfo hello;
  hello.next_slot = 987654321;
  const auto decoded = decode_payload<HelloInfo>(payload_of(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, hello);
}

TEST(Wire, SlotResultRoundTripExhaustiveFields) {
  Rng rng(7);
  SlotResult result = random_slot_result(rng);
  while (result.dcis.empty() || result.new_ues.empty() || !result.mib) {
    result = random_slot_result(rng);
  }
  const auto decoded = decode_payload<SlotResult>(payload_of(result));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result);
}

TEST(Wire, SlotResultFuzzRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const SlotResult result = random_slot_result(rng);
    const auto decoded = decode_payload<SlotResult>(payload_of(result));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_EQ(*decoded, result) << "iteration " << i;
  }
}

TEST(Wire, SlotResultEveryTruncationFailsCleanly) {
  Rng rng(3);
  SlotResult result = random_slot_result(rng);
  while (result.dcis.size() < 2 || result.new_ues.empty()) {
    result = random_slot_result(rng);
  }
  expect_every_truncation_fails(result);
}

TEST(Wire, SlotResultRejectsCorruptEnums) {
  SlotResult result;
  result.slot = 5;
  DecodedDci dci;
  dci.rnti = 0x4601;
  result.dcis.push_back(dci);
  std::vector<std::uint8_t> bytes = payload_of(result);
  // The DCI format byte sits right after slot(8) + time(8) + flags(1) +
  // n_dcis(4) + dci.slot(8) + rnti(2) = offset 31.  Make it nonsense.
  bytes[31] = 0x77;
  EXPECT_FALSE(decode_payload<SlotResult>(bytes).has_value());
}

TEST(Wire, SlotResultRejectsTrailingGarbage) {
  SlotResult result;
  result.slot = 1;
  expect_trailing_byte_rejected(result, 0x00);
}

TEST(Wire, MetricsSnapshotRoundTrip) {
  const MetricsSnapshot snapshot = sample_metrics_snapshot();
  const auto decoded = decode_payload<MetricsSnapshot>(payload_of(snapshot));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->counters.size(), snapshot.counters.size());
  EXPECT_EQ(decoded->counter_value("net.frames_sent"), 123u);
  EXPECT_EQ(decoded->counter_value("pipeline.slots_pushed"), 456789u);
  const auto* gauge = decoded->find_gauge("net.clients");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, -3);
  const auto* hist = decoded->find_histogram("pipeline.demod_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_DOUBLE_EQ(hist->sum, 12.5 + 900.0 + 1e6);
  EXPECT_EQ(hist->counts.size(), hist->bounds.size() + 1);
  // Percentiles survive the trip (they are computed from bucket data).
  const auto* original = snapshot.find_histogram("pipeline.demod_us");
  EXPECT_DOUBLE_EQ(hist->p95(), original->p95());
}

TEST(Wire, MetricsSnapshotTruncationFailsCleanly) {
  expect_every_truncation_fails(sample_metrics_snapshot());
}

// The sort flag is not on the wire: the decoder re-derives it, so a
// hand-built unsorted snapshot is never binary-searched.
TEST(Wire, MetricsDecodeRederivesSortFlag) {
  const auto sorted =
      decode_payload<MetricsSnapshot>(payload_of(sample_metrics_snapshot()));
  ASSERT_TRUE(sorted.has_value());
  EXPECT_TRUE(sorted->sorted_by_name);

  MetricsSnapshot unsorted;
  unsorted.counters = {{"z.last", 1}, {"a.first", 2}};
  unsorted.sorted_by_name = true;  // a lie the decoder must not believe
  const auto decoded = decode_payload<MetricsSnapshot>(payload_of(unsorted));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->sorted_by_name);
  EXPECT_EQ(decoded->counter_value("a.first"), 2u);
}

QueryRequest sample_query_request() {
  QueryRequest request;
  request.correlation_id = 0x1122334455667788ull;
  request.kind = QueryKind::kAggregate;
  request.cell = 3;
  request.rnti = 0x4601;
  request.metric = 7;
  request.slot_from = 1000;
  request.slot_to = 9000;
  request.bucket_slots = 500;
  request.k = 4;
  return request;
}

QueryResponse sample_query_response() {
  QueryResponse response;
  response.correlation_id = 0xCAFEBABEull;
  response.status = QueryStatus::kOk;
  response.kind = QueryKind::kTopK;
  response.error = "";
  response.rows = {{100, 1.5}, {101, -2.25}, {105, 0.0}};
  response.buckets = {{0, 10, 55.0, 5.5, 9.0}, {500, 2, 3.0, 1.5, 2.0}};
  response.ranking = {{0, 0xFFFD, 44.5, 4000}, {2, 0xFFFD, 12.25, 3999}};
  return response;
}

TEST(Wire, QueryRejectsCorruptEnumsAndTrailingGarbage) {
  {
    auto bytes = payload_of(sample_query_request());
    bytes[8] = 0x66;  // kind follows the 8-byte correlation id
    EXPECT_FALSE(decode_payload<QueryRequest>(bytes).has_value());
  }
  expect_trailing_byte_rejected(sample_query_request(), 0x00);
  {
    auto bytes = payload_of(sample_query_response());
    bytes[8] = 0x66;  // status byte
    EXPECT_FALSE(decode_payload<QueryResponse>(bytes).has_value());
  }
  {
    auto bytes = payload_of(sample_query_response());
    bytes[9] = 0x66;  // kind byte
    EXPECT_FALSE(decode_payload<QueryResponse>(bytes).has_value());
  }
  expect_trailing_byte_rejected(sample_query_response(), 0xAB);
}

// ---- Framing ---------------------------------------------------------

TEST(Wire, FrameParserReassemblesAcrossArbitraryChunks) {
  Rng rng(11);
  std::vector<SlotResult> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(random_slot_result(rng));
    const auto frame = encode_frame(sent.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  const auto beat = heartbeat_frame();
  stream.insert(stream.end(), beat.begin(), beat.end());
  const auto end = encode_frame(FrameType::kEnd, {});
  stream.insert(stream.end(), end.begin(), end.end());

  FrameParser parser;
  std::vector<SlotResult> received;
  bool saw_heartbeat = false;
  bool saw_end = false;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, 97));
    const std::size_t n = std::min(chunk, stream.size() - pos);
    parser.feed(std::span<const std::uint8_t>(stream.data() + pos, n));
    pos += n;
    while (auto frame = parser.next()) {
      switch (frame->type) {
        case FrameType::kSlot: {
          const auto slot = decode_payload<SlotResult>(frame->payload);
          ASSERT_TRUE(slot.has_value());
          received.push_back(*slot);
          break;
        }
        case FrameType::kHeartbeat:
          saw_heartbeat = true;
          EXPECT_TRUE(frame->payload.empty());
          break;
        case FrameType::kEnd:
          saw_end = true;
          break;
        default:
          FAIL() << "unexpected frame type";
      }
    }
  }
  EXPECT_FALSE(parser.error());
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i], sent[i]) << "frame " << i;
  }
  EXPECT_TRUE(saw_heartbeat);
  EXPECT_TRUE(saw_end);
}

TEST(Wire, FrameParserRejectsBadMagic) {
  auto frame = heartbeat_frame();
  frame[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(frame);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_EQ(parser.error_message(), "bad magic");
}

TEST(Wire, FrameParserRejectsWrongVersion) {
  auto frame = heartbeat_frame();
  frame[4] = static_cast<std::uint8_t>(kWireVersion + 1);
  FrameParser parser;
  parser.feed(frame);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Wire, FrameParserRejectsOversizedPayload) {
  WireWriter w;
  w(kWireMagic, kWireVersion, FrameType::kSlot, kWireMaxPayload + 1);
  FrameParser parser;
  parser.feed(w.data());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Wire, FrameParserWaitsForPartialHeader) {
  const auto frame = heartbeat_frame();
  FrameParser parser;
  parser.feed(std::span<const std::uint8_t>(frame.data(), kWireHeaderSize - 1));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.error());
  parser.feed(std::span<const std::uint8_t>(frame.data() + kWireHeaderSize - 1, 1));
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameType::kHeartbeat);
}

// ---- Distributed fleet frames (protocol v3) --------------------------

WireCellSpec sample_cell_spec() {
  WireCellSpec spec;
  spec.cell_index = 5;
  spec.name = "cell5";
  spec.preset = "mosolab";
  spec.pci = 311;
  spec.n_ues = 7;
  spec.ue_rate_bps = 3.5e6;
  spec.ue_snr_db = 14.5;
  spec.sniffer_snr_db = 31.0;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.incarnation = 3;
  return spec;
}

CellReport sample_cell_report() {
  CellReport report;
  report.lease_id = 42;
  report.cell.cell_index = 2;
  report.cell.name = "srsran";
  report.cell.counters = {12345, 6789, 321, 1, 17, 9};
  report.cell.active_ues = 4;
  report.cell.dl_mbps = 17.25;
  report.cell.ul_mbps = 4.5;
  report.cell.retx_rate = 0.0625;
  report.cell.utilization = 0.55;
  report.cell.spare_prb_rate = 22.5;
  report.rows.push_back({0xFFFD, 5, 100, 3.0});
  report.rows.push_back({0xFFFD, 6, 100, 40.0});
  report.rows.push_back({0x4601, 0, 101, 8424.0});
  return report;
}

TEST(Wire, VersionRejectRoundTrip) {
  VersionReject reject;
  reject.rejected = 1;
  reject.message = "unsupported protocol version 1";
  const auto decoded = decode_payload<VersionReject>(payload_of(reject));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, reject);
  // One accepted version: the reject's range is [kWireVersion, kWireVersion].
  EXPECT_EQ(decoded->min_version, kWireVersion);
  EXPECT_EQ(decoded->max_version, kWireVersion);
}

// ---- Prediction frames (protocol v4) ----------------------------------

TEST(Wire, PredictionSetFuzzRoundTrip) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    PredictionSet set;
    set.cell_index = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    set.slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    set.horizon_slots =
        static_cast<std::uint32_t>(rng.uniform_int(1, 100000));
    set.model_version = static_cast<std::uint32_t>(rng.uniform_int(0, 99));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 16));
    for (std::size_t j = 0; j < n; ++j) {
      PredictionEntry e;
      e.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
      e.has_actual = rng.chance(0.5);
      e.degraded = rng.chance(0.2);
      e.predicted_bps = rng.uniform(0.0, 1e9);
      if (e.has_actual) {
        e.actual_bps = rng.uniform(0.0, 1e9);
        e.abs_error_bps = rng.uniform(0.0, 1e8);
      }
      set.entries.push_back(e);
    }
    const auto decoded = decode_payload<PredictionSet>(payload_of(set));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_EQ(*decoded, set) << "iteration " << i;
  }
}

TEST(Wire, CellReportBatchEmptyRoundTrip) {
  const CellReportBatch batch;
  const auto decoded = decode_payload<CellReportBatch>(payload_of(batch));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->reports.empty());
}

TEST(Wire, EpochFieldsRoundTripOnLeaseAndReportPayloads) {
  // v5 stamps the coordinator term on every lease-protocol payload so a
  // deposed primary can be fenced; make sure none of the codecs drop it.
  {
    LeaseGrant grant;
    grant.lease_id = 1;
    grant.epoch = 42;
    grant.spec = sample_cell_spec();
    const auto decoded = decode_payload<LeaseGrant>(payload_of(grant));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->epoch, 42u);
  }
  {
    LeaseAck ack;
    ack.lease_id = 1;
    ack.epoch = 42;
    const auto decoded = decode_payload<LeaseAck>(payload_of(ack));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->epoch, 42u);
  }
  {
    WorkerHello hello;
    hello.name = "w";
    hello.epoch = 42;
    const auto decoded = decode_payload<WorkerHello>(payload_of(hello));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->epoch, 42u);
  }
  {
    WorkerHeartbeat hb;
    hb.seq = 1;
    hb.epoch = 42;
    const auto decoded = decode_payload<WorkerHeartbeat>(payload_of(hb));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->epoch, 42u);
  }
  {
    CellReportBatch batch{{sample_cell_report()}};
    batch.reports[0].epoch = 42;
    const auto decoded = decode_payload<CellReportBatch>(payload_of(batch));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->reports.at(0).epoch, 42u);
  }
  {
    LeaseRevoke revoke;
    revoke.lease_id = 1;
    revoke.epoch = 42;
    const auto decoded = decode_payload<LeaseRevoke>(payload_of(revoke));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->epoch, 42u);
  }
}

// ---- Exact version match ---------------------------------------------

// kWireVersion is the only version the header check lets through; every
// other one is recorded for the structured reject.
TEST(Wire, FrameParserAcceptsOnlyCurrentVersion) {
  for (std::uint16_t version = 0; version <= kWireVersion + 2; ++version) {
    FrameParser parser;
    parser.feed(with_version(heartbeat_frame(), version));
    const auto parsed = parser.next();
    if (version == kWireVersion) {
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(parsed->type, FrameType::kHeartbeat);
      EXPECT_FALSE(parser.error());
      EXPECT_FALSE(parser.rejected_version().has_value());
    } else {
      EXPECT_FALSE(parsed.has_value()) << "version " << version;
      EXPECT_TRUE(parser.error()) << "version " << version;
      EXPECT_EQ(parser.rejected_version(), version);
    }
  }
}

// Why there is no version window: a v4 worker's hello has no epoch, so a
// v5 decoder cannot read it.  The header check turns it away first,
// instead of letting the frame through to a decode that fails silently.
TEST(Wire, OlderPeerFramesAreRejectedNotMisparsed) {
  WireWriter v4_hello;  // name, capacity, version, pool_threads: no epoch
  v4_hello(std::string("v4-worker"), std::uint32_t{2}, std::uint16_t{4},
           std::uint32_t{1});
  EXPECT_FALSE(decode_payload<WorkerHello>(v4_hello.data()).has_value());

  FrameParser parser;
  parser.feed(with_version(
      encode_frame(FrameType::kWorkerHello, v4_hello.data()), 4));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.rejected_version(), 4);
}

TEST(Wire, FrameParserReportsRejectedVersionBelowWindow) {
  FrameParser parser;
  parser.feed(with_version(heartbeat_frame(), kWireVersion - 1));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  ASSERT_TRUE(parser.rejected_version().has_value());
  EXPECT_EQ(*parser.rejected_version(), kWireVersion - 1);
}

TEST(Wire, FrameParserReportsRejectedVersionAboveWindow) {
  FrameParser parser;
  parser.feed(with_version(heartbeat_frame(), kWireVersion + 1));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  ASSERT_TRUE(parser.rejected_version().has_value());
  EXPECT_EQ(*parser.rejected_version(), kWireVersion + 1);
}

TEST(Wire, BadMagicIsNotAVersionReject) {
  auto frame = heartbeat_frame();
  frame[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(frame);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_FALSE(parser.rejected_version().has_value());
}

// ---- Golden samples ----------------------------------------------------
//
// One fixed value per payload type.  In each, every field differs from its
// default (epoch included), every vector is non-empty and the SlotResult
// carries a MIB, so a field the codec skipped or reordered changes the
// bytes.

template <class T>
T sample();

template <>
HelloInfo sample<HelloInfo>() {
  return HelloInfo{3, 987654321};
}

template <>
SlotResult sample<SlotResult>() {
  SlotResult r;
  r.slot = 123456789;
  r.processing_time_us = 321.5;
  r.sib1_decoded = true;
  r.degraded = true;
  r.sync_state = SyncState::kTracking;
  r.mib = Mib{517, Scs::kHz60, 3, 5, 3, 9, true};
  DecodedDci d;
  d.slot = 123456788;
  d.rnti = 0x4601;
  d.dci.format = DciFormat::kUl0_1;
  d.dci.freq_alloc_riv = 0x12345;
  d.dci.time_alloc = 3;
  d.dci.mcs = 17;
  d.dci.ndi = 1;
  d.dci.rv = 2;
  d.dci.harq_id = 11;
  d.dci.dai = 3;
  d.dci.tpc = 1;
  d.dci.pucch_resource = 5;
  d.dci.harq_feedback = 6;
  d.dci.ports = 2;
  d.dci.srs_request = 1;
  d.dci.dmrs_id = 1;
  d.grant.rnti = 0x4601;
  d.grant.format = DciFormat::kDl1_1;
  d.grant.prb_start = 12;
  d.grant.prb_len = 40;
  d.grant.start_symbol = 2;
  d.grant.n_symbols = 12;
  d.grant.mcs = 17;
  d.grant.modulation = Modulation::kQam64;
  d.grant.code_rate = 0.55;
  d.grant.n_layers = 2;
  d.grant.tbs = 24576;
  d.grant.ndi = 1;
  d.grant.rv = 2;
  d.grant.harq_id = 11;
  d.agg_level = 4;
  d.cce_start = 8;
  d.is_retx = true;
  r.dcis.push_back(d);
  d.rnti = 0x4602;
  d.grant.modulation = Modulation::kQam256;
  r.dcis.push_back(d);
  NewUe ue;
  ue.c_rnti = 0x4603;
  ue.slot = 123456700;
  ue.verified = true;
  ue.config.ue_ss.ue_specific = false;
  ue.config.ue_ss.agg_levels = {2, 8};
  ue.config.ue_ss.candidates_per_level = 5;
  ue.config.dl_format = DciFormat::kDl1_0;
  ue.config.mcs_table = McsTable::kQam256;
  ue.config.max_mimo_layers = 2;
  ue.config.n_harq_processes = 8;
  r.new_ues.push_back(ue);
  return r;
}

template <>
MetricsSnapshot sample<MetricsSnapshot>() {
  MetricsSnapshot s;
  s.counters = {{"net.frames_sent", 123}, {"pipeline.slots_pushed", 456789}};
  s.gauges = {{"net.clients", -3}};
  HistogramSnapshot h;
  h.name = "pipeline.demod_us";
  h.count = 5;
  h.sum = 1912.5;
  h.min = 12.5;
  h.max = 900.0;
  h.bounds = {10.0, 100.0, 1000.0};
  h.counts = {1, 1, 2, 1};
  s.histograms.push_back(h);
  s.sorted_by_name = true;
  return s;
}

template <>
FleetSummary sample<FleetSummary>() {
  FleetSummary f;
  f.slot = 48000;
  f.totals = {32003, 6003, 90, 3, 21, 45};
  f.dl_mbps_total = 87.25;
  f.ul_mbps_total = 12.5;
  f.retx_rate = 0.04;
  f.spare_ranking = {2, 1};
  for (std::uint32_t i = 1; i <= 2; ++i) {
    f.cells.push_back(CellSummary{i, "cell" + std::to_string(i),
                                  static_cast<std::uint8_t>(i),
                                  {16000 + i, 3000 + i, 30 * i, i, 7 * i,
                                   15 * i},
                                  4 + i, 30.0 - i, 4.0 + i, 0.01 * i,
                                  0.25 * i, 12.5 * i});
  }
  return f;
}

template <>
QueryRequest sample<QueryRequest>() {
  return QueryRequest{0x1122334455667788ull, QueryKind::kAggregate, 3,
                      0x4601, 7, 1000, 9000, 500, 4};
}

template <>
QueryResponse sample<QueryResponse>() {
  QueryResponse q;
  q.correlation_id = 0xCAFEBABEull;
  q.status = QueryStatus::kBadRequest;
  q.kind = QueryKind::kTopK;
  q.error = "bucket too small";
  q.rows = {{100, 1.5}, {101, -2.25}};
  q.buckets = {{500, 10, 55.0, 5.5, 9.0}};
  q.ranking = {{2, 0xFFFD, 44.5, 4000}, {3, 0x4601, 12.25, 3999}};
  return q;
}

template <>
VersionReject sample<VersionReject>() {
  return VersionReject{4, 1, 9, "unsupported protocol version 4"};
}

template <>
WorkerHello sample<WorkerHello>() {
  return WorkerHello{"rack3-sniffer", 12, 3, 7};
}

WireCellSpec golden_cell_spec() {
  return WireCellSpec{5,   "cell5", "mosolab", 311, 7, 3.5e6, 14.5, 31.0,
                      0xDEADBEEFCAFEull, 3};
}

template <>
LeaseGrant sample<LeaseGrant>() {
  return LeaseGrant{77, 1500, 4, golden_cell_spec()};
}

template <>
LeaseAck sample<LeaseAck>() {
  return LeaseAck{77, true, "started", 4};
}

template <>
WorkerHeartbeat sample<WorkerHeartbeat>() {
  return WorkerHeartbeat{991, 4, {11, 12}};
}

template <>
LeaseRevoke sample<LeaseRevoke>() {
  return LeaseRevoke{13, "rebalance", 4};
}

CellReport golden_cell_report(std::uint32_t cell_index) {
  CellReport c;
  c.lease_id = 40 + cell_index;
  c.epoch = 4;
  c.cell = CellSummary{cell_index, "srsran", 2, {12345, 6789, 321, 1, 17, 9},
                       4, 17.25, 4.5, 0.0625, 0.55, 22.5};
  c.rows = {{0xFFFD, 5, 100, 3.0}, {0x4601, 1, 101, 8424.0}};
  return c;
}

template <>
CellReportBatch sample<CellReportBatch>() {
  return CellReportBatch{{golden_cell_report(2), golden_cell_report(5)}};
}

/// Cases a payload's golden sample lacks, which the typed suite runs
/// beside it (the golden sample's bytes are pinned, so it cannot grow).
template <class T>
std::vector<T> extra_samples() {
  return {};
}

// A CellReport is no frame of its own; its description is what every
// CellReportBatch element, ReplicaCell and ReplicaEvent carries.
template <>
std::vector<CellReportBatch> extra_samples<CellReportBatch>() {
  CellReport bare = golden_cell_report(5);
  bare.epoch = 0;
  bare.rows.clear();
  return {CellReportBatch{{golden_cell_report(2), bare}}};
}

// An answer that succeeded: kOk with an empty error string, a zero row
// value and a bucket at slot 0.
template <>
std::vector<QueryResponse> extra_samples<QueryResponse>() {
  return {sample_query_response()};
}

// A forecast that has not matured yet (no actual, not degraded) beside a
// matured one.
template <>
std::vector<PredictionSet> extra_samples<PredictionSet>() {
  PredictionSet p;
  p.cell_index = 3;
  p.slot = 123456;
  p.horizon_slots = 200;
  p.model_version = 7;
  p.entries = {{0x4601, false, false, 2.5e6, 0.0, 0.0},
               {0x4602, true, true, 5.5e6, 4.75e6, 0.75e6}};
  return {p};
}

/// The golden sample, then the extra cases.
template <class T>
std::vector<T> samples() {
  std::vector<T> all = extra_samples<T>();
  all.insert(all.begin(), sample<T>());
  return all;
}

template <>
PredictionSet sample<PredictionSet>() {
  PredictionSet p;
  p.cell_index = 3;
  p.slot = 123456;
  p.horizon_slots = 200;
  p.model_version = 7;
  p.entries = {{0x4601, true, true, 5.5e6, 4.75e6, 0.75e6},
               {0x4602, true, true, 2.5e6, 2.0e6, 0.5e6}};
  return p;
}

template <>
StandbyHello sample<StandbyHello>() {
  return StandbyHello{"standby:9201", 3};
}

template <>
NotPrimary sample<NotPrimary>() {
  return NotPrimary{4, "standby"};
}

ReplicaCell golden_replica_cell() {
  ReplicaCell c;
  c.spec = golden_cell_spec();
  c.lease_state = 2;
  c.lease_id = 91;
  c.worker_id = 7;
  c.handoffs = 2;
  c.committed = {40000, 9000, 300, 1, 25, 70};
  c.has_report = true;
  c.live = golden_cell_report(5);
  return c;
}

template <>
ReplicaSnapshot sample<ReplicaSnapshot>() {
  ReplicaSnapshot s;
  s.epoch = 3;
  s.next_lease_id = 92;
  s.workers = {{7, "rack1", 8}, {9, "rack2", 4}};
  s.cells.push_back(golden_replica_cell());
  return s;
}

template <>
ReplicaEvent sample<ReplicaEvent>() {
  ReplicaEvent e;
  e.kind = ReplicaEventKind::kCell;
  e.epoch = 3;
  e.worker = {7, "rack1", 8};
  e.cell = golden_replica_cell();
  e.rows = {{0xFFFD, 5, 41000, 3.0}, {0x4601, 2, 41001, 8424.0}};
  return e;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001B3ull;
  }
  return hash;
}

template <class T>
void expect_golden(const char* name, std::size_t size, std::uint64_t fnv) {
  const std::vector<std::uint8_t> frame = encode_frame(sample<T>());
  EXPECT_EQ(frame.size(), size) << name;
  EXPECT_EQ(fnv1a64(frame), fnv)
      << name << ": got 0x" << std::hex << fnv1a64(frame);
}

// Pins every frame's exact bytes (length + FNV-1a 64 of header and
// payload).  A round trip cannot see a layout change made the same way on
// both sides of the codec; this can.
TEST(Wire, GoldenBytes) {
  expect_golden<HelloInfo>("hello", 22, 0xE8ED3777E9AECD79ull);
  expect_golden<SlotResult>("slot", 186, 0xDDC88173CEB655A8ull);
  expect_golden<MetricsSnapshot>("metrics", 212, 0x05FB40A118773124ull);
  expect_golden<FleetSummary>("fleet", 316, 0x1A2FA56D1CC551B0ull);
  expect_golden<QueryRequest>("query", 56, 0x733485278D79B7F4ull);
  expect_golden<QueryResponse>("query_result", 168, 0xE2F13F1680B09A5Eull);
  expect_golden<VersionReject>("unsupported_version", 50,
                               0xF15760AF6CE0DDF6ull);
  expect_golden<WorkerHello>("worker_hello", 41, 0xA0312858103388D1ull);
  expect_golden<LeaseGrant>("lease", 94, 0x2A94F9419A74B65Bull);
  expect_golden<LeaseAck>("lease_ack", 38, 0xBE69C5AA1FE3F405ull);
  expect_golden<WorkerHeartbeat>("worker_heartbeat", 48, 0xAC08463AF21A7DA7ull);
  expect_golden<LeaseRevoke>("lease_revoke", 39, 0xFDEF5981FEAC27E0ull);
  expect_golden<CellReportBatch>("cell_report_batch", 342,
                                 0x19F47F65C7D79278ull);
  expect_golden<PredictionSet>("prediction", 90, 0xB70EFBE78505D863ull);
  expect_golden<StandbyHello>("standby_hello", 28, 0x529BC19B1928EC20ull);
  expect_golden<NotPrimary>("not_primary", 29, 0xA3D5F19BD8E9B5D4ull);
  expect_golden<ReplicaSnapshot>("replica_snapshot", 369,
                                 0x85B4E72BF7AD6759ull);
  expect_golden<ReplicaEvent>("replica_event", 377, 0x2A559881ECBA2595ull);
}

// ---- Replica events ----------------------------------------------------
//
// The typed suite below covers every HA payload's round trip, truncations
// and trailing bytes; these cover each event kind and the kind byte.

TEST(Wire, ReplicaEventRoundTripEveryKind) {
  for (std::uint8_t kind = 0;
       kind <= static_cast<std::uint8_t>(ReplicaEventKind::kCell); ++kind) {
    ReplicaEvent event = sample<ReplicaEvent>();
    event.kind = static_cast<ReplicaEventKind>(kind);
    const auto decoded = decode_payload<ReplicaEvent>(payload_of(event));
    ASSERT_TRUE(decoded.has_value()) << "kind " << int(kind);
    EXPECT_EQ(*decoded, event) << "kind " << int(kind);
  }
}

TEST(Wire, ReplicaEventRejectsCorruptKind) {
  auto bytes = payload_of(sample<ReplicaEvent>());
  bytes[0] = 0x7F;  // kind is the first byte of the payload
  EXPECT_FALSE(decode_payload<ReplicaEvent>(bytes).has_value());
}

TEST(Wire, ReplicaEventGarbageBytesNeverCrash) {
  // Random byte strings must decode to nullopt (or a valid event), never
  // crash or over-read — the standby feeds attacker-reachable bytes here.
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 200)));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode_payload<ReplicaEvent>(bytes);
    (void)decode_payload<ReplicaSnapshot>(bytes);
    (void)decode_payload<StandbyHello>(bytes);
    (void)decode_payload<NotPrimary>(bytes);
  }
}

// ---- Every payload type ----------------------------------------------
//
// The generic properties, run over each frame payload's golden sample.

template <class T>
class WireCodec : public ::testing::Test {};

using Payloads =
    ::testing::Types<HelloInfo, SlotResult, MetricsSnapshot, FleetSummary,
                     QueryRequest, QueryResponse, VersionReject, WorkerHello,
                     LeaseGrant, LeaseAck, WorkerHeartbeat, LeaseRevoke,
                     CellReportBatch, PredictionSet, StandbyHello, NotPrimary,
                     ReplicaSnapshot, ReplicaEvent>;

struct PayloadName {
  template <class T>
  static std::string GetName(int) {
    return to_string(kFrameOf<T>);
  }
};

TYPED_TEST_SUITE(WireCodec, Payloads, PayloadName);

TYPED_TEST(WireCodec, RoundTrip) {
  for (const TypeParam& value : samples<TypeParam>()) {
    const auto decoded = decode_payload<TypeParam>(payload_of(value));
    ASSERT_TRUE(decoded.has_value());
    // Re-encoding reproduces the bytes, which also covers MetricsSnapshot
    // (no operator==).
    EXPECT_EQ(payload_of(*decoded), payload_of(value));
    if constexpr (std::equality_comparable<TypeParam>) {
      EXPECT_EQ(*decoded, value);
    }
  }
}

TYPED_TEST(WireCodec, EveryTruncationFails) {
  for (const TypeParam& value : samples<TypeParam>()) {
    expect_every_truncation_fails(value);
  }
}

TYPED_TEST(WireCodec, TrailingByteIsRejected) {
  for (const TypeParam& value : samples<TypeParam>()) {
    expect_trailing_byte_rejected(value, 0x00);
  }
}

// Random byte strings, and the sample with one byte overwritten, decode to
// nullopt or to some value; they never crash or read out of bounds (the
// sanitizer builds check the latter).
TYPED_TEST(WireCodec, RandomBytesNeverCrash) {
  Rng rng(static_cast<std::uint64_t>(kFrameOf<TypeParam>));
  const std::vector<std::uint8_t> payload = payload_of(sample<TypeParam>());
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 256)));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode_payload<TypeParam>(bytes);
    bytes = payload;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)decode_payload<TypeParam>(bytes);
  }
}

TYPED_TEST(WireCodec, ParserReassemblesChunkedFrames) {
  // Every sample three times over, in one stream.
  std::vector<TypeParam> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    for (const TypeParam& value : samples<TypeParam>()) {
      const std::vector<std::uint8_t> frame = encode_frame(value);
      stream.insert(stream.end(), frame.begin(), frame.end());
      sent.push_back(value);
    }
  }
  Rng rng(5);
  FrameParser parser;
  std::size_t frames = 0;
  for (std::size_t pos = 0; pos < stream.size();) {
    const std::size_t n = std::min(
        static_cast<std::size_t>(rng.uniform_int(1, 40)), stream.size() - pos);
    parser.feed(std::span<const std::uint8_t>(stream.data() + pos, n));
    pos += n;
    while (auto frame = parser.next()) {
      ASSERT_LT(frames, sent.size());
      EXPECT_EQ(frame->type, kFrameOf<TypeParam>);
      const auto decoded = decode_payload<TypeParam>(frame->payload);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(payload_of(*decoded), payload_of(sent[frames]));
      ++frames;
    }
  }
  EXPECT_FALSE(parser.error());
  EXPECT_EQ(frames, sent.size());
}

}  // namespace
}  // namespace nrs
