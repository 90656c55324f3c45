// Versioned, length-prefixed binary wire protocol for live telemetry
// streaming.  A TelemetryStreamServer serializes each SlotResult (and
// periodic MetricsSnapshots) into self-delimiting frames; any remote
// consumer that speaks this protocol — TelemetryStreamClient here, or a
// foreign-language tool — can reconstruct the per-TTI feed the paper's
// downstream applications (e.g. the cloud-gaming work) consume.
//
// Frame layout (all integers little-endian, assembled byte by byte so the
// encoding is identical on any host):
//
//   | magic u32 | version u16 | type u16 | payload_len u32 | payload ... |
//
// Each payload struct is described once, by a field visitor (see "Field
// descriptions" below), and the generic encode_frame() / decode_payload()
// pair drives every frame type through that one description.  Decoding
// never throws and never reads past the buffer: truncated or corrupt input
// yields std::nullopt (WireReader carries a sticky error flag), which the
// typed round-trip/truncation/garbage tests in tests/net/test_wire.cc lock
// down.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "nrscope/nrscope.h"

namespace nrs {

inline constexpr std::uint32_t kWireMagic = 0x4E525357;  // "NRSW"
/// The one protocol version this build speaks and accepts.  A header with
/// any other version is answered with a kUnsupportedVersion frame and the
/// connection is dropped: payload layouts change between versions, so an
/// older peer's frames could pass the header check and still not decode.
///
/// v2 added the request/response query frames (kQuery / kQueryResult);
/// v3 added the distributed-fleet work-assignment frames (worker hello,
/// leases, heartbeats, cell reports) and the structured version-reject
/// frame; v4 added the online-prediction frame (kPrediction) and the
/// batched multi-cell report (kCellReportBatch); v5 added coordinator
/// high availability: replication frames (kStandbyHello /
/// kReplicaSnapshot / kReplicaEvent / kNotPrimary) and a mandatory
/// `epoch` term on every lease, heartbeat and report so a deposed
/// primary is fenced after failover; v6 made each kReplicaEvent carry a
/// whole replicated entity (a ReplicaWorker or the snapshot's ReplicaCell)
/// instead of one of seven per-operation field sets; v7 made one
/// CellSummary (lifetime CellCounters plus live values) the cell's
/// description in kFleet, CellReport and ReplicaCell, and dropped the
/// fields no peer read: WorkerHello::pool_threads, LeaseGrant::base_slot,
/// the cell index of LeaseAck and LeaseRevoke, everything but the lease id
/// in a heartbeat's lease list, CellReport's scalar copies,
/// ReplicaCell::lease_base_slot and QueryRequest::op.
inline constexpr std::uint16_t kWireVersion = 7;
/// Upper bound on a sane payload; a bigger announced length means the
/// stream is corrupt (or hostile) and the connection should be dropped.
inline constexpr std::uint32_t kWireMaxPayload = 64u * 1024u * 1024u;
/// Upper bound on the memory one decoded payload may occupy.  The reader
/// charges every vector element's in-memory size and every string's
/// bytes to this budget and rejects the payload once it is spent.  Counts
/// are already bounded by the bytes left, but an element can need several
/// times its wire size (an empty-name CounterSnapshot: 10 bytes on the
/// wire, 40 in memory), so without a budget one maximal payload could make
/// the reader allocate several times kWireMaxPayload.
inline constexpr std::size_t kWireMaxDecodedBytes = kWireMaxPayload;
/// Bytes before the payload: magic + version + type + payload_len.
inline constexpr std::size_t kWireHeaderSize = 12;

enum class FrameType : std::uint16_t {
  kHello = 1,      ///< server -> client greeting right after accept
  kSlot = 2,       ///< one serialized SlotResult
  kMetrics = 3,    ///< one serialized MetricsSnapshot
  kHeartbeat = 4,  ///< keep-alive when the stream is idle (empty payload)
  kEnd = 5,        ///< end of stream: the run finished (empty payload)
  kFleet = 6,      ///< one serialized FleetSummary (cross-cell rollup)
  kQuery = 7,        ///< client -> server: one QueryRequest
  kQueryResult = 8,  ///< server -> client: the matching QueryResponse
  // Distributed fleet (coordinator/worker work assignment), v3.
  kWorkerHello = 9,       ///< worker -> coordinator: join the fleet
  kLease = 10,            ///< coordinator -> worker: grant/renew one cell
  kLeaseAck = 11,         ///< worker -> coordinator: accept/refuse a lease
  kWorkerHeartbeat = 12,  ///< worker -> coordinator: liveness + lease state
  // 13 was the single-report kCellReport; kCellReportBatch replaced it and
  // the value is not reused.
  kLeaseRevoke = 14,      ///< coordinator -> worker: stop running a cell
  /// Structured protocol-mismatch error: sent (best effort) to a peer whose
  /// frames carry a version other than kWireVersion right before the
  /// connection is dropped, so old clients see a clear error instead of a
  /// silent disconnect.
  kUnsupportedVersion = 15,
  // Online prediction + WAN batching, v4.
  kPrediction = 16,       ///< one serialized PredictionSet (analysis sink)
  kCellReportBatch = 17,  ///< worker -> coordinator: many CellReports at once
  // Coordinator high availability (replication + epoch fencing), v5.
  kStandbyHello = 18,     ///< standby -> primary: attach as replication tail
  kReplicaSnapshot = 19,  ///< primary -> standby: full coordinator state
  kReplicaEvent = 20,     ///< primary -> standby: one incremental mutation
  kNotPrimary = 21,       ///< standby -> worker: not serving leases here
};

const char* to_string(FrameType type);

/// Greeting payload: lets a (re)connecting client learn where the live
/// stream currently stands.
struct HelloInfo {
  std::uint16_t version = kWireVersion;
  std::uint64_t next_slot = 0;  ///< next slot index the server will send
  [[nodiscard]] bool operator==(const HelloInfo&) const = default;
};

/// A cell's lifetime counters: they survive its restarts and, summed over
/// its leases, its handoffs between workers.
struct CellCounters {
  std::uint64_t slots = 0;           ///< slots processed
  std::uint64_t dcis = 0;            ///< DCIs observed
  std::uint64_t retx_dcis = 0;       ///< of which retransmissions
  /// Supervisor restarts; the coordinator's view adds lease handoffs.
  std::uint64_t restarts = 0;
  std::uint64_t degraded_slots = 0;  ///< slots flagged degraded
  std::uint64_t resync_slots = 0;    ///< slots spent in kResync
  CellCounters& operator+=(const CellCounters& other);
  [[nodiscard]] bool operator==(const CellCounters&) const = default;
};

/// One cell's telemetry, wherever it travels: a kFleet frame's entry, a
/// worker's CellReport and the coordinator's view.  `state` is the
/// fleet-layer FleetCellState as a raw byte — the wire layer does not
/// depend on src/fleet; consumers that care cast it back.
struct CellSummary {
  std::uint32_t cell_index = 0;
  std::string name;
  std::uint8_t state = 0;
  CellCounters counters;
  std::uint32_t active_ues = 0;  ///< UEs with a DCI in the rate window
  double dl_mbps = 0.0;          ///< trailing-window downlink throughput
  double ul_mbps = 0.0;
  double retx_rate = 0.0;        ///< counters.retx_dcis / counters.dcis
  double utilization = 0.0;      ///< granted PRB-slots / downlink capacity
  double spare_prb_rate = 0.0;   ///< unused DL PRBs per slot
  [[nodiscard]] bool operator==(const CellSummary&) const = default;
};

/// Cross-cell rollup (FrameType::kFleet, and what the orchestrator and the
/// coordinator return): fleet totals, one CellSummary per cell, and the
/// spare-capacity ranking (cell indices, most spare capacity first — the
/// section 5.4.1 use case lifted from one cell to the fleet).
struct FleetSummary {
  std::uint64_t slot = 0;  ///< the furthest cell's lifetime slot
  CellCounters totals;     ///< every cell's counters summed
  double dl_mbps_total = 0.0;
  double ul_mbps_total = 0.0;
  double retx_rate = 0.0;  ///< totals.retx_dcis / totals.dcis
  std::vector<std::uint32_t> spare_ranking;
  std::vector<CellSummary> cells;
  [[nodiscard]] bool operator==(const FleetSummary&) const = default;
};

/// The one way to build a FleetSummary: from `cells`, whose counters and
/// live values are set, derive every retransmission rate (each cell's and
/// the fleet's, retransmitted over observed DCIs of the same counters),
/// the totals, the slot and the spare ranking (ties keep cell order).
[[nodiscard]] FleetSummary summarize_fleet(std::vector<CellSummary> cells);

// ---- Query request/response ------------------------------------------
//
// The wire layer defines the query *shapes* only; executing them against a
// history store lives in src/store (run_query), wired into the server as
// an opaque handler so nrs_net never depends on the store.

enum class QueryKind : std::uint8_t {
  kRange = 0,      ///< raw (slot, value) rows of one series in [from, to)
  kAggregate = 1,  ///< per-bucket count/sum/avg/max downsampling
  kTopK = 2,       ///< series ranked by mean value over [from, to)
};

const char* to_string(QueryKind kind);

/// One telemetry history query.  `cell`/`rnti`/`metric` select the series
/// (raw StoreMetric value; the wire layer does not depend on src/store).
/// kTopK treats `cell` == 0xFFFFFFFF as "every cell" and ignores `rnti`,
/// ranking all series of `metric` — e.g. metric = cell_spare_prbs over all
/// cells is the fleet-wide spare-capacity ranking.
struct QueryRequest {
  std::uint64_t correlation_id = 0;  ///< echoed verbatim in the response
  QueryKind kind = QueryKind::kRange;
  std::uint32_t cell = 0;
  std::uint16_t rnti = 0;
  std::uint8_t metric = 0;
  std::uint64_t slot_from = 0;
  std::uint64_t slot_to = 0;        ///< exclusive
  std::uint64_t bucket_slots = 0;   ///< kAggregate: bucket width in slots
  std::uint32_t k = 0;              ///< kTopK: ranking size
  [[nodiscard]] bool operator==(const QueryRequest&) const = default;
};

/// One raw row of a range scan.
struct QueryRowWire {
  std::uint64_t slot = 0;
  double value = 0.0;
  [[nodiscard]] bool operator==(const QueryRowWire&) const = default;
};

/// One downsampling bucket [start, start + width).
struct QueryBucket {
  std::uint64_t slot_start = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double avg = 0.0;
  double max = 0.0;
  [[nodiscard]] bool operator==(const QueryBucket&) const = default;
};

/// One ranked series in a top-K response, best first.
struct TopKEntry {
  std::uint32_t cell = 0;
  std::uint16_t rnti = 0;
  double score = 0.0;       ///< mean value over the queried range
  std::uint64_t rows = 0;   ///< rows the score was computed from
  [[nodiscard]] bool operator==(const TopKEntry&) const = default;
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,    ///< malformed parameters (bad metric, empty range)
  kNotFound = 2,      ///< no such series
  kUnavailable = 3,   ///< server has no query handler attached
};

const char* to_string(QueryStatus status);

struct QueryResponse {
  std::uint64_t correlation_id = 0;
  QueryStatus status = QueryStatus::kOk;
  QueryKind kind = QueryKind::kRange;
  std::string error;  ///< human-readable detail when status != kOk
  std::vector<QueryRowWire> rows;       ///< kRange
  std::vector<QueryBucket> buckets;     ///< kAggregate
  std::vector<TopKEntry> ranking;       ///< kTopK
  [[nodiscard]] bool operator==(const QueryResponse&) const = default;
};

// ---- Distributed fleet (coordinator/worker) --------------------------
//
// The wire layer defines the work-assignment *shapes* only; granting,
// renewing and revoking leases is src/dist's business.  Cell specs travel
// as (preset name + overrides) rather than a full CellConfig dump: both
// ends of the protocol link the preset table, and an unknown preset is a
// lease refusal, not a decode error.

/// Payload of FrameType::kUnsupportedVersion.  The accepted range is a
/// single version, so `min_version` and `max_version` both carry
/// kWireVersion; the two fields keep the payload layout unchanged.
struct VersionReject {
  std::uint16_t rejected = 0;  ///< the version the peer spoke
  std::uint16_t min_version = kWireVersion;
  std::uint16_t max_version = kWireVersion;
  std::string message;
  [[nodiscard]] bool operator==(const VersionReject&) const = default;
};

/// Worker -> coordinator greeting: who I am and how many cells I can run.
/// `epoch` is the highest coordinator term the worker has seen (0 on a
/// fresh worker); a coordinator receiving a hello from a *newer* epoch
/// knows it has been deposed and fences itself instead of registering the
/// worker.
struct WorkerHello {
  std::string name;
  std::uint32_t capacity = 1;  ///< max concurrent cell leases
  std::uint16_t version = kWireVersion;
  std::uint64_t epoch = 0;  ///< highest coordinator term seen
  [[nodiscard]] bool operator==(const WorkerHello&) const = default;
};

/// Everything a worker needs to run one cell: a preset name plus the
/// overrides the coordinator chose.  `incarnation` is the cell's handoff
/// count — seeds derive from (seed, incarnation), so a reassigned cell
/// draws a fresh but reproducible stream on its new worker.
struct WireCellSpec {
  std::uint32_t cell_index = 0;  ///< fleet-global index
  std::string name;
  std::string preset;
  std::uint16_t pci = 0;  ///< 0 = keep the preset's PCI
  std::uint32_t n_ues = 2;
  double ue_rate_bps = 2e6;
  double ue_snr_db = 18.0;
  double sniffer_snr_db = 28.0;
  std::uint64_t seed = 1;
  std::uint32_t incarnation = 0;
  [[nodiscard]] bool operator==(const WireCellSpec&) const = default;
};

/// Coordinator -> worker: run `spec` under lease `lease_id` for `ttl_ms`.
/// A grant for a lease_id the worker already holds is a renewal (the TTL
/// clock restarts); the spec is identical by construction.
struct LeaseGrant {
  std::uint64_t lease_id = 0;
  std::uint32_t ttl_ms = 0;
  /// Coordinator term the grant was issued under.  Workers adopt higher
  /// epochs and refuse grants from a lower one (deposed primary).
  std::uint64_t epoch = 0;
  WireCellSpec spec;
  [[nodiscard]] bool operator==(const LeaseGrant&) const = default;
};

/// Worker -> coordinator: lease accepted (cell is starting) or refused
/// (unknown preset, over capacity) with a reason.
struct LeaseAck {
  std::uint64_t lease_id = 0;
  bool accepted = false;
  std::string message;
  std::uint64_t epoch = 0;  ///< the worker's current coordinator term
  [[nodiscard]] bool operator==(const LeaseAck&) const = default;
};

/// Worker -> coordinator liveness.  Receiving one renews every listed
/// lease; a worker that goes silent past the heartbeat timeout is declared
/// dead and its cells are reassigned.
struct WorkerHeartbeat {
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;  ///< highest coordinator term the worker saw
  std::vector<std::uint64_t> leases;  ///< ids of the leases the worker holds
  [[nodiscard]] bool operator==(const WorkerHeartbeat&) const = default;
};

/// One history-store row forwarded inside a cell report.  `slot` is
/// lease-local; the coordinator rebases it onto the cell's lifetime slot
/// axis before ingest.
struct StoreRowUpdate {
  std::uint16_t rnti = 0;
  std::uint8_t metric = 0;  ///< raw StoreMetric
  std::uint64_t slot = 0;
  double value = 0.0;
  [[nodiscard]] bool operator==(const StoreRowUpdate&) const = default;
};

/// Worker -> coordinator: one cell's telemetry under one lease, sent as
/// an element of a CellReportBatch.  `cell` is the worker's summary of the
/// cell under its fleet-global index; its counters are lease-local (monotonic
/// within the lease), and the coordinator adds them to the counters
/// committed by earlier leases, which is what keeps the fleet view
/// monotonic across a reassignment.
struct CellReport {
  std::uint64_t lease_id = 0;
  std::uint64_t epoch = 0;  ///< coordinator term the lease was granted under
  CellSummary cell;
  std::vector<StoreRowUpdate> rows;
  [[nodiscard]] bool operator==(const CellReport&) const = default;
};

/// Worker -> coordinator: every live lease's CellReport folded into one
/// frame per report interval (FrameType::kCellReportBatch), so a worker
/// running N cells costs one send + one syscall per interval instead of N
/// — the WAN-headroom batching noted against the PR 7 fleet.
struct CellReportBatch {
  std::vector<CellReport> reports;
  [[nodiscard]] bool operator==(const CellReportBatch&) const = default;
};

/// One UE's row in a PredictionSet.  `predicted_bps` is the downlink
/// throughput the analysis predictor forecast over `horizon_slots`;
/// when `has_actual` is set the horizon has matured and `actual_bps` /
/// `abs_error_bps` carry the realized value and |predicted - actual|.
/// `degraded` marks forecasts made while the engine was resyncing
/// (SlotResult::degraded) — consumers should trust them less.
struct PredictionEntry {
  std::uint16_t rnti = 0;
  bool has_actual = false;
  bool degraded = false;
  double predicted_bps = 0.0;
  double actual_bps = 0.0;
  double abs_error_bps = 0.0;
  [[nodiscard]] bool operator==(const PredictionEntry&) const = default;
};

/// Periodic output of the analysis PredictionSink
/// (FrameType::kPrediction): fresh per-UE throughput forecasts plus the
/// predicted-vs-actual scoring of forecasts whose horizon just matured.
/// `model_version` stamps which trained weights produced the numbers so
/// fleet-wide consumers can tell cells running stale models apart.
struct PredictionSet {
  std::uint32_t cell_index = 0;
  std::uint64_t slot = 0;  ///< sink-local slot the set was emitted at
  std::uint32_t horizon_slots = 0;
  std::uint32_t model_version = 0;
  std::vector<PredictionEntry> entries;
  [[nodiscard]] bool operator==(const PredictionSet&) const = default;
};

/// Coordinator -> worker: stop running this cell (rebalance toward a
/// newly joined worker, or an operator decision).  The worker tears the
/// cell down and stops reporting under this lease.
struct LeaseRevoke {
  std::uint64_t lease_id = 0;
  std::string reason;
  std::uint64_t epoch = 0;  ///< coordinator term; stale revokes are ignored
  [[nodiscard]] bool operator==(const LeaseRevoke&) const = default;
};

// ---- Coordinator replication (v5; whole-entity events since v6) -------
//
// A standby coordinator attaches to the primary with kStandbyHello and
// receives one kReplicaSnapshot (the full mirrored state) followed by a
// stream of kReplicaEvents, each carrying the worker or cell a mutation
// changed.  On primary death the standby bumps the epoch and takes over;
// a worker that dials the standby *before* the promotion is answered with
// kNotPrimary and tries the next address.

/// Standby -> primary: attach this connection as a replication tail.
struct StandbyHello {
  std::string name;
  std::uint16_t version = kWireVersion;
  [[nodiscard]] bool operator==(const StandbyHello&) const = default;
};

/// Coordinator -> worker (or to a second standby): this endpoint is not
/// the acting primary.  `epoch` lets the caller learn how stale its view
/// is; `message` is human-readable detail ("standby", "deposed").
struct NotPrimary {
  std::uint64_t epoch = 0;
  std::string message;
  [[nodiscard]] bool operator==(const NotPrimary&) const = default;
};

/// One mirrored catalog entry inside a ReplicaSnapshot.
struct ReplicaWorker {
  std::uint64_t worker_id = 0;
  std::string name;
  std::uint32_t capacity = 1;
  [[nodiscard]] bool operator==(const ReplicaWorker&) const = default;
};

/// One cell's full replicated state: the spec (so a standby needs no cell
/// list of its own), the lease binding, the counters committed by ended
/// leases and the live in-flight report.  `live` always has empty rows —
/// history rows replicate separately (already rebased) in the kCell event's
/// `rows`.
struct ReplicaCell {
  WireCellSpec spec;
  std::uint8_t lease_state = 0;  ///< raw dist LeaseState
  std::uint64_t lease_id = 0;
  std::uint64_t worker_id = 0;
  std::uint32_t handoffs = 0;
  CellCounters committed;
  bool has_report = false;
  CellReport live;  ///< rows always empty on the wire
  [[nodiscard]] bool operator==(const ReplicaCell&) const = default;
};

/// Primary -> standby: the complete coordinator state, sent once right
/// after kStandbyHello (and again after a replication reconnect).
struct ReplicaSnapshot {
  std::uint64_t epoch = 0;
  /// Lease-id high-water mark (the highest id ever issued), so a promoted
  /// standby never reuses a live lease id.
  std::uint64_t next_lease_id = 0;
  std::vector<ReplicaWorker> workers;
  std::vector<ReplicaCell> cells;
  [[nodiscard]] bool operator==(const ReplicaSnapshot&) const = default;
};

/// What one kReplicaEvent carries.  Each kind is a whole entity, the same
/// one the snapshot holds, so the standby restores an event exactly as it
/// restores a snapshot entry.  The payload is a fixed superset of the kinds
/// (unused parts travel as zeros/empties), so the codec stays a flat read
/// with no kind-dependent branching.
enum class ReplicaEventKind : std::uint8_t {
  kWorkerJoin = 0,   ///< `worker` entered the catalog
  kWorkerLeave = 1,  ///< `worker.worker_id` left the catalog
  kCell = 2,         ///< `cell` replaces the mirror's cell; `rows` ingested
};

const char* to_string(ReplicaEventKind kind);

/// Primary -> standby: one replicated worker or cell.
struct ReplicaEvent {
  ReplicaEventKind kind = ReplicaEventKind::kWorkerJoin;
  std::uint64_t epoch = 0;
  ReplicaWorker worker;  ///< kWorkerJoin; kWorkerLeave reads worker_id only
  ReplicaCell cell;      ///< kCell: the cell's state after the mutation
  /// kCell: history rows the primary just ingested for the cell, with
  /// `slot` already on its lifetime axis (unlike CellReport rows, which
  /// are lease-local).
  std::vector<StoreRowUpdate> rows;
  [[nodiscard]] bool operator==(const ReplicaEvent&) const = default;
};

// ---- Field descriptions ----------------------------------------------
//
// Each payload struct, and each struct nested in one, is described once by
//
//   template <class Io> void fields(Io& io, T& value);
//
// which lists its fields in wire order as io(a, b, c).  WireWriter and
// WireReader are the two Io types, so one description drives both encode
// and decode and the two sides cannot drift apart.  How a field travels
// follows from its C++ type:
//   - an integer: its own width, little-endian; a bool: one byte, 0 or 1
//   - an enum: its underlying integer; the reader rejects a value for
//     which valid_on_wire() is false
//   - a double: its IEEE-754 bits as a u64
//   - a std::string: u16 length + raw bytes
//   - a std::vector: u32 count + the elements
//   - as<W>(x): x travels as the integer type W (an `unsigned` PRB index
//     sent as a u16)
//   - any other struct: its own fields()
// A field that packs bits into one byte, or whose count is implied, is
// unpacked in an `if constexpr (Io::kReading)` block beside its write.

/// Field proxy: `ref` travels as the wire integer type W.
template <class W, class T>
struct As {
  using wire_type = W;
  T& ref;
};

template <class W, class T>
As<W, T> as(T& ref) {
  return {ref};
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

/// Appends little-endian fields to a byte buffer.
class WireWriter {
 public:
  static constexpr bool kReading = false;

  /// Appends each field by the "Field descriptions" rules.
  template <class... Ts>
  void operator()(const Ts&... fields) {
    (put(fields), ...);
  }
  void bytes(std::span<const std::uint8_t> data);

  /// Starts a frame: writes the header, leaving the payload length for
  /// take_frame() to fill in once the payload has been written.
  void begin_frame(FrameType type);
  [[nodiscard]] std::vector<std::uint8_t> take_frame();

  [[nodiscard]] const std::vector<std::uint8_t>& data() const {
    return out_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.push_back(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      const auto u = static_cast<std::make_unsigned_t<T>>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
      }
    } else if constexpr (std::is_same_v<T, double>) {
      put(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint16_t>(v.size()));
      out_.insert(out_.end(), v.begin(), v.end());
    } else if constexpr (kIsVector<T>) {
      put(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) {
        put(item);
      }
    } else if constexpr (requires { typename T::wire_type; }) {
      put(static_cast<typename T::wire_type>(v.ref));
    } else {
      // Descriptions take a mutable reference so that one function serves
      // both directions; the writer only ever reads through it.
      fields(*this, const_cast<T&>(v));
    }
  }

  std::vector<std::uint8_t> out_;
};

/// Reads little-endian fields from a byte buffer.  Reading past the end,
/// an enum value outside its range, or decoded storage beyond
/// kWireMaxDecodedBytes sets a sticky error flag and skips to the end, so
/// later reads fail fast and leave their fields as they were; callers
/// check ok() once at the end instead of guarding every field.
class WireReader {
 public:
  static constexpr bool kReading = true;

  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Reads each field by the "Field descriptions" rules.
  template <class... Ts>
  void operator()(Ts&&... fields) {
    (get(fields), ...);
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the whole buffer was consumed without error (a decode that
  /// leaves trailing bytes saw a different layout than the encoder wrote).
  [[nodiscard]] bool done() const { return ok_ && remaining() == 0; }

 private:
  void fail() {
    ok_ = false;
    pos_ = data_.size();
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t byte = 0;
      get(byte);
      v = byte != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw = 0;
      get(raw);
      v = static_cast<T>(raw);
      if (!valid_on_wire(v)) {
        fail();
      }
    } else if constexpr (std::is_integral_v<T>) {
      if (remaining() < sizeof(T)) {
        fail();
        return;
      }
      std::make_unsigned_t<T> u = 0;
      for (std::size_t i = sizeof(T); i-- > 0;) {
        u = static_cast<std::make_unsigned_t<T>>((u << 8) | data_[pos_ + i]);
      }
      pos_ += sizeof(T);
      v = static_cast<T>(u);
    } else if constexpr (std::is_same_v<T, double>) {
      std::uint64_t bits = 0;
      get(bits);
      v = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint16_t len = 0;
      get(len);
      if (remaining() < len || !charge(len)) {
        fail();
        return;
      }
      v.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
      pos_ += len;
    } else if constexpr (kIsVector<T>) {
      std::uint32_t n = 0;
      get(n);
      // The count is untrusted.  The elements' memory is charged to the
      // payload's budget before anything is reserved; capacity is reserved
      // only for what the bytes left could hold, and every element takes
      // at least one byte, so a count larger than the bytes left is
      // rejected as soon as it becomes one.
      if (!charge(std::size_t{n} * sizeof(typename T::value_type))) {
        fail();
        return;
      }
      v.clear();
      v.reserve(std::min<std::size_t>(
          n, remaining() / sizeof(typename T::value_type)));
      for (std::uint32_t i = 0; i < n && ok_; ++i) {
        if (remaining() < n - i) {
          fail();
          return;
        }
        get(v.emplace_back());
      }
    } else if constexpr (requires { typename T::wire_type; }) {
      typename T::wire_type raw = 0;
      get(raw);
      v.ref = static_cast<std::remove_reference_t<decltype(v.ref)>>(raw);
    } else {
      fields(*this, v);
    }
  }

  /// Charges `bytes` of decoded storage to the budget; false once it
  /// would be overspent.
  bool charge(std::size_t bytes) {
    if (bytes > budget_) {
      return false;
    }
    budget_ -= bytes;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::size_t budget_ = kWireMaxDecodedBytes;
  bool ok_ = true;
};

// Enum ranges the reader accepts.
constexpr bool valid_on_wire(DciFormat f) { return f <= DciFormat::kDl1_1; }
constexpr bool valid_on_wire(Scs s) { return s <= Scs::kHz60; }
constexpr bool valid_on_wire(McsTable t) {
  return t >= McsTable::kQam64 && t <= McsTable::kQam64LowSe;
}
constexpr bool valid_on_wire(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
    case Modulation::kQpsk:
    case Modulation::kQam16:
    case Modulation::kQam64:
    case Modulation::kQam256:
      return true;
  }
  return false;
}
constexpr bool valid_on_wire(QueryKind k) { return k <= QueryKind::kTopK; }
constexpr bool valid_on_wire(QueryStatus s) {
  return s <= QueryStatus::kUnavailable;
}
constexpr bool valid_on_wire(ReplicaEventKind k) {
  return k <= ReplicaEventKind::kCell;
}

template <class Io>
void fields(Io& io, HelloInfo& h) {
  io(h.version, h.next_slot);
}

template <class Io>
void fields(Io& io, Mib& m) {
  io(m.sfn, m.scs_common, m.coreset0_rb_start, m.coreset0_n_prb6,
     m.coreset0_duration, m.searchspace0, m.cell_barred);
}

template <class Io>
void fields(Io& io, Dci& d) {
  io(d.format, d.freq_alloc_riv, d.time_alloc, d.mcs, d.ndi, d.rv, d.harq_id,
     d.dai, d.tpc, d.pucch_resource, d.harq_feedback, d.ports, d.srs_request,
     d.dmrs_id);
}

template <class Io>
void fields(Io& io, Grant& g) {
  io(g.rnti, g.format, as<std::uint16_t>(g.prb_start),
     as<std::uint16_t>(g.prb_len), as<std::uint8_t>(g.start_symbol),
     as<std::uint8_t>(g.n_symbols), as<std::uint8_t>(g.mcs), g.modulation,
     g.code_rate, as<std::uint8_t>(g.n_layers), as<std::uint32_t>(g.tbs),
     g.ndi, g.rv, g.harq_id);
}

template <class Io>
void fields(Io& io, DecodedDci& d) {
  io(d.slot, d.rnti, d.dci, d.grant, as<std::uint16_t>(d.agg_level),
     as<std::uint16_t>(d.cce_start), d.is_retx);
}

template <class Io>
void fields(Io& io, RrcSetup& rrc) {
  // The aggregation levels travel as a u8 count and u16 levels.
  std::vector<unsigned>& levels = rrc.ue_ss.agg_levels;
  auto n_levels = static_cast<std::uint8_t>(levels.size());
  io(rrc.ue_ss.ue_specific, n_levels);
  if constexpr (Io::kReading) {
    levels.resize(n_levels);
  }
  for (unsigned& level : levels) {
    io(as<std::uint16_t>(level));
  }
  io(as<std::uint16_t>(rrc.ue_ss.candidates_per_level), rrc.dl_format,
     rrc.mcs_table, as<std::uint8_t>(rrc.max_mimo_layers),
     as<std::uint8_t>(rrc.n_harq_processes));
}

template <class Io>
void fields(Io& io, NewUe& ue) {
  io(ue.c_rnti, ue.slot, ue.verified, ue.config);
}

template <class Io>
void fields(Io& io, SlotResult& r) {
  // One flags byte: bit 0 = a MIB follows, bit 1 = SIB1 decoded, bit 2 =
  // degraded, bits 4-5 = sync state.
  auto flags = static_cast<std::uint8_t>(
      (r.mib ? 0x1 : 0) | (r.sib1_decoded ? 0x2 : 0) |
      (r.degraded ? 0x4 : 0) |
      ((static_cast<unsigned>(r.sync_state) & 0x3) << 4));
  io(r.slot, r.processing_time_us, flags);
  if constexpr (Io::kReading) {
    r.sib1_decoded = (flags & 0x2) != 0;
    r.degraded = (flags & 0x4) != 0;
    r.sync_state = static_cast<SyncState>((flags >> 4) & 0x3);
    if ((flags & 0x1) != 0) {
      r.mib.emplace();
    }
  }
  if (r.mib) {
    io(*r.mib);
  }
  io(r.dcis, r.new_ues);
}

template <class Io>
void fields(Io& io, CounterSnapshot& c) {
  io(c.name, c.value);
}

template <class Io>
void fields(Io& io, GaugeSnapshot& g) {
  io(g.name, g.value);
}

template <class Io>
void fields(Io& io, HistogramSnapshot& h) {
  io(h.name, h.count, h.sum, h.min, h.max, h.bounds);
  // One count per bucket, bounds.size() + 1 of them, with no count prefix.
  if constexpr (Io::kReading) {
    h.counts.resize(h.bounds.size() + 1);
  }
  for (std::uint64_t& count : h.counts) {
    io(count);
  }
}

template <class Io>
void fields(Io& io, MetricsSnapshot& s) {
  io(s.counters, s.gauges, s.histograms);
  if constexpr (Io::kReading) {
    // Re-derive the fast-lookup flag rather than trusting the wire: the
    // peer's snapshot is registry-sorted in practice, but a hand-built one
    // must not get binary-searched.
    const auto by_name = [](const auto& a, const auto& b) {
      return a.name < b.name;
    };
    s.sorted_by_name =
        std::is_sorted(s.counters.begin(), s.counters.end(), by_name) &&
        std::is_sorted(s.gauges.begin(), s.gauges.end(), by_name) &&
        std::is_sorted(s.histograms.begin(), s.histograms.end(), by_name);
  }
}

template <class Io>
void fields(Io& io, CellCounters& c) {
  io(c.slots, c.dcis, c.retx_dcis, c.restarts, c.degraded_slots,
     c.resync_slots);
}

template <class Io>
void fields(Io& io, CellSummary& c) {
  io(c.cell_index, c.name, c.state, c.counters, c.active_ues, c.dl_mbps,
     c.ul_mbps, c.retx_rate, c.utilization, c.spare_prb_rate);
}

template <class Io>
void fields(Io& io, FleetSummary& f) {
  io(f.slot, f.totals, f.dl_mbps_total, f.ul_mbps_total, f.retx_rate,
     f.spare_ranking, f.cells);
}

template <class Io>
void fields(Io& io, QueryRequest& q) {
  io(q.correlation_id, q.kind, q.cell, q.rnti, q.metric, q.slot_from,
     q.slot_to, q.bucket_slots, q.k);
}

template <class Io>
void fields(Io& io, QueryRowWire& r) {
  io(r.slot, r.value);
}

template <class Io>
void fields(Io& io, QueryBucket& b) {
  io(b.slot_start, b.count, b.sum, b.avg, b.max);
}

template <class Io>
void fields(Io& io, TopKEntry& e) {
  io(e.cell, e.rnti, e.score, e.rows);
}

template <class Io>
void fields(Io& io, QueryResponse& q) {
  io(q.correlation_id, q.status, q.kind, q.error, q.rows, q.buckets,
     q.ranking);
}

template <class Io>
void fields(Io& io, VersionReject& v) {
  io(v.rejected, v.min_version, v.max_version, v.message);
}

template <class Io>
void fields(Io& io, WorkerHello& h) {
  io(h.name, h.capacity, h.version, h.epoch);
}

template <class Io>
void fields(Io& io, WireCellSpec& s) {
  io(s.cell_index, s.name, s.preset, s.pci, s.n_ues, s.ue_rate_bps,
     s.ue_snr_db, s.sniffer_snr_db, s.seed, s.incarnation);
}

template <class Io>
void fields(Io& io, LeaseGrant& l) {
  io(l.lease_id, l.ttl_ms, l.epoch, l.spec);
}

template <class Io>
void fields(Io& io, LeaseAck& a) {
  io(a.lease_id, a.accepted, a.message, a.epoch);
}

template <class Io>
void fields(Io& io, WorkerHeartbeat& h) {
  io(h.seq, h.epoch, h.leases);
}

template <class Io>
void fields(Io& io, StoreRowUpdate& r) {
  io(r.rnti, r.metric, r.slot, r.value);
}

template <class Io>
void fields(Io& io, CellReport& c) {
  io(c.lease_id, c.epoch, c.cell, c.rows);
}

template <class Io>
void fields(Io& io, CellReportBatch& b) {
  io(b.reports);
}

template <class Io>
void fields(Io& io, PredictionEntry& e) {
  // One flags byte: bit 0 = has_actual, bit 1 = degraded.
  auto flags = static_cast<std::uint8_t>((e.has_actual ? 0x1 : 0) |
                                         (e.degraded ? 0x2 : 0));
  io(e.rnti, flags, e.predicted_bps, e.actual_bps, e.abs_error_bps);
  if constexpr (Io::kReading) {
    e.has_actual = (flags & 0x1) != 0;
    e.degraded = (flags & 0x2) != 0;
  }
}

template <class Io>
void fields(Io& io, PredictionSet& p) {
  io(p.cell_index, p.slot, p.horizon_slots, p.model_version, p.entries);
}

template <class Io>
void fields(Io& io, LeaseRevoke& r) {
  io(r.lease_id, r.reason, r.epoch);
}

template <class Io>
void fields(Io& io, StandbyHello& h) {
  io(h.name, h.version);
}

template <class Io>
void fields(Io& io, NotPrimary& n) {
  io(n.epoch, n.message);
}

template <class Io>
void fields(Io& io, ReplicaWorker& w) {
  io(w.worker_id, w.name, w.capacity);
}

template <class Io>
void fields(Io& io, ReplicaCell& c) {
  io(c.spec, c.lease_state, c.lease_id, c.worker_id, c.handoffs,
     c.committed, c.has_report, c.live);
}

template <class Io>
void fields(Io& io, ReplicaSnapshot& s) {
  io(s.epoch, s.next_lease_id, s.workers, s.cells);
}

template <class Io>
void fields(Io& io, ReplicaEvent& e) {
  io(e.kind, e.epoch, e.worker, e.cell, e.rows);
}

// ---- Frames ----------------------------------------------------------

/// The frame type that carries payload type T: the one place a payload is
/// bound to its FrameType.  FrameType{0} marks a type that is not a frame
/// payload (a nested struct such as CellReport).
template <class T>
inline constexpr FrameType kFrameOf = FrameType{0};
template <>
inline constexpr FrameType kFrameOf<HelloInfo> = FrameType::kHello;
template <>
inline constexpr FrameType kFrameOf<SlotResult> = FrameType::kSlot;
template <>
inline constexpr FrameType kFrameOf<MetricsSnapshot> = FrameType::kMetrics;
template <>
inline constexpr FrameType kFrameOf<FleetSummary> = FrameType::kFleet;
template <>
inline constexpr FrameType kFrameOf<QueryRequest> = FrameType::kQuery;
template <>
inline constexpr FrameType kFrameOf<QueryResponse> = FrameType::kQueryResult;
template <>
inline constexpr FrameType kFrameOf<WorkerHello> = FrameType::kWorkerHello;
template <>
inline constexpr FrameType kFrameOf<LeaseGrant> = FrameType::kLease;
template <>
inline constexpr FrameType kFrameOf<LeaseAck> = FrameType::kLeaseAck;
template <>
inline constexpr FrameType kFrameOf<WorkerHeartbeat> =
    FrameType::kWorkerHeartbeat;
template <>
inline constexpr FrameType kFrameOf<LeaseRevoke> = FrameType::kLeaseRevoke;
template <>
inline constexpr FrameType kFrameOf<VersionReject> =
    FrameType::kUnsupportedVersion;
template <>
inline constexpr FrameType kFrameOf<PredictionSet> = FrameType::kPrediction;
template <>
inline constexpr FrameType kFrameOf<CellReportBatch> =
    FrameType::kCellReportBatch;
template <>
inline constexpr FrameType kFrameOf<StandbyHello> = FrameType::kStandbyHello;
template <>
inline constexpr FrameType kFrameOf<ReplicaSnapshot> =
    FrameType::kReplicaSnapshot;
template <>
inline constexpr FrameType kFrameOf<ReplicaEvent> = FrameType::kReplicaEvent;
template <>
inline constexpr FrameType kFrameOf<NotPrimary> = FrameType::kNotPrimary;

/// One parsed frame; `payload` is a copy, safe to keep after the parser
/// buffer changes.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

/// Frames `payload` under the frame type bound to its type.
template <class T>
std::vector<std::uint8_t> encode_frame(const T& payload) {
  static_assert(kFrameOf<T> != FrameType{0}, "not a frame payload type");
  WireWriter w;
  w.begin_frame(kFrameOf<T>);
  w(payload);
  return w.take_frame();
}

/// Wraps raw payload bytes in a header (the empty kHeartbeat and kEnd
/// frames use this).
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload);

/// Decodes one T from a payload.  std::nullopt unless the whole payload is
/// consumed without error: a truncated, corrupt or over-long payload is
/// never half-decoded.
template <class T>
std::optional<T> decode_payload(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  T value{};
  r(value);
  if (!r.done()) {
    return std::nullopt;
  }
  return value;
}

/// Named alias of encode_frame(set), which the whole-chain benchmark calls.
inline std::vector<std::uint8_t> prediction_frame(const PredictionSet& set) {
  return encode_frame(set);
}

/// Incremental frame parser for a TCP byte stream: feed() arbitrary chunks,
/// pop complete frames with next().  A malformed header (bad magic, a
/// version other than kWireVersion, oversized payload) puts the parser in
/// a sticky error state — on a reliable transport that means protocol
/// mismatch, and the right response is to drop the connection.  When the
/// failure was specifically a version mismatch, the offending version is
/// recorded so the owner can answer with a structured kUnsupportedVersion
/// frame before disconnecting.
class FrameParser {
 public:
  void feed(std::span<const std::uint8_t> data);
  std::optional<Frame> next();

  [[nodiscard]] bool error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error_message() const { return error_; }
  /// Set iff the sticky error is a protocol-version mismatch: the version
  /// the peer's header announced.
  [[nodiscard]] std::optional<std::uint16_t> rejected_version() const {
    return rejected_version_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::string error_;
  std::optional<std::uint16_t> rejected_version_;
};

}  // namespace nrs
