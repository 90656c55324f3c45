// FleetCoordinator: the process-level master of the distributed sniffer
// fleet (ROADMAP "coordinator/worker split", Work-Queue style).  It owns a
// listening socket; FleetWorker processes connect, announce capacity with
// kWorkerHello, and are granted per-cell leases (kLease) with TTLs.
// Workers renew their leases with kWorkerHeartbeat, stream telemetry back
// as kCellReportBatch frames, and can be told to drop a cell with kLeaseRevoke
// (rebalancing toward a newly joined worker).
//
// Failure model: a worker that disappears (socket EOF, send failure) or
// goes silent past heartbeat_timeout_s is declared dead; its leases are
// released with the lease table's bounded exponential backoff and
// reassigned to surviving workers with free capacity — the same
// backoff/incarnation discipline the in-process fleet supervisor applies
// to crashed cells, lifted to the process level.  A worker speaking an
// incompatible wire version receives a structured kUnsupportedVersion
// frame before the drop.
//
// Continuity: the coordinator keeps per-cell COMMITTED counters (the sum
// of all ended leases) plus the live report of the current lease.  The
// counters cells() and summary() expose are their sum, so they only ever
// grow, the fleet view stays monotonic across a reassignment, and a cell's
// retransmission rate is its lifetime rate, between leases too.  Forwarded
// store rows are rebased onto each cell's lifetime slot axis and ingested
// into an embedded HistoryStore — post-kill queries return rows from
// before and after the handoff.
//
// High availability: a second FleetCoordinator started with
// `standby_of = "host:port"` runs as a replicated STANDBY — it dials the
// primary, attaches as a replication tail (kStandbyHello), mirrors the
// full coordinator state (one kReplicaSnapshot, then one kReplicaEvent
// per mutation: a joining or leaving worker, or a cell's whole replicated
// state — lease binding, committed totals, live report — with the history
// rows it just ingested, already rebased), and answers any
// worker that dials it early with kNotPrimary.  When the primary dies
// (EOF on the replication link, or replication silence), the standby
// PROMOTES: it bumps the epoch (a monotonically increasing term carried
// on every lease, heartbeat and report), restarts every mirrored lease's
// TTL clock and waits for the healthy workers to reconnect — their
// heartbeats list lease ids the standby already knows, so the leases are
// RE-CONFIRMED (rebound to the new connection) rather than reassigned:
// zero handoffs, zero cell restarts, totals and history continuous.  A
// deposed primary that resurrects sees the higher epoch on worker hellos
// and fences itself instead of competing for the fleet.
//
// Threads: ONE io thread owns every socket and all coordination state;
// public accessors copy snapshots out under a mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/metrics.h"
#include "dist/catalog.h"
#include "dist/lease.h"
#include "net/wire.h"
#include "store/history_store.h"

namespace nrs {

/// One cell the coordinator wants running somewhere: a preset name plus
/// overrides (the same shape the wire-level WireCellSpec carries).
struct CoordinatorCellSpec {
  std::string name;
  std::string preset = "srsran";
  std::uint16_t pci = 0;  ///< 0 = keep the preset's PCI
  unsigned n_ues = 2;
  double ue_rate_bps = 2e6;
  double ue_snr_db = 18.0;
  double sniffer_snr_db = 28.0;
};

/// Whether a coordinator currently serves leases or tails a primary.
enum class CoordinatorRole : std::uint8_t {
  kPrimary = 0,
  kStandby = 1,
};

const char* to_string(CoordinatorRole role);

/// A primary's term; a promoted standby takes the mirrored term + 1.
inline constexpr std::uint64_t kInitialEpoch = 1;
/// Primary -> replica keepalive period (lets the standby tell a wedged
/// primary from an idle one).
inline constexpr std::chrono::milliseconds kReplicationHeartbeat{50};
/// Standby: no replication traffic for this long -> the link is dead.
inline constexpr std::chrono::milliseconds kReplicationTimeout{600};
/// Standby: how long the primary must stay unreachable (after a synced
/// tail) before promotion.  Guards against promoting on a transient
/// replication-link blip while the primary is still serving workers.
inline constexpr std::chrono::milliseconds kPromoteAfter{300};
/// Standby redial schedule toward its primary (jittered like every other
/// redial).
inline constexpr BackoffPolicy kStandbyRedial{0.05, 0.5};
/// Connections (workers, replica tails, peers not yet greeted) one
/// coordinator holds at once; further accepts are closed.
inline constexpr std::size_t kMaxCoordinatorConnections = 64;

struct CoordinatorConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (see port())
  std::vector<CoordinatorCellSpec> cells;
  std::uint64_t seed = 1;  ///< per-cell seed bases derive from it

  /// Non-empty ("host:port") -> start as a replicated standby tailing
  /// that primary.  A standby needs no `cells` of its own: the snapshot
  /// replicates the specs (and seeds), so the promoted standby grants
  /// byte-identical cell streams.
  std::string standby_of;

  std::uint32_t lease_ttl_ms = 1500;
  /// A worker silent for this long is dead (heartbeats are expected every
  /// worker heartbeat_period_s, typically 100 ms).
  double heartbeat_timeout_s = 1.0;
  /// When a worker joins, revoke leases from overloaded workers so the
  /// fleet converges toward an even split.
  bool rebalance_on_join = true;

  HistoryStoreConfig store;  ///< retention of the embedded history store
};

/// Point-in-time view of one cell's distribution state.
struct DistCellStatus {
  std::uint32_t cell_index = 0;
  std::string name;
  LeaseState lease_state = LeaseState::kUnassigned;
  std::uint64_t lease_id = 0;
  std::uint64_t worker_id = 0;  ///< holder's catalog id (0 = none)
  unsigned handoffs = 0;        ///< completed lease handoffs
  std::uint64_t slots = 0;      ///< lifetime (committed + current lease)
  std::uint64_t dcis = 0;
  std::uint8_t cell_state = 0;  ///< raw FleetCellState from the last report
};

/// Point-in-time view of one catalog entry.
struct DistWorkerStatus {
  std::uint64_t id = 0;
  std::string name;
  std::uint32_t capacity = 0;
  bool alive = false;
  std::vector<std::uint32_t> cells;
};

class FleetCoordinator {
 public:
  /// Binds, listens, and starts the io thread immediately (throws
  /// std::runtime_error when the socket cannot be bound).  `registry`
  /// (optional) receives the dist.* metrics and the embedded store's
  /// store.* metrics.
  explicit FleetCoordinator(CoordinatorConfig config,
                            MetricsRegistry* registry = nullptr);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  /// Stop the io thread, close every socket.  Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // ---- Snapshots (any thread) ----
  [[nodiscard]] std::size_t worker_count() const;
  [[nodiscard]] std::vector<DistWorkerStatus> workers() const;
  [[nodiscard]] std::vector<DistCellStatus> cells() const;
  /// Wire-ready aggregate: each cell's committed + live counters, and its
  /// live values while a lease reports; monotonic across reassignments.
  /// cells[i].state carries the worker's FleetCellState byte; an
  /// unassigned cell reports kBackoff.
  [[nodiscard]] FleetSummary summary() const;
  /// Leases released due to worker death or expiry (not rebalancing).
  [[nodiscard]] std::uint64_t reassignments() const;
  /// True when every cell's lease is kActive and its last report shows a
  /// running cell.
  [[nodiscard]] bool all_cells_active() const;

  // ---- High availability (any thread) ----
  /// Current role: a standby flips to kPrimary at promotion.
  [[nodiscard]] CoordinatorRole role() const;
  /// Current epoch (term).  0 on a standby that has not synced yet.
  [[nodiscard]] std::uint64_t epoch() const;
  /// Standby: true once the first snapshot has been applied (the mirror
  /// is complete and promotion is possible).
  [[nodiscard]] bool synced() const;
  /// True once this (former) primary has seen a higher epoch and fenced
  /// itself: it stops granting and answers worker hellos with kNotPrimary.
  [[nodiscard]] bool deposed() const;
  /// Standby -> primary promotions performed by this instance (0 or 1).
  [[nodiscard]] std::uint64_t promotions() const;
  /// Leases re-confirmed (rebound, not reassigned) after a promotion.
  [[nodiscard]] std::uint64_t reconfirmations() const;

  /// The embedded history store (fleet-lifetime slot axis).  Readers are
  /// lock-free; the io thread is the single writer.  Outlives queries made
  /// through it as long as the coordinator is alive.
  [[nodiscard]] const HistoryStore& store() const { return store_; }

  /// Latest per-UE throughput PredictionSet forwarded by each cell's
  /// worker (empty until a v4 worker with prediction enabled reports).
  /// Keyed by fleet-global cell index — the fleet-wide prediction view.
  [[nodiscard]] std::map<std::uint32_t, PredictionSet> predictions() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One accepted connection (worker, replica tail, or not-yet-greeted
  /// peer).
  struct Connection {
    int fd = -1;
    FrameParser parser;
    std::uint64_t worker_id = 0;  ///< 0 until kWorkerHello registers it
    bool is_replica = false;      ///< attached with kStandbyHello
  };

  /// Per-cell aggregation state: counters committed by ended leases plus
  /// the live report of the current lease.
  struct CellRecord {
    /// What a grant of this cell carries; `incarnation` is set at each
    /// grant to the cell's handoff count.
    WireCellSpec spec;
    /// Ended leases only; grows monotonically.  Its `slots` is also the
    /// current lease's base on the store's lifetime slot axis.
    CellCounters committed;
    CellReport last;  ///< latest report under the current lease
    bool has_report = false;
    /// Per-series ingest cursor: cached series pointer + last global slot,
    /// clamped non-decreasing across lease handoffs.
    struct SeriesCursor {
      StoreSeries* series = nullptr;
      std::uint64_t last_slot = 0;
      bool started = false;
    };
    std::map<std::uint64_t, SeriesCursor> cursors;  ///< by SeriesKey::packed
  };

  void io_loop();
  void handle_accept();
  void read_connection(Connection& conn);
  void handle_frame(Connection& conn, const Frame& frame);
  void handle_worker_hello(Connection& conn, const WorkerHello& hello);
  void handle_lease_ack(Connection& conn, const LeaseAck& ack);
  void handle_heartbeat(Connection& conn, const WorkerHeartbeat& hb);
  void handle_cell_report(Connection& conn, CellReport report);
  void handle_prediction(Connection& conn, const PredictionSet& set);
  /// Timers: dead-worker scan, lease expiry, assignment of unassigned
  /// cells, rebalancing.
  void run_timers(Clock::time_point now);
  /// The cell as cells() and summary() show it: committed plus live
  /// counters, and the live values while a lease reports.
  [[nodiscard]] CellSummary cell_summary(std::uint32_t cell_index) const;

  /// A standby or deposed coordinator serves no peer: answer kNotPrimary
  /// and hang up.  True when it refused.
  bool refuse_unless_primary(Connection& conn);

  // -- Replication: primary side --
  void handle_standby_hello(Connection& conn, const StandbyHello& hello);
  /// Fan one event out to every attached replica tail (the event's epoch
  /// is stamped here).  A failed send drops that tail; the standby redials
  /// and re-snapshots.
  void replicate(ReplicaEvent event);
  /// The cell's whole replicated state: the one description a snapshot
  /// entry and a kCell event share.
  [[nodiscard]] ReplicaCell replica_cell(std::uint32_t cell_index) const;
  /// After any mutation of a cell: replicate it whole, with the history
  /// rows just ingested for it.  Builds nothing when no tail is attached.
  void replicate_cell(std::uint32_t cell_index,
                      std::vector<StoreRowUpdate> rows = {});
  /// Erase a worker from the catalog and replicate its leave.
  void forget_worker(std::uint64_t worker_id);
  [[nodiscard]] ReplicaSnapshot build_snapshot() const;
  /// We saw a frame from a higher epoch: a promoted standby owns the
  /// fleet now.  Stop granting, answer hellos with kNotPrimary.
  void fence_self(std::uint64_t seen_epoch);

  // -- Replication: standby side --
  /// Dial the primary when the upstream link is down and the (jittered)
  /// backoff has elapsed.  Called on the io thread with the state lock
  /// NOT held — the dial blocks for up to kDialTimeout.
  void maybe_connect_upstream();
  void read_upstream();
  void handle_replication_frame(const Frame& frame);
  void apply_snapshot(const ReplicaSnapshot& snapshot,
                      Clock::time_point now);
  void apply_event(const ReplicaEvent& event, Clock::time_point now);
  /// Mirror one replicated cell (snapshot entry or kCell event): its spec,
  /// committed counters, live report and lease binding.  nullptr when the
  /// cell index is outside the mirrored fleet.
  CellRecord* restore_cell(const ReplicaCell& cell, Clock::time_point now);
  void drop_upstream(Clock::time_point now);
  /// Standby timers: replication-silence detection and promotion.
  void standby_timers(Clock::time_point now);
  /// Take over the fleet: bump the epoch, restart lease TTL and catalog
  /// liveness clocks, hold rebalancing for one TTL so reconnecting
  /// workers re-confirm instead of getting shuffled.
  void promote(Clock::time_point now);

  void declare_worker_dead(std::uint64_t worker_id, const char* why);
  /// Release the cell's lease, folding its last report into the committed
  /// counters so the lifetime view never rewinds.
  void end_lease(std::uint32_t cell_index, bool penalize,
                 Clock::time_point now);
  void try_assign(std::uint32_t cell_index, Clock::time_point now);
  /// Send `lease`'s holder its grant (a first grant or a renewal: same
  /// lease id, same spec).
  void send_grant(const Lease& lease);
  void rebalance(Clock::time_point now);
  /// Ingest rows into the embedded store at `base_slot + row.slot` (a
  /// report's lease-local rows, or a replica's already-rebased ones).
  /// When `replicated` is non-null, the rows actually appended are copied
  /// there with their slots on the cell's lifetime axis (kStoreRows feed).
  void ingest_rows(std::uint32_t cell_index, CellRecord& record,
                   const std::vector<StoreRowUpdate>& rows,
                   std::uint64_t base_slot,
                   std::vector<StoreRowUpdate>* replicated);
  [[nodiscard]] bool has_replica() const;
  /// Synchronous best-effort send on the io thread (SO_SNDTIMEO-bounded);
  /// a failure declares the worker dead.
  bool send_to_worker(std::uint64_t worker_id,
                      const std::vector<std::uint8_t>& frame);
  void close_connection(Connection& conn);

  CoordinatorConfig config_;
  std::unique_ptr<MetricsRegistry> own_registry_;
  MetricsRegistry* registry_ = nullptr;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread io_;

  // Coordination state: mutated only on the io thread, read by accessors
  // under the mutex.
  mutable std::mutex state_mutex_;
  WorkerCatalog catalog_;
  LeaseTable leases_;
  std::vector<CellRecord> records_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::uint32_t, PredictionSet> predictions_;  ///< by cell index

  // -- High-availability state (same locking rules) --
  CoordinatorRole role_ = CoordinatorRole::kPrimary;
  std::uint64_t epoch_ = 0;       ///< current term (0 = unsynced standby)
  bool deposed_ = false;          ///< fenced by a higher epoch
  bool synced_ = false;           ///< standby: snapshot applied
  std::uint64_t promotions_ = 0;
  std::uint64_t reconfirmations_ = 0;
  /// Replication link to the primary (standby only; io thread owns it).
  int upstream_fd_ = -1;
  FrameParser upstream_parser_;
  Clock::time_point upstream_last_rx_{};
  RedialSchedule upstream_redial_{kStandbyRedial};
  std::string upstream_host_;
  std::uint16_t upstream_port_ = 0;
  /// Post-promotion grace: no join-triggered rebalancing until here, so
  /// reconnecting workers re-confirm their leases undisturbed.
  Clock::time_point rebalance_hold_until_{};
  Clock::time_point next_replica_heartbeat_{};

  HistoryStore store_;

  Counter* m_leases_granted_ = nullptr;
  Counter* m_leases_expired_ = nullptr;
  Counter* m_lease_refusals_ = nullptr;
  Counter* m_reassignments_ = nullptr;
  Counter* m_workers_dead_ = nullptr;
  Counter* m_stale_reports_ = nullptr;
  Counter* m_predictions_rx_ = nullptr;
  Counter* m_version_rejects_ = nullptr;
  Counter* m_revokes_ = nullptr;
  Counter* m_promotions_ctr_ = nullptr;
  Counter* m_reconfirmed_ = nullptr;
  Counter* m_deposed_ctr_ = nullptr;
  Counter* m_not_primary_tx_ = nullptr;
  Counter* m_replica_events_tx_ = nullptr;
  Counter* m_replica_events_rx_ = nullptr;
  Counter* m_replica_snapshots_tx_ = nullptr;
  Counter* m_replica_snapshots_rx_ = nullptr;
  Gauge* m_workers_alive_ = nullptr;
  Gauge* m_cells_active_ = nullptr;
  Gauge* m_epoch_gauge_ = nullptr;
};

}  // namespace nrs
