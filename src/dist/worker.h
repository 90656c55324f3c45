// FleetWorker: one process of the distributed sniffer fleet.  It dials
// the coordinator, announces its capacity (kWorkerHello), and runs the
// cells it is leased (kLease) on an embedded FleetOrchestrator — the same
// supervised multi-cell runtime the single-host fleet_monitor uses, grown
// and shrunk at runtime as leases arrive and go.  For every held lease it
// sends kWorkerHeartbeat (liveness + lease renewal: the ids of the leases
// it holds) and a CellReport (the cell's CellSummary with lease-local
// counters, plus forwarded history-store rows), all leases' reports folded
// into one kCellReportBatch per interval.
//
// Lease discipline: a lease the coordinator stops renewing expires
// locally too — the worker tears the cell down rather than keep running a
// cell the coordinator may have reassigned elsewhere (split-brain
// avoidance).  A kLeaseRevoke tears it down immediately.
//
// Coordinator failover: `coordinators` lists every coordinator address
// (primary first, standbys after).  When the link drops the worker keeps
// its leased cells RUNNING locally for the remainder of their lease TTL
// and redials the list round-robin with jittered exponential backoff; an
// endpoint that answers kNotPrimary is skipped to the next.  On reaching
// the promoted standby the worker's heartbeat lists the lease ids it
// already holds, so the new primary re-confirms them (same leases, no
// cell restarts) and the telemetry stream continues with monotonic
// totals.  Epoch fencing: the worker tracks the highest coordinator term
// it has seen (carried on every hello/heartbeat/report), adopts higher
// terms from grants, and REFUSES grants or revokes from a lower term — a
// deposed primary cannot reclaim or tear down cells the new primary owns
// (`dist.worker.stale_epoch_rejected` counts the refusals).
//
// Failure/termination paths:
//   stop()  — graceful leave: drain the orchestrator, close the socket
//             (the coordinator sees EOF and reassigns).
//   kill()  — test hook simulating `kill -9`: slam the socket shut from
//             the caller's thread; no draining, no goodbye.
//   kUnsupportedVersion from the coordinator — fatal; the worker records
//             protocol_error() and exits its run loop (reconnecting
//             cannot fix a version mismatch).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "fleet/fleet.h"
#include "net/wire.h"
#include "nrscope/slot_sink.h"

namespace nrs {

/// Ceiling of the reconnect backoff (raised to reconnect_backoff_s when
/// that starts higher).
inline constexpr double kReconnectBackoffMaxS = 2.0;
/// Cap on forwarded store rows per cell report (excess rows are dropped
/// oldest-first; the cap bounds frame size under backlog).
inline constexpr std::size_t kMaxRowsPerReport = 4096;
/// Upper bound on one report interval's batched frame, in encoded wire
/// bytes.  Oldest rows are shed (freshest telemetry wins) until the frame
/// fits — the WAN-link bound; `dist.worker.report_bytes` counts what is
/// actually sent.
inline constexpr std::size_t kMaxReportBytes = 256 * 1024;

struct WorkerConfig {
  std::string name = "worker";
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Coordinator address list ("host:port" each) for HA fleets: the
  /// worker dials entries round-robin, skipping past dead endpoints,
  /// unreachable ones (a dial is abandoned after kDialTimeout) and
  /// kNotPrimary answers until it finds the acting primary.  Empty = use
  /// host/port above as the single endpoint.
  std::vector<std::string> coordinators;

  std::uint32_t capacity = 4;  ///< max concurrent cell leases
  unsigned pool_threads = 2;   ///< orchestrator advance pool
  std::uint64_t slots_per_tick = 20;

  double heartbeat_period_s = 0.1;
  double report_period_s = 0.25;
  /// Initial wait between reconnect attempts after the connection drops;
  /// consecutive failures escalate exponentially up to
  /// kReconnectBackoffMaxS, and every delay is jittered per instance
  /// (common/backoff.h) so a fleet-wide failover does not stampede the
  /// new primary.  The worker redials until stop().
  double reconnect_backoff_s = 0.2;
};

class FleetWorker {
 public:
  /// Starts the run thread immediately (connects with retries).
  /// `registry` (optional) receives the worker's fleet.* and
  /// dist.worker.* metrics.
  explicit FleetWorker(WorkerConfig config,
                       MetricsRegistry* registry = nullptr);
  ~FleetWorker();

  FleetWorker(const FleetWorker&) = delete;
  FleetWorker& operator=(const FleetWorker&) = delete;

  /// Graceful leave: drain cells, close the socket, join the run thread.
  /// Idempotent.
  void stop();

  /// Abrupt-death test hook (the in-process stand-in for `kill -9`): shut
  /// the socket down right now from the caller's thread and stop without
  /// draining.  The coordinator sees EOF immediately.
  void kill();

  [[nodiscard]] bool running() const { return !done_.load(); }
  [[nodiscard]] bool connected() const { return connected_.load(); }
  /// Leases currently held (== cells currently running here).
  [[nodiscard]] std::size_t n_cells() const { return n_cells_.load(); }
  /// Lifetime slots delivered across all cells ever leased to this worker.
  [[nodiscard]] std::uint64_t slots_total() const {
    return slots_total_.load();
  }
  /// Highest coordinator epoch (term) this worker has seen.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_.load(); }
  /// Grants/revokes refused because they carried a stale epoch.
  [[nodiscard]] std::uint64_t stale_epoch_rejected() const {
    return stale_epoch_rejected_.load();
  }
  /// Non-empty after the coordinator rejected our wire version.
  [[nodiscard]] std::string protocol_error() const;

  [[nodiscard]] const WorkerConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// SlotSink that buffers cell-level store rows (kCellDcis /
  /// kCellUsedPrbs / kCellSparePrbs, tracking slots only) for the next
  /// cell report.  One per leased cell; it outlives the cell's pipeline
  /// incarnations, so its slot counter is monotonic across worker-local
  /// restarts.  Defined in worker.cc.
  class RowCollector;

  struct HeldLease {
    std::uint64_t lease_id = 0;
    std::uint32_t cell_index = 0;  ///< fleet-global index
    std::uint32_t local_index = 0; ///< index inside the orchestrator
    Clock::time_point expires_at{};
    std::shared_ptr<RowCollector> collector;
  };

  void run();
  void setup_orchestrator();
  void teardown_orchestrator();
  bool connect_once();
  /// Close the link (keeping leased cells running on their TTLs) and
  /// advance to the next coordinator candidate.
  void disconnect();
  void rotate_coordinator();
  void drain_socket();
  void handle_frame(const Frame& frame);
  void handle_lease(const LeaseGrant& grant);
  void handle_revoke(const LeaseRevoke& revoke);
  void handle_not_primary(const NotPrimary& info);
  void drop_lease(std::uint64_t lease_id);
  /// The held lease running at orchestrator-local `local_index` (the sink
  /// factory's lookup); nullptr when none does.
  [[nodiscard]] const HeldLease* lease_at(std::uint32_t local_index) const;
  void expire_leases(Clock::time_point now);
  void send_heartbeat();
  void send_reports();
  bool send_frame(const std::vector<std::uint8_t>& frame);

  WorkerConfig config_;
  std::unique_ptr<MetricsRegistry> own_registry_;
  MetricsRegistry* registry_ = nullptr;

  std::atomic<int> fd_{-1};
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::size_t> n_cells_{0};
  std::atomic<std::uint64_t> slots_total_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> stale_epoch_rejected_{0};
  std::thread thread_;

  /// Resolved coordinator candidates (host, port), dialed round-robin.
  std::vector<std::pair<std::string, std::uint16_t>> endpoints_;
  std::size_t endpoint_index_ = 0;  ///< run-thread only

  // Run-thread state (no locking needed beyond the atomics above).
  std::unique_ptr<FleetOrchestrator> orch_;
  std::unique_ptr<FrameParser> parser_;
  std::map<std::uint64_t, HeldLease> leases_;  ///< by lease_id
  std::uint64_t heartbeat_seq_ = 0;
  /// Slots delivered by leases this worker has already let go.
  std::uint64_t released_lease_slots_ = 0;

  std::mutex join_mutex_;  ///< serializes stop()/kill() joining the thread

  mutable std::mutex protocol_error_mutex_;
  std::string protocol_error_;

  Counter* m_leases_accepted_ = nullptr;
  Counter* m_leases_refused_ = nullptr;
  Counter* m_revokes_ = nullptr;
  Counter* m_expiries_ = nullptr;
  Counter* m_reconnects_ = nullptr;
  Counter* m_heartbeats_ = nullptr;
  Counter* m_reports_ = nullptr;
  Counter* m_report_batches_ = nullptr;
  Counter* m_report_bytes_ = nullptr;
  Counter* m_stale_epoch_ = nullptr;
  Counter* m_not_primary_rx_ = nullptr;
  Gauge* m_cells_ = nullptr;
};

}  // namespace nrs
