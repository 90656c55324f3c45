#include "dist/worker.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/backoff.h"
#include "gnb/presets.h"
#include "net/socket_io.h"
#include "store/store_sink.h"

namespace nrs {

namespace {

std::chrono::steady_clock::duration secs(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

/// One StoreRowUpdate on the wire: rnti u16 + metric u8 + slot u64 +
/// value f64.
constexpr std::size_t kRowWireBytes = 2 + 1 + 8 + 8;

}  // namespace

// Buffers the three cell-level store rows per tracking slot for the next
// cell report.  The slot counter counts EVERY delivered slot (tracking or
// not), mirroring the aggregator's lifetime slot axis, and survives the
// cell's pipeline incarnations (worker-local restarts) because the
// collector itself is owned by the lease, not the pipeline.
class FleetWorker::RowCollector : public SlotSink {
 public:
  explicit RowCollector(unsigned n_prb) : n_prb_(n_prb) {}

  void on_slot(const SlotResult& result) override {
    std::lock_guard lock(mutex_);
    const std::uint64_t slot = slot_counter_++;
    const auto cell = cell_slot_rows(result, n_prb_);
    if (!cell) {
      return;
    }
    const auto row = [slot](StoreMetric metric, double value) {
      return StoreRowUpdate{kStoreCellRnti, static_cast<std::uint8_t>(metric),
                            slot, value};
    };
    rows_.push_back(row(StoreMetric::kCellDcis, cell->dcis));
    rows_.push_back(row(StoreMetric::kCellUsedPrbs, cell->used_prbs));
    rows_.push_back(row(StoreMetric::kCellSparePrbs, cell->spare_prbs));
  }

  /// Move out up to `max_rows` buffered rows (oldest dropped beyond the
  /// cap — under backlog the freshest telemetry wins).
  [[nodiscard]] std::vector<StoreRowUpdate> drain(std::size_t max_rows) {
    std::lock_guard lock(mutex_);
    std::vector<StoreRowUpdate> out;
    if (rows_.size() > max_rows) {
      out.assign(rows_.end() - static_cast<std::ptrdiff_t>(max_rows),
                 rows_.end());
    } else {
      out = std::move(rows_);
    }
    rows_.clear();
    return out;
  }

 private:
  const unsigned n_prb_;
  std::mutex mutex_;
  std::uint64_t slot_counter_ = 0;
  std::vector<StoreRowUpdate> rows_;
};

FleetWorker::FleetWorker(WorkerConfig config, MetricsRegistry* registry)
    : config_(std::move(config)),
      own_registry_(registry == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      registry_(registry != nullptr ? registry : own_registry_.get()) {
  m_leases_accepted_ = &registry_->counter("dist.worker.leases_accepted");
  m_leases_refused_ = &registry_->counter("dist.worker.leases_refused");
  m_revokes_ = &registry_->counter("dist.worker.revokes");
  m_expiries_ = &registry_->counter("dist.worker.lease_expiries");
  m_reconnects_ = &registry_->counter("dist.worker.reconnects");
  m_heartbeats_ = &registry_->counter("dist.worker.heartbeats");
  m_reports_ = &registry_->counter("dist.worker.reports");
  m_report_batches_ = &registry_->counter("dist.worker.report_batches");
  m_report_bytes_ = &registry_->counter("dist.worker.report_bytes");
  m_stale_epoch_ =
      &registry_->counter("dist.worker.stale_epoch_rejected");
  m_not_primary_rx_ = &registry_->counter("dist.worker.not_primary_rx");
  m_cells_ = &registry_->gauge("dist.worker.cells");
  for (const std::string& endpoint : config_.coordinators) {
    std::string host;
    std::uint16_t port = 0;
    if (parse_host_port(endpoint, host, port)) {
      endpoints_.emplace_back(std::move(host), port);
    }
  }
  if (endpoints_.empty()) {
    endpoints_.emplace_back(config_.host, config_.port);
  }
  thread_ = std::thread([this] { run(); });
}

FleetWorker::~FleetWorker() { stop(); }

void FleetWorker::stop() {
  stop_.store(true);
  std::lock_guard lock(join_mutex_);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void FleetWorker::kill() {
  killed_.store(true);
  stop_.store(true);
  const int fd = fd_.load();
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
  std::lock_guard lock(join_mutex_);
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::string FleetWorker::protocol_error() const {
  std::lock_guard lock(protocol_error_mutex_);
  return protocol_error_;
}

void FleetWorker::setup_orchestrator() {
  FleetConfig fleet;
  fleet.pool_threads = config_.pool_threads;
  fleet.slots_per_tick = config_.slots_per_tick;
  orch_ = std::make_unique<FleetOrchestrator>(std::move(fleet), *registry_);
  // Register the row-collector factory before any lease adds a cell, so
  // every incarnation of every leased cell feeds its collector.
  orch_->add_sink("dist-rows", [this](std::uint32_t local_index)
                                   -> std::shared_ptr<SlotSink> {
    const HeldLease* lease = lease_at(local_index);
    return lease == nullptr ? nullptr : lease->collector;
  });
}

void FleetWorker::teardown_orchestrator() {
  if (orch_ != nullptr) {
    for (const auto& [id, lease] : leases_) {
      released_lease_slots_ += orch_->cell_slots(lease.local_index);
    }
  }
  orch_.reset();
  leases_.clear();
  n_cells_.store(0);
  m_cells_->set(0);
}

bool FleetWorker::connect_once() {
  const auto& [host, port] = endpoints_[endpoint_index_];
  const int fd = dial_tcp(host, port);
  if (fd < 0) {
    rotate_coordinator();  // dead or unreachable endpoint: try the next
    return false;
  }
  fd_.store(fd);
  parser_ = std::make_unique<FrameParser>();
  WorkerHello hello;
  hello.name = config_.name;
  hello.capacity = config_.capacity;
  hello.epoch = epoch_.load();
  if (!send_frame(encode_frame(hello))) {
    disconnect();
    return false;
  }
  connected_.store(true);
  return true;
}

void FleetWorker::rotate_coordinator() {
  endpoint_index_ = (endpoint_index_ + 1) % endpoints_.size();
}

void FleetWorker::disconnect() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::close(fd);
  }
  const bool was_connected = connected_.exchange(false);
  parser_.reset();
  if (was_connected) {
    // The coordinator may have failed over: try the next candidate first.
    // Leased cells KEEP RUNNING on their local lease TTLs — if we reach
    // the new primary before they lapse, the leases are re-confirmed and
    // the cells never notice the failover.
    rotate_coordinator();
  }
}

bool FleetWorker::send_frame(const std::vector<std::uint8_t>& frame) {
  // Any failure, a torn frame included, poisons the stream.
  const int fd = fd_.load();
  return fd >= 0 && send_all(fd, frame.data(), frame.size());
}

void FleetWorker::drain_socket() {
  const int fd = fd_.load();
  if (fd < 0) {
    return;
  }
  RecvStatus status = RecvStatus::kData;
  while ((status = recv_frames(fd, *parser_)) == RecvStatus::kData) {
    while (auto frame = parser_->next()) {
      handle_frame(*frame);
      if (fd_.load() < 0) {
        return;
      }
    }
    if (parser_->error()) {
      disconnect();
      return;
    }
  }
  if (status == RecvStatus::kClosed) {
    disconnect();  // EOF or hard error: coordinator is gone
  }
}

void FleetWorker::handle_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kLease: {
      if (auto grant = decode_payload<LeaseGrant>(frame.payload)) {
        handle_lease(*grant);
      }
      return;
    }
    case FrameType::kLeaseRevoke: {
      if (auto revoke = decode_payload<LeaseRevoke>(frame.payload)) {
        handle_revoke(*revoke);
      }
      return;
    }
    case FrameType::kNotPrimary: {
      if (auto info = decode_payload<NotPrimary>(frame.payload)) {
        handle_not_primary(*info);
      }
      return;
    }
    case FrameType::kUnsupportedVersion: {
      std::string message = "coordinator rejected our protocol version";
      if (auto reject = decode_payload<VersionReject>(frame.payload)) {
        message = "coordinator rejected protocol version " +
                  std::to_string(reject->rejected) + " (supports " +
                  std::to_string(reject->min_version) + ".." +
                  std::to_string(reject->max_version) + ")";
      }
      {
        std::lock_guard lock(protocol_error_mutex_);
        protocol_error_ = std::move(message);
      }
      stop_.store(true);  // reconnecting cannot fix a version mismatch
      return;
    }
    default:
      return;  // tolerate anything else well-framed
  }
}

void FleetWorker::handle_not_primary(const NotPrimary& info) {
  m_not_primary_rx_->inc();
  if (info.epoch > epoch_.load()) {
    epoch_.store(info.epoch);
  }
  disconnect();  // this endpoint cannot serve leases; try the next one
}

void FleetWorker::handle_lease(const LeaseGrant& grant) {
  if (grant.epoch < epoch_.load()) {
    // A deposed primary (lower term than one we have already served)
    // must not be allowed to re-grant cells the new primary owns.
    stale_epoch_rejected_.fetch_add(1);
    m_stale_epoch_->inc();
    LeaseAck ack;
    ack.lease_id = grant.lease_id;
    ack.accepted = false;
    ack.message = "stale epoch";
    ack.epoch = epoch_.load();
    send_frame(encode_frame(ack));
    disconnect();  // go find the real primary
    return;
  }
  if (grant.epoch > epoch_.load()) {
    epoch_.store(grant.epoch);
  }
  const auto now = Clock::now();
  const auto it = leases_.find(grant.lease_id);
  if (it != leases_.end()) {
    // Renewal: same lease id, restart the local TTL clock.
    it->second.expires_at = now + secs(grant.ttl_ms / 1000.0);
    return;
  }
  // The same cell re-granted under a fresh lease id (the coordinator
  // reassigned it back to us): drop the stale local lease first so the
  // cell is not run twice.
  for (const auto& [id, held] : leases_) {
    if (held.cell_index == grant.spec.cell_index && id != grant.lease_id) {
      drop_lease(id);
      break;
    }
  }
  LeaseAck ack;
  ack.lease_id = grant.lease_id;
  ack.epoch = epoch_.load();
  if (leases_.size() >= config_.capacity) {
    ack.accepted = false;
    ack.message = "over capacity";
    m_leases_refused_->inc();
    if (!send_frame(encode_frame(ack))) {
      disconnect();
    }
    return;
  }
  // A preset this build does not know refuses the lease with a structured
  // reason instead of crashing.
  const std::optional<CellConfig> preset = cell_preset(grant.spec.preset);
  if (!preset) {
    ack.accepted = false;
    ack.message = "unknown preset '" + grant.spec.preset + "'";
    m_leases_refused_->inc();
    if (!send_frame(encode_frame(ack))) {
      disconnect();
    }
    return;
  }
  FleetCellSpec spec;
  spec.cell = *preset;
  if (grant.spec.pci != 0) {
    spec.cell.pci = grant.spec.pci;
  }
  spec.n_ues = grant.spec.n_ues;
  spec.ue_rate_bps = grant.spec.ue_rate_bps;
  spec.ue_snr_db = grant.spec.ue_snr_db;
  spec.sniffer_snr_db = grant.spec.sniffer_snr_db;
  spec.seed = grant.spec.seed;

  HeldLease lease;
  lease.lease_id = grant.lease_id;
  lease.cell_index = grant.spec.cell_index;
  lease.expires_at = now + secs(grant.ttl_ms / 1000.0);
  // The sink factory finds the lease by its local index, so it must be
  // in leases_ before add_cell builds the cell's pipeline; new cells land
  // at index n_cells().
  lease.local_index = static_cast<std::uint32_t>(orch_->n_cells());
  lease.collector = std::make_shared<RowCollector>(spec.cell.n_prb);
  leases_[grant.lease_id] = std::move(lease);
  orch_->add_cell(std::move(spec), grant.spec.incarnation);
  n_cells_.store(leases_.size());
  m_cells_->set(static_cast<std::int64_t>(leases_.size()));
  m_leases_accepted_->inc();

  ack.accepted = true;
  if (!send_frame(encode_frame(ack))) {
    disconnect();
  }
}

void FleetWorker::handle_revoke(const LeaseRevoke& revoke) {
  if (revoke.epoch != 0 && revoke.epoch < epoch_.load()) {
    // A deposed primary cannot tear down a cell the new primary leases.
    stale_epoch_rejected_.fetch_add(1);
    m_stale_epoch_->inc();
    return;
  }
  m_revokes_->inc();
  drop_lease(revoke.lease_id);
}

void FleetWorker::drop_lease(std::uint64_t lease_id) {
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) {
    return;
  }
  released_lease_slots_ += orch_->cell_slots(it->second.local_index);
  orch_->remove_cell(it->second.local_index);
  leases_.erase(it);
  n_cells_.store(leases_.size());
  m_cells_->set(static_cast<std::int64_t>(leases_.size()));
}

const FleetWorker::HeldLease* FleetWorker::lease_at(
    std::uint32_t local_index) const {
  for (const auto& [id, lease] : leases_) {
    if (lease.local_index == local_index) {
      return &lease;
    }
  }
  return nullptr;
}

void FleetWorker::expire_leases(Clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, lease] : leases_) {
    if (now >= lease.expires_at) {
      expired.push_back(id);
    }
  }
  for (const std::uint64_t id : expired) {
    // The coordinator stopped renewing (or we lost it and never reached
    // a successor inside the TTL): it may have reassigned the cell.
    // Stop running it rather than risk two workers feeding one cell.
    m_expiries_->inc();
    drop_lease(id);
  }
}

void FleetWorker::send_heartbeat() {
  WorkerHeartbeat hb;
  hb.seq = ++heartbeat_seq_;
  hb.epoch = epoch_.load();
  hb.leases.reserve(leases_.size());
  for (const auto& [id, lease] : leases_) {
    hb.leases.push_back(id);
  }
  if (send_frame(encode_frame(hb))) {
    m_heartbeats_->inc();
  } else {
    disconnect();
  }
}

void FleetWorker::send_reports() {
  if (leases_.empty()) {
    return;
  }
  // All leases' reports ride in ONE kCellReportBatch frame per interval:
  // a worker running N cells costs one send on the WAN link, not N.
  const FleetSummary local = orch_->summary();
  CellReportBatch batch;
  batch.reports.reserve(leases_.size());
  for (const auto& [id, lease] : leases_) {
    if (lease.local_index >= local.cells.size()) {
      continue;
    }
    CellReport report{id, epoch_.load(), local.cells[lease.local_index],
                      lease.collector->drain(kMaxRowsPerReport)};
    report.cell.cell_index = lease.cell_index;  // the fleet-global index
    batch.reports.push_back(std::move(report));
  }
  if (batch.reports.empty()) {
    return;
  }
  // WAN bound: shed oldest rows (largest report first) until the encoded
  // frame fits kMaxReportBytes.  Fresh rows and the scalar telemetry
  // always survive — only history backlog is thinned.
  std::vector<std::uint8_t> frame = encode_frame(batch);
  while (frame.size() > kMaxReportBytes) {
    CellReport* largest = nullptr;
    for (CellReport& report : batch.reports) {
      if (!report.rows.empty() &&
          (largest == nullptr || report.rows.size() > largest->rows.size())) {
        largest = &report;
      }
    }
    if (largest == nullptr) {
      break;  // nothing left to shed; send the structural minimum
    }
    const std::size_t excess = frame.size() - kMaxReportBytes;
    const std::size_t drop = std::min(
        largest->rows.size(), excess / kRowWireBytes + 1);
    largest->rows.erase(largest->rows.begin(),
                        largest->rows.begin() +
                            static_cast<std::ptrdiff_t>(drop));
    frame = encode_frame(batch);
  }
  const std::size_t n_reports = batch.reports.size();
  const std::size_t frame_bytes = frame.size();
  if (!send_frame(frame)) {
    disconnect();
    return;
  }
  m_report_batches_->inc();
  m_reports_->inc(n_reports);
  m_report_bytes_->inc(static_cast<std::uint64_t>(frame_bytes));
}

void FleetWorker::run() {
  setup_orchestrator();
  RedialSchedule redial(
      {config_.reconnect_backoff_s,
       std::max(kReconnectBackoffMaxS, config_.reconnect_backoff_s)});
  auto next_heartbeat = Clock::now();
  auto next_report = Clock::now();
  while (!stop_.load()) {
    if (fd_.load() < 0 && redial.due(Clock::now())) {
      if (connect_once()) {
        redial.reset();
        m_reconnects_->inc();
        next_heartbeat = Clock::now();
        next_report = Clock::now() + secs(config_.report_period_s);
      } else {
        redial.back_off(Clock::now());
      }
    }

    if (fd_.load() >= 0) {
      drain_socket();
    }
    if (stop_.load()) {
      break;
    }

    const auto now = Clock::now();
    // Leases expire locally even while disconnected: if no successor
    // coordinator re-confirms within the TTL, stop running the cell
    // rather than risk two workers feeding it (split-brain guard).
    expire_leases(now);
    if (fd_.load() >= 0 && now >= next_heartbeat) {
      send_heartbeat();
      next_heartbeat = now + secs(config_.heartbeat_period_s);
    }
    if (fd_.load() >= 0 && now >= next_report) {
      send_reports();
      next_report = now + secs(config_.report_period_s);
    }

    if (orch_ != nullptr && !leases_.empty()) {
      orch_->tick();  // advances every running cell by slots_per_tick
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::uint64_t live = 0;
    for (const auto& [id, lease] : leases_) {
      live += orch_->cell_slots(lease.local_index);
    }
    slots_total_.store(released_lease_slots_ + live);
  }
  // Graceful path: drain cells so their final telemetry lands in the
  // aggregator; kill() skips nothing here either — the socket is already
  // dead, which is all the coordinator observes.
  disconnect();
  teardown_orchestrator();
  done_.store(true);
}

}  // namespace nrs
