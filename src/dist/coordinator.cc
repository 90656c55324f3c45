#include "dist/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "net/socket_io.h"

namespace nrs {

namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

LeaseState to_lease_state(std::uint8_t raw) {
  switch (raw) {
    case 1: return LeaseState::kPending;
    case 2: return LeaseState::kActive;
    default: return LeaseState::kUnassigned;
  }
}

}  // namespace

const char* to_string(CoordinatorRole role) {
  switch (role) {
    case CoordinatorRole::kPrimary: return "primary";
    case CoordinatorRole::kStandby: return "standby";
  }
  return "unknown";
}

FleetCoordinator::FleetCoordinator(CoordinatorConfig config,
                                   MetricsRegistry* registry)
    : config_(std::move(config)),
      own_registry_(registry == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      registry_(registry != nullptr ? registry : own_registry_.get()),
      leases_(config_.cells.size(), config_.lease_ttl_ms / 1000.0),
      store_(config_.store, registry_) {
  if (!config_.standby_of.empty()) {
    role_ = CoordinatorRole::kStandby;
    if (!parse_host_port(config_.standby_of, upstream_host_,
                         upstream_port_)) {
      throw std::invalid_argument(
          "FleetCoordinator: bad standby_of endpoint " + config_.standby_of);
    }
    // A standby's state (including the cell list) comes from the primary's
    // snapshot; epoch 0 marks "never synced".
    epoch_ = 0;
  } else {
    if (config_.cells.empty()) {
      throw std::invalid_argument("FleetCoordinator: no cells configured");
    }
    epoch_ = kInitialEpoch;
  }
  records_.resize(config_.cells.size());
  for (std::uint32_t i = 0; i < config_.cells.size(); ++i) {
    const CoordinatorCellSpec& cell = config_.cells[i];
    WireCellSpec& spec = records_[i].spec;
    spec.cell_index = i;
    spec.name = cell.name.empty() ? "cell" + std::to_string(i) : cell.name;
    spec.preset = cell.preset;
    spec.pci = cell.pci;
    spec.n_ues = cell.n_ues;
    spec.ue_rate_bps = cell.ue_rate_bps;
    spec.ue_snr_db = cell.ue_snr_db;
    spec.sniffer_snr_db = cell.sniffer_snr_db;
    spec.seed = splitmix64(
        config_.seed ^ splitmix64((static_cast<std::uint64_t>(i) << 32) |
                                  0x5EEDull));
    if (spec.seed == 0) {
      spec.seed = 1;  // 0 would disable the worker-side override
    }
  }
  m_leases_granted_ = &registry_->counter("dist.leases_granted");
  m_leases_expired_ = &registry_->counter("dist.leases_expired");
  m_lease_refusals_ = &registry_->counter("dist.lease_refusals");
  m_reassignments_ = &registry_->counter("dist.reassignments");
  m_workers_dead_ = &registry_->counter("dist.workers_dead");
  m_stale_reports_ = &registry_->counter("dist.stale_reports");
  m_predictions_rx_ = &registry_->counter("dist.predictions_received");
  m_version_rejects_ = &registry_->counter("dist.version_rejects");
  m_revokes_ = &registry_->counter("dist.lease_revokes");
  m_promotions_ctr_ = &registry_->counter("dist.promotions");
  m_reconfirmed_ = &registry_->counter("dist.leases_reconfirmed");
  m_deposed_ctr_ = &registry_->counter("dist.deposed");
  m_not_primary_tx_ = &registry_->counter("dist.not_primary_sent");
  m_replica_events_tx_ = &registry_->counter("dist.replica_events_tx");
  m_replica_events_rx_ = &registry_->counter("dist.replica_events_rx");
  m_replica_snapshots_tx_ = &registry_->counter("dist.replica_snapshots_tx");
  m_replica_snapshots_rx_ = &registry_->counter("dist.replica_snapshots_rx");
  m_workers_alive_ = &registry_->gauge("dist.workers_alive");
  m_cells_active_ = &registry_->gauge("dist.cells_active");
  m_epoch_gauge_ = &registry_->gauge("dist.epoch");
  m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));

  const TcpListener listener = listen_tcp(config_.bind_address, config_.port);
  listen_fd_ = listener.fd;
  port_ = listener.port;

  io_ = std::thread([this] { io_loop(); });
}

FleetCoordinator::~FleetCoordinator() { stop(); }

void FleetCoordinator::stop() {
  if (stopping_.exchange(true)) {
    if (io_.joinable()) {
      io_.join();
    }
    return;
  }
  if (io_.joinable()) {
    io_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard lock(state_mutex_);
  for (auto& conn : connections_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();
  if (upstream_fd_ >= 0) {
    ::close(upstream_fd_);
    upstream_fd_ = -1;
  }
}

void FleetCoordinator::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;
  while (!stopping_.load()) {
    maybe_connect_upstream();
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    // Slot 1 is the replication link to the primary; poll() ignores
    // negative fds, so a primary (or a disconnected standby) pays nothing.
    pfds.push_back(pollfd{upstream_fd_, POLLIN, 0});
    {
      std::lock_guard lock(state_mutex_);
      // Sweep connections closed in the previous round.
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [](const std::unique_ptr<Connection>& c) {
                           return c->fd < 0;
                         }),
          connections_.end());
      for (auto& conn : connections_) {
        pfds.push_back(pollfd{conn->fd, POLLIN, 0});
        polled.push_back(conn.get());
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/20);
    const auto now = Clock::now();
    std::lock_guard lock(state_mutex_);
    if (ready > 0) {
      for (std::size_t i = 2; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0 && polled[i - 2]->fd >= 0) {
          read_connection(*polled[i - 2]);
        }
      }
      if (pfds[1].revents != 0 && upstream_fd_ >= 0) {
        read_upstream();
      }
      if ((pfds[0].revents & POLLIN) != 0) {
        handle_accept();
      }
    }
    run_timers(now);
  }
}

void FleetCoordinator::handle_accept() {
  // The send bound matters here: a worker that stops draining its socket
  // fails the send and is declared dead, instead of wedging the io thread.
  const int fd = accept_tcp(listen_fd_);
  if (fd < 0) {
    return;
  }
  if (connections_.size() >= kMaxCoordinatorConnections) {
    ::close(fd);
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  connections_.push_back(std::move(conn));
}

void FleetCoordinator::close_connection(Connection& conn) {
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

void FleetCoordinator::read_connection(Connection& conn) {
  switch (recv_frames(conn.fd, conn.parser)) {
    case RecvStatus::kData:
      break;
    case RecvStatus::kWouldBlock:
      return;
    case RecvStatus::kClosed: {
      // EOF: the fast death-detection path — a kill -9'd worker's kernel
      // closes the socket long before the heartbeat timeout fires.
      const std::uint64_t worker = conn.worker_id;
      close_connection(conn);
      if (worker != 0) {
        declare_worker_dead(worker, "socket closed");
      }
      return;
    }
  }
  while (auto frame = conn.parser.next()) {
    handle_frame(conn, *frame);
    if (conn.fd < 0) {
      return;  // the frame handler closed the connection
    }
  }
  if (conn.parser.error()) {
    if (reply_version_reject(conn.fd, conn.parser)) {
      m_version_rejects_->inc();
    }
    const std::uint64_t worker = conn.worker_id;
    close_connection(conn);
    if (worker != 0) {
      declare_worker_dead(worker, "protocol error");
    }
  }
}

void FleetCoordinator::handle_frame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kWorkerHello: {
      if (auto hello = decode_payload<WorkerHello>(frame.payload)) {
        handle_worker_hello(conn, *hello);
      }
      return;
    }
    case FrameType::kStandbyHello: {
      if (auto hello = decode_payload<StandbyHello>(frame.payload)) {
        handle_standby_hello(conn, *hello);
      }
      return;
    }
    case FrameType::kLeaseAck: {
      if (auto ack = decode_payload<LeaseAck>(frame.payload)) {
        handle_lease_ack(conn, *ack);
      }
      return;
    }
    case FrameType::kWorkerHeartbeat: {
      if (auto hb = decode_payload<WorkerHeartbeat>(frame.payload)) {
        handle_heartbeat(conn, *hb);
      }
      return;
    }
    case FrameType::kCellReportBatch: {
      // Workers fold all their leases' reports into one frame; each
      // element goes through the same per-report path.
      if (auto batch = decode_payload<CellReportBatch>(frame.payload)) {
        for (CellReport& report : batch->reports) {
          handle_cell_report(conn, std::move(report));
        }
      }
      return;
    }
    case FrameType::kPrediction: {
      if (auto set = decode_payload<PredictionSet>(frame.payload)) {
        handle_prediction(conn, *set);
      }
      return;
    }
    default:
      return;  // well-framed but not part of the coordination protocol
  }
}

void FleetCoordinator::handle_worker_hello(Connection& conn,
                                           const WorkerHello& hello) {
  if (hello.epoch > epoch_) {
    // The worker follows a newer primary: a standby promoted past us.
    fence_self(hello.epoch);
  }
  if (refuse_unless_primary(conn) || conn.worker_id != 0) {
    return;  // refused, or a duplicate hello (keep the first registration)
  }
  const auto now = Clock::now();
  const std::string name = hello.name.empty() ? "worker" : hello.name;
  const std::uint32_t capacity = std::max<std::uint32_t>(1, hello.capacity);
  conn.worker_id = catalog_.add(name, capacity, conn.fd, now);
  ReplicaEvent join;
  join.kind = ReplicaEventKind::kWorkerJoin;
  join.worker = {conn.worker_id, name, capacity};
  replicate(std::move(join));
  if (config_.rebalance_on_join && now >= rebalance_hold_until_) {
    rebalance(now);
  }
}

void FleetCoordinator::handle_standby_hello(Connection& conn,
                                            const StandbyHello& /*hello*/) {
  if (conn.worker_id != 0 || conn.is_replica || refuse_unless_primary(conn)) {
    return;
  }
  conn.is_replica = true;
  const std::vector<std::uint8_t> frame =
      encode_frame(build_snapshot());
  if (!send_all(conn.fd, frame.data(), frame.size())) {
    close_connection(conn);
    return;
  }
  m_replica_snapshots_tx_->inc();
}

bool FleetCoordinator::refuse_unless_primary(Connection& conn) {
  if (role_ == CoordinatorRole::kPrimary && !deposed_) {
    return false;
  }
  m_not_primary_tx_->inc();
  NotPrimary info;
  info.epoch = epoch_;
  info.message = role_ == CoordinatorRole::kStandby ? "standby" : "deposed";
  const std::vector<std::uint8_t> reply = encode_frame(info);
  send_all(conn.fd, reply.data(), reply.size());
  close_connection(conn);
  return true;
}

void FleetCoordinator::handle_lease_ack(Connection& conn,
                                        const LeaseAck& ack) {
  if (ack.epoch > epoch_) {
    fence_self(ack.epoch);
    return;
  }
  Lease* lease = leases_.by_id(ack.lease_id);
  if (lease == nullptr || lease->worker_id != conn.worker_id) {
    m_stale_reports_->inc();
    return;
  }
  const auto now = Clock::now();
  if (!ack.accepted) {
    // The worker is over capacity or cannot build the cell.
    m_lease_refusals_->inc();
    end_lease(lease->cell_index, /*penalize=*/true, now);
    return;
  }
  leases_.ack(ack.lease_id, now);
  replicate_cell(lease->cell_index);
}

void FleetCoordinator::handle_heartbeat(Connection& conn,
                                        const WorkerHeartbeat& hb) {
  if (conn.worker_id == 0) {
    return;  // heartbeat before hello: not a registered worker
  }
  if (hb.epoch > epoch_) {
    fence_self(hb.epoch);
    return;
  }
  const auto now = Clock::now();
  catalog_.touch(conn.worker_id, now);
  if (deposed_) {
    return;  // fenced: stop renewing, the new primary owns these leases
  }
  for (const std::uint64_t lease_id : hb.leases) {
    Lease* lease = leases_.by_id(lease_id);
    if (lease == nullptr) {
      continue;  // stale lease (already reassigned); the worker will learn
    }
    if (lease->worker_id != conn.worker_id) {
      // Re-confirmation: the lease was mirrored from the dead primary and
      // its recorded holder is a ghost (no socket).  The worker kept the
      // cell running locally and reconnected here — rebind the same lease
      // to its new registration instead of reassigning the cell.
      const std::uint64_t ghost_id = lease->worker_id;
      const WorkerEntry* holder = catalog_.find(ghost_id);
      if (holder != nullptr && holder->alive && holder->fd >= 0) {
        continue;  // live holder elsewhere: a stale claim, ignore it
      }
      leases_.rebind(lease_id, conn.worker_id);
      ++reconfirmations_;
      m_reconfirmed_->inc();
      replicate_cell(lease->cell_index);
      if (holder != nullptr && leases_.held_by(ghost_id).empty()) {
        forget_worker(ghost_id);
      }
    }
    leases_.renew(lease_id, now);
    // Renewal grant: restart the worker-side TTL clock (and teach a
    // re-confirmed worker the current epoch).
    send_grant(*lease);
  }
}

void FleetCoordinator::handle_cell_report(Connection& conn,
                                          CellReport report) {
  if (report.epoch > epoch_) {
    fence_self(report.epoch);
    return;
  }
  const std::uint32_t cell_index = report.cell.cell_index;
  Lease* lease = leases_.by_id(report.lease_id);
  if (lease == nullptr || lease->worker_id != conn.worker_id ||
      lease->cell_index != cell_index || cell_index >= records_.size()) {
    m_stale_reports_->inc();
    return;
  }
  CellRecord& record = records_[cell_index];
  if (record.has_report &&
      report.cell.counters.slots > record.last.cell.counters.slots) {
    leases_.note_progress(cell_index);
  }
  const bool mirror = has_replica();
  std::vector<StoreRowUpdate> mirrored_rows;
  // The rows live on in the store; the record keeps the report's summary
  // (a moved-from vector is empty).
  const std::vector<StoreRowUpdate> rows = std::move(report.rows);
  record.last = std::move(report);
  record.has_report = true;
  ingest_rows(cell_index, record, rows, record.committed.slots,
              mirror ? &mirrored_rows : nullptr);
  replicate_cell(cell_index, std::move(mirrored_rows));
}

void FleetCoordinator::handle_prediction(Connection& conn,
                                         const PredictionSet& set) {
  if (conn.worker_id == 0 || set.cell_index >= records_.size()) {
    m_stale_reports_->inc();
    return;  // never greeted, or a cell this fleet does not run
  }
  predictions_[set.cell_index] = set;
  m_predictions_rx_->inc();
}

std::map<std::uint32_t, PredictionSet> FleetCoordinator::predictions() const {
  std::lock_guard lock(state_mutex_);
  return predictions_;
}

void FleetCoordinator::ingest_rows(
    std::uint32_t cell_index, CellRecord& record,
    const std::vector<StoreRowUpdate>& rows, std::uint64_t base_slot,
    std::vector<StoreRowUpdate>* replicated) {
  std::uint64_t ingested = 0;
  for (const StoreRowUpdate& row : rows) {
    if (!store_metric_valid(row.metric)) {
      continue;
    }
    SeriesKey key;
    key.cell = cell_index;
    key.rnti = row.rnti;
    key.metric = static_cast<StoreMetric>(row.metric);
    auto& cursor = record.cursors[key.packed()];
    if (cursor.series == nullptr) {
      cursor.series = store_.series(key);
      if (cursor.series == nullptr) {
        continue;  // max_series shedding
      }
    }
    // Rebase the lease-local slot onto the cell's lifetime axis; clamp
    // non-decreasing across handoffs (the store's single-writer append
    // contract) and across a standby's cursor reset after a replication
    // reconnect.
    std::uint64_t slot = base_slot + row.slot;
    if (cursor.started && slot < cursor.last_slot) {
      slot = cursor.last_slot;
    }
    cursor.series->append(slot, row.value);
    cursor.last_slot = slot;
    cursor.started = true;
    ++ingested;
    if (replicated != nullptr) {
      StoreRowUpdate global = row;
      global.slot = slot;
      replicated->push_back(global);
    }
  }
  if (ingested > 0) {
    store_.note_rows_ingested(ingested);
  }
}

void FleetCoordinator::run_timers(Clock::time_point now) {
  if (role_ == CoordinatorRole::kStandby) {
    standby_timers(now);
    return;
  }
  // Dead-worker scan: heartbeat silence past the timeout.  Ghost entries
  // mirrored at promotion age out the same way when their worker never
  // reconnects, releasing the cells for normal reassignment.
  for (const std::uint64_t id :
       catalog_.silent_since(now, config_.heartbeat_timeout_s)) {
    declare_worker_dead(id, "heartbeat timeout");
  }
  if (!deposed_) {
    // Lease-expiry scan: a worker that is alive but stopped listing (or
    // renewing) a lease loses the cell.
    for (const std::uint32_t cell : leases_.expired(now)) {
      const Lease expired = leases_.cell(cell);
      m_leases_expired_->inc();
      end_lease(cell, /*penalize=*/true, now);
      m_reassignments_->inc();
      send_to_worker(expired.worker_id,
                     encode_frame(LeaseRevoke{expired.lease_id,
                                              "lease expired", epoch_}));
    }
    // Assignment scan: place unassigned cells whose backoff has elapsed.
    for (const std::uint32_t cell : leases_.assignable(now)) {
      try_assign(cell, now);
    }
    // Replication keepalive: lets a standby tell an idle primary from a
    // dead one without waiting for fleet traffic.
    if (now >= next_replica_heartbeat_) {
      next_replica_heartbeat_ = now + kReplicationHeartbeat;
      const std::vector<std::uint8_t> beat =
          encode_frame(FrameType::kHeartbeat, {});
      for (auto& conn : connections_) {
        if (conn->is_replica && conn->fd >= 0 &&
            !send_all(conn->fd, beat.data(), beat.size())) {
          close_connection(*conn);
        }
      }
    }
  }
  m_workers_alive_->set(static_cast<std::int64_t>(catalog_.alive_count()));
  m_cells_active_->set(static_cast<std::int64_t>(leases_.active_count()));
}

void FleetCoordinator::declare_worker_dead(std::uint64_t worker_id,
                                           const char* /*why*/) {
  WorkerEntry* entry = catalog_.find(worker_id);
  if (entry == nullptr || !entry->alive) {
    return;
  }
  catalog_.mark_dead(worker_id);
  m_workers_dead_->inc();
  for (auto& conn : connections_) {
    if (conn->worker_id == worker_id) {
      close_connection(*conn);
    }
  }
  const auto now = Clock::now();
  for (const std::uint32_t cell : leases_.held_by(worker_id)) {
    end_lease(cell, /*penalize=*/true, now);
    m_reassignments_->inc();
  }
  forget_worker(worker_id);
}

void FleetCoordinator::end_lease(std::uint32_t cell_index, bool penalize,
                                 Clock::time_point now) {
  CellRecord& record = records_[cell_index];
  if (record.has_report) {
    // Fold the lease's final report into the committed counters: this is
    // what keeps the lifetime view monotonic across the handoff.
    record.committed += record.last.cell.counters;
  }
  record.last = CellReport{};
  record.has_report = false;
  leases_.release(cell_index, penalize, now);
  replicate_cell(cell_index);
}

void FleetCoordinator::try_assign(std::uint32_t cell_index,
                                  Clock::time_point now) {
  const auto worker_id = catalog_.pick_least_loaded(leases_);
  if (!worker_id) {
    return;  // fleet saturated or empty; retry next timer pass
  }
  records_[cell_index].spec.incarnation = leases_.cell(cell_index).handoffs;
  leases_.grant(cell_index, *worker_id, now);
  m_leases_granted_->inc();
  replicate_cell(cell_index);
  send_grant(leases_.cell(cell_index));
}

void FleetCoordinator::send_grant(const Lease& lease) {
  const CellRecord& record = records_[lease.cell_index];
  send_to_worker(lease.worker_id,
                 encode_frame(LeaseGrant{lease.lease_id, config_.lease_ttl_ms,
                                         epoch_, record.spec}));
}

void FleetCoordinator::rebalance(Clock::time_point now) {
  const std::size_t alive = catalog_.alive_count();
  if (alive == 0) {
    return;
  }
  const std::size_t target =
      (leases_.n_cells() + alive - 1) / alive;  // ceil
  // Snapshot ids first: send_to_worker can declare a worker dead, which
  // erases it from the map we would otherwise be iterating.
  std::vector<std::uint64_t> ids;
  ids.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_.workers()) {
    if (entry.alive && entry.fd >= 0) {
      ids.push_back(id);  // ghosts are re-confirmation targets, not shed
    }
  }
  for (const std::uint64_t id : ids) {
    // A worker that died earlier in this pass holds nothing any more.
    const std::vector<std::uint32_t> held = leases_.held_by(id);
    // Shed highest-index cells first (deterministic choice).
    for (std::size_t n = held.size(); n > target; --n) {
      const std::uint32_t cell = held[n - 1];
      const std::uint64_t lease_id = leases_.cell(cell).lease_id;
      m_revokes_->inc();
      end_lease(cell, /*penalize=*/false, now);
      if (!send_to_worker(id, encode_frame(LeaseRevoke{lease_id, "rebalance",
                                                       epoch_}))) {
        break;  // worker died mid-shed; its leases are already released
      }
    }
  }
}

bool FleetCoordinator::send_to_worker(
    std::uint64_t worker_id, const std::vector<std::uint8_t>& frame) {
  WorkerEntry* entry = catalog_.find(worker_id);
  if (entry == nullptr || !entry->alive || entry->fd < 0) {
    return false;
  }
  // A short write leaves a torn frame on the stream: the connection is
  // unusable for framed traffic, exactly like a hard failure.
  if (send_all(entry->fd, frame.data(), frame.size())) {
    return true;
  }
  declare_worker_dead(worker_id, "send failed");
  return false;
}

// ---- Replication: primary side ---------------------------------------

bool FleetCoordinator::has_replica() const {
  for (const auto& conn : connections_) {
    if (conn->is_replica && conn->fd >= 0) {
      return true;
    }
  }
  return false;
}

void FleetCoordinator::replicate(ReplicaEvent event) {
  event.epoch = epoch_;
  std::vector<std::uint8_t> frame;  // encoded lazily, once
  for (auto& conn : connections_) {
    if (!conn->is_replica || conn->fd < 0) {
      continue;
    }
    if (frame.empty()) {
      frame = encode_frame(event);
    }
    if (!send_all(conn->fd, frame.data(), frame.size())) {
      // Drop the tail; the standby redials and re-snapshots.
      close_connection(*conn);
      continue;
    }
    m_replica_events_tx_->inc();
  }
}

void FleetCoordinator::replicate_cell(std::uint32_t cell_index,
                                      std::vector<StoreRowUpdate> rows) {
  if (!has_replica()) {
    return;
  }
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kCell;
  event.cell = replica_cell(cell_index);
  event.rows = std::move(rows);
  replicate(std::move(event));
}

void FleetCoordinator::forget_worker(std::uint64_t worker_id) {
  catalog_.remove(worker_id);
  ReplicaEvent leave;
  leave.kind = ReplicaEventKind::kWorkerLeave;
  leave.worker.worker_id = worker_id;
  replicate(std::move(leave));
}

ReplicaCell FleetCoordinator::replica_cell(std::uint32_t cell_index) const {
  const CellRecord& record = records_[cell_index];
  const Lease& lease = leases_.cell(cell_index);
  ReplicaCell cell;
  cell.spec = record.spec;
  cell.lease_state = static_cast<std::uint8_t>(lease.state);
  cell.lease_id = lease.lease_id;
  cell.worker_id = lease.worker_id;
  cell.handoffs = lease.handoffs;
  cell.committed = record.committed;
  cell.has_report = record.has_report;
  cell.live = record.last;  // rowless: reports keep only their summary
  return cell;
}

ReplicaSnapshot FleetCoordinator::build_snapshot() const {
  ReplicaSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.next_lease_id = leases_.next_lease_id();
  for (const auto& [id, entry] : catalog_.workers()) {
    if (entry.alive) {
      snapshot.workers.push_back({id, entry.name, entry.capacity});
    }
  }
  snapshot.cells.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    snapshot.cells.push_back(replica_cell(i));
  }
  return snapshot;
}

void FleetCoordinator::fence_self(std::uint64_t /*seen_epoch*/) {
  if (deposed_) {
    return;
  }
  deposed_ = true;
  m_deposed_ctr_->inc();
}

// ---- Replication: standby side ---------------------------------------

void FleetCoordinator::maybe_connect_upstream() {
  if (role_ != CoordinatorRole::kStandby || upstream_fd_ >= 0 ||
      stopping_.load()) {
    return;
  }
  const auto now = Clock::now();
  if (!upstream_redial_.due(now)) {
    return;
  }
  // Schedule the next attempt up front so every failure path below is
  // covered (and a primary that hangs up at once is not redialed in a
  // tight loop); a success resets the escalation.
  upstream_redial_.back_off(now);

  const int fd = dial_tcp(upstream_host_, upstream_port_);
  if (fd < 0) {
    return;
  }
  StandbyHello hello;
  hello.name = "standby:" + std::to_string(port_);
  const std::vector<std::uint8_t> frame = encode_frame(hello);
  if (!send_all(fd, frame.data(), frame.size())) {
    ::close(fd);
    return;
  }
  std::lock_guard lock(state_mutex_);
  upstream_fd_ = fd;
  upstream_parser_ = FrameParser{};
  upstream_last_rx_ = Clock::now();
  upstream_redial_.reset();
}

void FleetCoordinator::read_upstream() {
  const RecvStatus status = recv_frames(upstream_fd_, upstream_parser_);
  const auto now = Clock::now();
  if (status == RecvStatus::kWouldBlock) {
    return;
  }
  if (status == RecvStatus::kClosed) {
    // EOF: the primary died (or dropped us).  Promotion is standby_timers'
    // decision — it waits kPromoteAfter in case this was a blip.
    drop_upstream(now);
    return;
  }
  upstream_last_rx_ = now;
  while (auto frame = upstream_parser_.next()) {
    handle_replication_frame(*frame);
    if (upstream_fd_ < 0 || role_ != CoordinatorRole::kStandby) {
      return;  // dropped (kNotPrimary) or promoted mid-batch
    }
  }
  if (upstream_parser_.error()) {
    drop_upstream(now);
  }
}

void FleetCoordinator::handle_replication_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kReplicaSnapshot: {
      if (auto snapshot = decode_payload<ReplicaSnapshot>(frame.payload)) {
        m_replica_snapshots_rx_->inc();
        apply_snapshot(*snapshot, Clock::now());
      } else {
        drop_upstream(Clock::now());
      }
      return;
    }
    case FrameType::kReplicaEvent: {
      if (auto event = decode_payload<ReplicaEvent>(frame.payload)) {
        m_replica_events_rx_->inc();
        apply_event(*event, Clock::now());
      } else {
        drop_upstream(Clock::now());
      }
      return;
    }
    case FrameType::kHeartbeat:
      return;  // keepalive; upstream_last_rx_ already advanced
    case FrameType::kNotPrimary:
      // We dialed something that is not the acting primary (another
      // standby, or a deposed resurrection).  Drop and redial — it may
      // promote, or our address list may be racing a failover.
      drop_upstream(Clock::now());
      return;
    default:
      return;
  }
}

void FleetCoordinator::apply_snapshot(const ReplicaSnapshot& snapshot,
                                      Clock::time_point now) {
  records_.assign(snapshot.cells.size(), CellRecord{});
  leases_.reset(snapshot.cells.size());
  catalog_.clear();
  for (const ReplicaWorker& worker : snapshot.workers) {
    catalog_.restore(worker.worker_id, worker.name,
                     std::max<std::uint32_t>(1, worker.capacity), now);
  }
  for (const ReplicaCell& cell : snapshot.cells) {
    restore_cell(cell, now);
  }
  leases_.set_next_lease_id(snapshot.next_lease_id);
  if (snapshot.epoch > epoch_) {
    epoch_ = snapshot.epoch;
    m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  }
  synced_ = true;
}

void FleetCoordinator::apply_event(const ReplicaEvent& event,
                                   Clock::time_point now) {
  switch (event.kind) {
    case ReplicaEventKind::kWorkerJoin:
      catalog_.restore(event.worker.worker_id, event.worker.name,
                       std::max<std::uint32_t>(1, event.worker.capacity),
                       now);
      break;
    case ReplicaEventKind::kWorkerLeave:
      catalog_.remove(event.worker.worker_id);
      break;
    case ReplicaEventKind::kCell:
      if (CellRecord* record = restore_cell(event.cell, now)) {
        // Replicated rows arrive already on the lifetime axis.
        ingest_rows(event.cell.spec.cell_index, *record, event.rows,
                    /*base_slot=*/0, nullptr);
      }
      break;
  }
  if (event.epoch > epoch_) {
    epoch_ = event.epoch;
    m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  }
}

FleetCoordinator::CellRecord* FleetCoordinator::restore_cell(
    const ReplicaCell& cell, Clock::time_point now) {
  const std::uint32_t i = cell.spec.cell_index;
  if (i >= records_.size()) {
    return nullptr;
  }
  CellRecord& record = records_[i];
  record.spec = cell.spec;
  record.committed = cell.committed;
  record.last = cell.live;
  record.has_report = cell.has_report;
  leases_.restore(i, to_lease_state(cell.lease_state), cell.lease_id,
                  cell.worker_id, cell.handoffs, now);
  leases_.set_next_lease_id(cell.lease_id);
  return &record;
}

void FleetCoordinator::drop_upstream(Clock::time_point /*now*/) {
  if (upstream_fd_ >= 0) {
    ::close(upstream_fd_);
    upstream_fd_ = -1;
  }
  upstream_parser_ = FrameParser{};
  // The redial schedule's next attempt was set when the link was dialed,
  // so the redial starts at once unless the link died within one initial
  // delay, and the backoff escalates only across consecutive failures.
}

void FleetCoordinator::standby_timers(Clock::time_point now) {
  if (upstream_fd_ >= 0 && now - upstream_last_rx_ > kReplicationTimeout) {
    drop_upstream(now);  // silent link: the primary is wedged or gone
  }
  if (upstream_fd_ < 0 && synced_ &&
      now - upstream_last_rx_ >= kPromoteAfter) {
    promote(now);
  }
}

void FleetCoordinator::promote(Clock::time_point now) {
  role_ = CoordinatorRole::kPrimary;
  // The epoch bump is the fence: every grant/renewal we issue now carries
  // a term the deposed primary has never seen.
  epoch_ += 1;
  deposed_ = false;
  ++promotions_;
  m_promotions_ctr_->inc();
  m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  // First act: extend, don't reassign.  Healthy workers kept their cells
  // running on the lease TTL; give every mirrored lease (and every ghost
  // catalog entry) a full fresh window to reconnect and re-confirm.
  leases_.extend_all(now);
  catalog_.touch_all(now);
  rebalance_hold_until_ =
      now + to_duration(config_.lease_ttl_ms / 1000.0);
  next_replica_heartbeat_ = now;
  if (upstream_fd_ >= 0) {
    ::close(upstream_fd_);
    upstream_fd_ = -1;
  }
}

// ---- Snapshots -------------------------------------------------------

std::size_t FleetCoordinator::worker_count() const {
  std::lock_guard lock(state_mutex_);
  return catalog_.alive_count();
}

std::vector<DistWorkerStatus> FleetCoordinator::workers() const {
  std::lock_guard lock(state_mutex_);
  std::vector<DistWorkerStatus> out;
  out.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_.workers()) {
    DistWorkerStatus status;
    status.id = id;
    status.name = entry.name;
    status.capacity = entry.capacity;
    status.alive = entry.alive;
    status.cells = leases_.held_by(id);
    out.push_back(std::move(status));
  }
  return out;
}

CellSummary FleetCoordinator::cell_summary(std::uint32_t cell_index) const {
  const CellRecord& record = records_[cell_index];
  const Lease& lease = leases_.cell(cell_index);
  CellSummary cell;
  if (lease.state == LeaseState::kActive && record.has_report) {
    cell = record.last.cell;
  } else {
    // kBackoff is the honest description of an unassigned cell: down now,
    // the supervisor (here: the lease table) intends to bring it back.
    cell.state = 1;
  }
  cell.cell_index = cell_index;
  cell.name = record.spec.name;
  cell.counters = record.committed;
  if (record.has_report) {
    cell.counters += record.last.cell.counters;
  }
  cell.counters.restarts += lease.handoffs;
  return cell;
}

std::vector<DistCellStatus> FleetCoordinator::cells() const {
  std::lock_guard lock(state_mutex_);
  std::vector<DistCellStatus> out;
  out.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    const CellSummary cell = cell_summary(i);
    const Lease& lease = leases_.cell(i);
    DistCellStatus status;
    status.cell_index = i;
    status.name = cell.name;
    status.lease_state = lease.state;
    status.lease_id = lease.lease_id;
    status.worker_id = lease.worker_id;
    status.handoffs = lease.handoffs;
    status.slots = cell.counters.slots;
    status.dcis = cell.counters.dcis;
    status.cell_state = cell.state;
    out.push_back(std::move(status));
  }
  return out;
}

FleetSummary FleetCoordinator::summary() const {
  std::lock_guard lock(state_mutex_);
  std::vector<CellSummary> cells;
  cells.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    cells.push_back(cell_summary(i));
  }
  return summarize_fleet(std::move(cells));
}

std::uint64_t FleetCoordinator::reassignments() const {
  return m_reassignments_->value();
}

bool FleetCoordinator::all_cells_active() const {
  std::lock_guard lock(state_mutex_);
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    if (leases_.cell(i).state != LeaseState::kActive) {
      return false;
    }
    if (!records_[i].has_report || records_[i].last.cell.state != 0) {
      return false;
    }
  }
  return true;
}

CoordinatorRole FleetCoordinator::role() const {
  std::lock_guard lock(state_mutex_);
  return role_;
}

std::uint64_t FleetCoordinator::epoch() const {
  std::lock_guard lock(state_mutex_);
  return epoch_;
}

bool FleetCoordinator::synced() const {
  std::lock_guard lock(state_mutex_);
  return synced_;
}

bool FleetCoordinator::deposed() const {
  std::lock_guard lock(state_mutex_);
  return deposed_;
}

std::uint64_t FleetCoordinator::promotions() const {
  std::lock_guard lock(state_mutex_);
  return promotions_;
}

std::uint64_t FleetCoordinator::reconfirmations() const {
  std::lock_guard lock(state_mutex_);
  return reconfirmations_;
}

}  // namespace nrs
