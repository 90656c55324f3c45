#include "dist/coordinator.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/backoff.h"
#include "net/socket_io.h"

namespace nrs {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

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

bool parse_host_port(const std::string& endpoint, std::string& host,
                     std::uint16_t& port) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    return false;
  }
  const std::string port_str = endpoint.substr(colon + 1);
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return false;
  }
  host = endpoint.substr(0, colon);
  if (host.empty()) {
    host = "127.0.0.1";
  }
  port = static_cast<std::uint16_t>(value);
  return true;
}

FleetCoordinator::FleetCoordinator(CoordinatorConfig config,
                                   MetricsRegistry* registry)
    : config_(std::move(config)),
      own_registry_(registry == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      registry_(registry != nullptr ? registry : own_registry_.get()),
      leases_(config_.cells.size(),
              LeaseTable::Config{config_.lease_ttl_ms / 1000.0,
                                 config_.backoff_initial_s,
                                 config_.backoff_max_s,
                                 config_.backoff_factor}),
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
    epoch_ = std::max<std::uint64_t>(1, config_.initial_epoch);
  }
  jitter_rng_ = Rng(splitmix64(config_.seed ^ 0x5AFE57A2ull) | 1ull);
  records_.reserve(config_.cells.size());
  for (std::uint32_t i = 0; i < config_.cells.size(); ++i) {
    CellRecord record;
    record.spec = config_.cells[i];
    if (record.spec.name.empty()) {
      record.spec.name = "cell" + std::to_string(i);
    }
    record.seed_base = splitmix64(
        config_.seed ^ splitmix64((static_cast<std::uint64_t>(i) << 32) |
                                  0x5EEDull));
    if (record.seed_base == 0) {
      record.seed_base = 1;  // 0 would disable the worker-side override
    }
    records_.push_back(std::move(record));
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

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("FleetCoordinator: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    throw std::runtime_error("FleetCoordinator: bad bind address " +
                             config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("FleetCoordinator: cannot listen on " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

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
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) {
    return;
  }
  if (connections_.size() >= config_.max_workers) {
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound synchronous sends: a worker that stops draining its socket
  // fails the send and is declared dead, instead of wedging the io thread.
  timeval send_timeout{};
  send_timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
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
  std::uint8_t buf[65536];
  const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
  if (n <= 0) {
    if (n < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    // EOF: the fast death-detection path — a kill -9'd worker's kernel
    // closes the socket long before the heartbeat timeout fires.
    const std::uint64_t worker = conn.worker_id;
    close_connection(conn);
    if (worker != 0) {
      declare_worker_dead(worker, "socket closed");
    }
    return;
  }
  conn.parser.feed({buf, static_cast<std::size_t>(n)});
  while (auto frame = conn.parser.next()) {
    handle_frame(conn, *frame);
    if (conn.fd < 0) {
      return;  // the frame handler closed the connection
    }
  }
  if (conn.parser.error()) {
    if (const auto rejected = conn.parser.rejected_version()) {
      m_version_rejects_->inc();
      VersionReject reject;
      reject.rejected = *rejected;
      reject.message = conn.parser.error_message();
      const std::vector<std::uint8_t> reply = encode_frame(reject);
      send_all(conn.fd, reply.data(), reply.size());
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
        for (const CellReport& report : batch->reports) {
          handle_cell_report(conn, report);
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
  if (role_ == CoordinatorRole::kStandby || deposed_) {
    m_not_primary_tx_->inc();
    NotPrimary info;
    info.epoch = epoch_;
    info.message =
        role_ == CoordinatorRole::kStandby ? "standby" : "deposed";
    const std::vector<std::uint8_t> reply = encode_frame(info);
    send_all(conn.fd, reply.data(), reply.size());
    close_connection(conn);
    return;
  }
  if (conn.worker_id != 0) {
    return;  // duplicate hello; keep the first registration
  }
  const auto now = Clock::now();
  const std::string name = hello.name.empty() ? "worker" : hello.name;
  const std::uint32_t capacity = std::max<std::uint32_t>(1, hello.capacity);
  conn.worker_id =
      catalog_.add(name, capacity, hello.pool_threads, conn.fd, now);
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kWorkerJoin;
  event.worker_id = conn.worker_id;
  event.worker_name = name;
  event.capacity = capacity;
  replicate(std::move(event));
  if (config_.rebalance_on_join && now >= rebalance_hold_until_) {
    rebalance(now);
  }
}

void FleetCoordinator::handle_standby_hello(Connection& conn,
                                            const StandbyHello& /*hello*/) {
  if (conn.worker_id != 0 || conn.is_replica) {
    return;
  }
  if (role_ != CoordinatorRole::kPrimary || deposed_) {
    m_not_primary_tx_->inc();
    NotPrimary info;
    info.epoch = epoch_;
    info.message =
        role_ == CoordinatorRole::kStandby ? "standby" : "deposed";
    const std::vector<std::uint8_t> reply = encode_frame(info);
    send_all(conn.fd, reply.data(), reply.size());
    close_connection(conn);
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
    m_lease_refusals_->inc();
    if (WorkerEntry* entry = catalog_.find(lease->worker_id)) {
      entry->cells.erase(lease->cell_index);
    }
    end_lease(lease->cell_index, /*penalize=*/true, now);
    return;
  }
  leases_.ack(ack.lease_id, true, now);
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kLeaseRenew;
  event.cell_index = lease->cell_index;
  event.lease_id = lease->lease_id;
  event.worker_id = lease->worker_id;
  event.lease_state = static_cast<std::uint8_t>(lease->state);
  event.handoffs = lease->handoffs;
  replicate(std::move(event));
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
  for (const LeaseStatus& status : hb.leases) {
    Lease* lease = leases_.by_id(status.lease_id);
    if (lease == nullptr) {
      continue;  // stale lease (already reassigned); the worker will learn
    }
    if (lease->worker_id != conn.worker_id) {
      // Re-confirmation: the lease was mirrored from the dead primary and
      // its recorded holder is a ghost (no socket).  The worker kept the
      // cell running locally and reconnected here — rebind the same lease
      // to its new registration instead of reassigning the cell.
      WorkerEntry* holder = catalog_.find(lease->worker_id);
      const bool ghost =
          holder == nullptr || !holder->alive || holder->fd < 0;
      if (!ghost) {
        continue;  // live holder elsewhere: a stale claim, ignore it
      }
      if (holder != nullptr) {
        holder->cells.erase(lease->cell_index);
        if (holder->cells.empty()) {
          const std::uint64_t ghost_id = holder->id;
          catalog_.remove(ghost_id);
          ReplicaEvent leave;
          leave.kind = ReplicaEventKind::kWorkerLeave;
          leave.worker_id = ghost_id;
          replicate(std::move(leave));
        }
      }
      leases_.rebind(status.lease_id, conn.worker_id);
      if (WorkerEntry* mine = catalog_.find(conn.worker_id)) {
        mine->cells.insert(lease->cell_index);
      }
      ++reconfirmations_;
      m_reconfirmed_->inc();
      ReplicaEvent event;
      event.kind = ReplicaEventKind::kLeaseRenew;
      event.cell_index = lease->cell_index;
      event.lease_id = lease->lease_id;
      event.worker_id = conn.worker_id;
      event.lease_state = static_cast<std::uint8_t>(lease->state);
      event.handoffs = lease->handoffs;
      replicate(std::move(event));
    }
    leases_.renew(status.lease_id, now);
    // Renewal grant: restart the worker-side TTL clock (and teach a
    // re-confirmed worker the current epoch).  Same lease id, same spec
    // by construction.
    LeaseGrant grant;
    grant.lease_id = status.lease_id;
    grant.ttl_ms = config_.lease_ttl_ms;
    grant.base_slot = records_[lease->cell_index].lease_base_slot;
    grant.epoch = epoch_;
    grant.spec = wire_spec(lease->cell_index, lease->handoffs);
    send_to_worker(conn.worker_id, encode_frame(grant));
  }
}

void FleetCoordinator::handle_cell_report(Connection& conn,
                                          const CellReport& report) {
  if (report.epoch > epoch_) {
    fence_self(report.epoch);
    return;
  }
  Lease* lease = leases_.by_id(report.lease_id);
  if (lease == nullptr || lease->worker_id != conn.worker_id ||
      lease->cell_index != report.cell_index ||
      report.cell_index >= records_.size()) {
    m_stale_reports_->inc();
    return;
  }
  CellRecord& record = records_[report.cell_index];
  if (record.has_report && report.slots > record.last.slots) {
    leases_.note_progress(report.cell_index);
  }
  record.last = report;
  record.has_report = true;
  const bool mirror = has_replica();
  std::vector<StoreRowUpdate> mirrored_rows;
  ingest_rows(report.cell_index, record, report,
              mirror ? &mirrored_rows : nullptr);
  if (mirror) {
    ReplicaEvent totals;
    totals.kind = ReplicaEventKind::kCellTotals;
    totals.cell_index = report.cell_index;
    totals.lease_id = report.lease_id;
    totals.worker_id = conn.worker_id;
    totals.lease_state = static_cast<std::uint8_t>(lease->state);
    totals.handoffs = lease->handoffs;
    totals.committed_slots = record.committed_slots;
    totals.committed_dcis = record.committed_dcis;
    totals.committed_retx = record.committed_retx;
    totals.committed_restarts = record.committed_restarts;
    totals.lease_base_slot = record.lease_base_slot;
    totals.has_report = true;
    totals.live = report;
    totals.live.rows.clear();
    replicate(std::move(totals));
    if (!mirrored_rows.empty()) {
      ReplicaEvent rows;
      rows.kind = ReplicaEventKind::kStoreRows;
      rows.cell_index = report.cell_index;
      rows.rows = std::move(mirrored_rows);
      replicate(std::move(rows));
    }
  }
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
    std::uint32_t cell_index, CellRecord& record, const CellReport& report,
    std::vector<StoreRowUpdate>* replicated) {
  std::uint64_t ingested = 0;
  for (const StoreRowUpdate& row : report.rows) {
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
    // contract).
    std::uint64_t slot = record.lease_base_slot + row.slot;
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
      const std::uint64_t lease_id = leases_.cell(cell).lease_id;
      const std::uint64_t holder = leases_.cell(cell).worker_id;
      m_leases_expired_->inc();
      if (WorkerEntry* entry = catalog_.find(holder)) {
        entry->cells.erase(cell);
      }
      end_lease(cell, /*penalize=*/true, now);
      m_reassignments_->inc();
      LeaseRevoke revoke;
      revoke.lease_id = lease_id;
      revoke.cell_index = cell;
      revoke.reason = "lease expired";
      revoke.epoch = epoch_;
      send_to_worker(holder, encode_frame(revoke));
    }
    // Assignment scan: place unassigned cells whose backoff has elapsed.
    for (const std::uint32_t cell : leases_.assignable(now)) {
      try_assign(cell, now);
    }
    // Replication keepalive: lets a standby tell an idle primary from a
    // dead one without waiting for fleet traffic.
    if (now >= next_replica_heartbeat_) {
      next_replica_heartbeat_ =
          now + to_duration(config_.replication_heartbeat_s);
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
  const std::set<std::uint32_t> cells = entry->cells;
  for (const std::uint32_t cell : cells) {
    end_lease(cell, /*penalize=*/true, now);
    m_reassignments_->inc();
  }
  catalog_.remove(worker_id);
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kWorkerLeave;
  event.worker_id = worker_id;
  replicate(std::move(event));
}

void FleetCoordinator::end_lease(std::uint32_t cell_index, bool penalize,
                                 Clock::time_point now) {
  CellRecord& record = records_[cell_index];
  if (record.has_report) {
    // Fold the lease's final report into the committed totals: this is
    // what keeps the lifetime view monotonic across the handoff.
    record.committed_slots += record.last.slots;
    record.committed_dcis += record.last.dcis;
    record.committed_retx += record.last.retx_dcis;
    record.committed_restarts += record.last.restarts;
  }
  record.last = CellReport{};
  record.has_report = false;
  leases_.release(cell_index, penalize, now);
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kLeaseRelease;
  event.cell_index = cell_index;
  event.lease_state =
      static_cast<std::uint8_t>(LeaseState::kUnassigned);
  event.handoffs = leases_.cell(cell_index).handoffs;
  event.committed_slots = record.committed_slots;
  event.committed_dcis = record.committed_dcis;
  event.committed_retx = record.committed_retx;
  event.committed_restarts = record.committed_restarts;
  replicate(std::move(event));
}

void FleetCoordinator::try_assign(std::uint32_t cell_index,
                                  Clock::time_point now) {
  const auto worker_id = catalog_.pick_least_loaded();
  if (!worker_id) {
    return;  // fleet saturated or empty; retry next timer pass
  }
  WorkerEntry* entry = catalog_.find(*worker_id);
  Lease& lease = leases_.cell(cell_index);
  const unsigned incarnation = lease.handoffs;
  CellRecord& record = records_[cell_index];
  record.lease_base_slot = record.committed_slots;
  const std::uint64_t lease_id =
      leases_.grant(cell_index, *worker_id, now);
  entry->cells.insert(cell_index);
  m_leases_granted_->inc();
  ReplicaEvent event;
  event.kind = ReplicaEventKind::kLeaseGrant;
  event.cell_index = cell_index;
  event.lease_id = lease_id;
  event.worker_id = *worker_id;
  event.lease_state = static_cast<std::uint8_t>(LeaseState::kPending);
  event.handoffs = incarnation;
  event.lease_base_slot = record.lease_base_slot;
  replicate(std::move(event));
  LeaseGrant grant;
  grant.lease_id = lease_id;
  grant.ttl_ms = config_.lease_ttl_ms;
  grant.base_slot = record.lease_base_slot;
  grant.epoch = epoch_;
  grant.spec = wire_spec(cell_index, incarnation);
  send_to_worker(*worker_id, encode_frame(grant));
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
    WorkerEntry* entry = catalog_.find(id);
    if (entry == nullptr || !entry->alive || entry->load() <= target) {
      continue;
    }
    // Shed highest-index cells first (deterministic choice).
    std::vector<std::uint32_t> shed(entry->cells.rbegin(),
                                    entry->cells.rend());
    shed.resize(entry->load() - target);
    for (const std::uint32_t cell : shed) {
      const std::uint64_t lease_id = leases_.cell(cell).lease_id;
      m_revokes_->inc();
      if (WorkerEntry* holder = catalog_.find(id)) {
        holder->cells.erase(cell);
      }
      end_lease(cell, /*penalize=*/false, now);
      LeaseRevoke revoke;
      revoke.lease_id = lease_id;
      revoke.cell_index = cell;
      revoke.reason = "rebalance";
      revoke.epoch = epoch_;
      if (!send_to_worker(id, encode_frame(revoke))) {
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
  // A short write (kPartial) leaves a torn frame on the stream: the
  // connection is unusable for framed traffic, exactly like a hard
  // failure — never fall through and "succeed" with a truncated frame.
  if (send_exact(entry->fd, frame.data(), frame.size()) == SendResult::kOk) {
    return true;
  }
  declare_worker_dead(worker_id, "send failed");
  return false;
}

WireCellSpec FleetCoordinator::wire_spec(std::uint32_t cell_index,
                                         unsigned incarnation) const {
  const CellRecord& record = records_[cell_index];
  WireCellSpec spec;
  spec.cell_index = cell_index;
  spec.name = record.spec.name;
  spec.preset = record.spec.preset;
  spec.pci = record.spec.pci;
  spec.n_ues = record.spec.n_ues;
  spec.ue_rate_bps = record.spec.ue_rate_bps;
  spec.ue_snr_db = record.spec.ue_snr_db;
  spec.sniffer_snr_db = record.spec.sniffer_snr_db;
  spec.seed = record.seed_base;
  spec.incarnation = incarnation;
  return spec;
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

ReplicaSnapshot FleetCoordinator::build_snapshot() const {
  ReplicaSnapshot snapshot;
  snapshot.epoch = epoch_;
  snapshot.next_lease_id = leases_.next_lease_id();
  for (const auto& [id, entry] : catalog_.workers()) {
    if (!entry.alive) {
      continue;
    }
    ReplicaWorker worker;
    worker.worker_id = id;
    worker.name = entry.name;
    worker.capacity = entry.capacity;
    snapshot.workers.push_back(std::move(worker));
  }
  snapshot.cells.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    const CellRecord& record = records_[i];
    const Lease& lease = leases_.cell(i);
    ReplicaCell cell;
    cell.spec = wire_spec(i, lease.handoffs);
    cell.lease_state = static_cast<std::uint8_t>(lease.state);
    cell.lease_id = lease.lease_id;
    cell.worker_id = lease.worker_id;
    cell.handoffs = lease.handoffs;
    cell.committed_slots = record.committed_slots;
    cell.committed_dcis = record.committed_dcis;
    cell.committed_retx = record.committed_retx;
    cell.committed_restarts = record.committed_restarts;
    cell.lease_base_slot = record.lease_base_slot;
    cell.has_report = record.has_report;
    cell.live = record.last;
    cell.live.rows.clear();
    snapshot.cells.push_back(std::move(cell));
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
  if (now < upstream_retry_at_) {
    return;
  }
  // Schedule the next attempt up front so every failure path below is
  // covered; a success resets the escalation.
  const BackoffPolicy policy{config_.standby_backoff_initial_s,
                             config_.standby_backoff_max_s, 2.0, 0.5};
  const double delay =
      jittered_backoff_delay(policy, upstream_attempts_, jitter_rng_);
  upstream_retry_at_ = now + to_duration(delay);
  ++upstream_attempts_;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(upstream_port_);
  if (::inet_pton(AF_INET, upstream_host_.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval send_timeout{};
  send_timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
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
  upstream_attempts_ = 0;
}

void FleetCoordinator::read_upstream() {
  std::uint8_t buf[65536];
  const ssize_t n = ::recv(upstream_fd_, buf, sizeof(buf), 0);
  const auto now = Clock::now();
  if (n <= 0) {
    if (n < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    // EOF: the primary died (or dropped us).  Promotion is standby_timers'
    // decision — it waits promote_after_s in case this was a blip.
    drop_upstream(now);
    return;
  }
  upstream_last_rx_ = now;
  upstream_parser_.feed({buf, static_cast<std::size_t>(n)});
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
  records_.clear();
  records_.reserve(snapshot.cells.size());
  leases_.reset(snapshot.cells.size());
  catalog_.clear();
  for (const ReplicaWorker& worker : snapshot.workers) {
    catalog_.restore(worker.worker_id, worker.name,
                     std::max<std::uint32_t>(1, worker.capacity), now);
  }
  for (std::uint32_t i = 0; i < snapshot.cells.size(); ++i) {
    const ReplicaCell& cell = snapshot.cells[i];
    CellRecord record;
    record.spec.name = cell.spec.name;
    record.spec.preset = cell.spec.preset;
    record.spec.pci = cell.spec.pci;
    record.spec.n_ues = cell.spec.n_ues;
    record.spec.ue_rate_bps = cell.spec.ue_rate_bps;
    record.spec.ue_snr_db = cell.spec.ue_snr_db;
    record.spec.sniffer_snr_db = cell.spec.sniffer_snr_db;
    record.seed_base = cell.spec.seed;
    record.committed_slots = cell.committed_slots;
    record.committed_dcis = cell.committed_dcis;
    record.committed_retx = cell.committed_retx;
    record.committed_restarts = cell.committed_restarts;
    record.lease_base_slot = cell.lease_base_slot;
    record.last = cell.live;
    record.has_report = cell.has_report;
    records_.push_back(std::move(record));
    leases_.restore(i, to_lease_state(cell.lease_state), cell.lease_id,
                    cell.worker_id, cell.handoffs, now);
    if (cell.worker_id != 0 &&
        to_lease_state(cell.lease_state) != LeaseState::kUnassigned) {
      if (WorkerEntry* holder = catalog_.find(cell.worker_id)) {
        holder->cells.insert(i);
      }
    }
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
      catalog_.restore(event.worker_id, event.worker_name,
                       std::max<std::uint32_t>(1, event.capacity), now);
      break;
    case ReplicaEventKind::kWorkerLeave:
      catalog_.remove(event.worker_id);
      break;
    case ReplicaEventKind::kLeaseGrant:
    case ReplicaEventKind::kLeaseRenew: {
      if (event.cell_index >= records_.size()) {
        break;
      }
      const std::uint64_t prev = leases_.cell(event.cell_index).worker_id;
      if (prev != 0 && prev != event.worker_id) {
        if (WorkerEntry* old_holder = catalog_.find(prev)) {
          old_holder->cells.erase(event.cell_index);
        }
      }
      const LeaseState state = event.kind == ReplicaEventKind::kLeaseGrant
                                   ? LeaseState::kPending
                                   : to_lease_state(event.lease_state);
      leases_.restore(event.cell_index, state, event.lease_id,
                      event.worker_id, event.handoffs, now);
      leases_.set_next_lease_id(event.lease_id);
      if (event.kind == ReplicaEventKind::kLeaseGrant) {
        records_[event.cell_index].lease_base_slot = event.lease_base_slot;
      }
      if (WorkerEntry* holder = catalog_.find(event.worker_id)) {
        holder->cells.insert(event.cell_index);
      }
      break;
    }
    case ReplicaEventKind::kLeaseRelease: {
      if (event.cell_index >= records_.size()) {
        break;
      }
      const std::uint64_t prev = leases_.cell(event.cell_index).worker_id;
      if (prev != 0) {
        if (WorkerEntry* old_holder = catalog_.find(prev)) {
          old_holder->cells.erase(event.cell_index);
        }
      }
      leases_.restore(event.cell_index, LeaseState::kUnassigned, 0, 0,
                      event.handoffs, now);
      CellRecord& record = records_[event.cell_index];
      record.committed_slots = event.committed_slots;
      record.committed_dcis = event.committed_dcis;
      record.committed_retx = event.committed_retx;
      record.committed_restarts = event.committed_restarts;
      record.last = CellReport{};
      record.has_report = false;
      break;
    }
    case ReplicaEventKind::kCellTotals: {
      if (event.cell_index >= records_.size()) {
        break;
      }
      CellRecord& record = records_[event.cell_index];
      record.committed_slots = event.committed_slots;
      record.committed_dcis = event.committed_dcis;
      record.committed_retx = event.committed_retx;
      record.committed_restarts = event.committed_restarts;
      record.lease_base_slot = event.lease_base_slot;
      record.last = event.live;
      record.has_report = event.has_report;
      break;
    }
    case ReplicaEventKind::kStoreRows:
      apply_store_rows(event.cell_index, event.rows);
      break;
  }
  if (event.epoch > epoch_) {
    epoch_ = event.epoch;
    m_epoch_gauge_->set(static_cast<std::int64_t>(epoch_));
  }
}

void FleetCoordinator::apply_store_rows(
    std::uint32_t cell_index, const std::vector<StoreRowUpdate>& rows) {
  if (cell_index >= records_.size()) {
    return;
  }
  CellRecord& record = records_[cell_index];
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
    // Slots arrive already rebased; the clamp only defends against a
    // cursor reset after a replication reconnect.
    std::uint64_t slot = row.slot;
    if (cursor.started && slot < cursor.last_slot) {
      slot = cursor.last_slot;
    }
    cursor.series->append(slot, row.value);
    cursor.last_slot = slot;
    cursor.started = true;
    ++ingested;
  }
  if (ingested > 0) {
    store_.note_rows_ingested(ingested);
  }
}

void FleetCoordinator::drop_upstream(Clock::time_point /*now*/) {
  if (upstream_fd_ >= 0) {
    ::close(upstream_fd_);
    upstream_fd_ = -1;
  }
  upstream_parser_ = FrameParser{};
  // upstream_retry_at_ is already in the past (it was scheduled at the
  // last successful connect), so the redial starts immediately and the
  // backoff escalates only across consecutive failures.
}

void FleetCoordinator::standby_timers(Clock::time_point now) {
  if (upstream_fd_ >= 0 &&
      now - upstream_last_rx_ >
          to_duration(config_.replication_timeout_s)) {
    drop_upstream(now);  // silent link: the primary is wedged or gone
  }
  if (upstream_fd_ < 0 && synced_ &&
      now - upstream_last_rx_ >= to_duration(config_.promote_after_s)) {
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
    status.cells.assign(entry.cells.begin(), entry.cells.end());
    out.push_back(std::move(status));
  }
  return out;
}

std::vector<DistCellStatus> FleetCoordinator::cells() const {
  std::lock_guard lock(state_mutex_);
  std::vector<DistCellStatus> out;
  out.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    const CellRecord& record = records_[i];
    const Lease& lease = leases_.cell(i);
    DistCellStatus status;
    status.cell_index = i;
    status.name = record.spec.name;
    status.lease_state = lease.state;
    status.lease_id = lease.lease_id;
    status.worker_id = lease.worker_id;
    status.handoffs = lease.handoffs;
    status.slots = record.committed_slots +
                   (record.has_report ? record.last.slots : 0);
    status.dcis =
        record.committed_dcis + (record.has_report ? record.last.dcis : 0);
    status.cell_state = record.has_report ? record.last.cell_state : 1;
    out.push_back(std::move(status));
  }
  return out;
}

FleetSummary FleetCoordinator::summary() const {
  std::lock_guard lock(state_mutex_);
  FleetSummary s;
  std::vector<std::pair<double, std::uint32_t>> spare;
  spare.reserve(records_.size());
  s.cells.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    const CellRecord& record = records_[i];
    const Lease& lease = leases_.cell(i);
    const bool live =
        lease.state == LeaseState::kActive && record.has_report;
    CellSummary cs;
    cs.cell_index = i;
    cs.name = record.spec.name;
    // kBackoff is the honest description of an unassigned cell: down now,
    // the supervisor (here: the lease table) intends to bring it back.
    cs.state = live ? record.last.cell_state : 1;
    cs.slots = record.committed_slots +
               (record.has_report ? record.last.slots : 0);
    cs.dcis =
        record.committed_dcis + (record.has_report ? record.last.dcis : 0);
    cs.restarts = record.committed_restarts + lease.handoffs +
                  (record.has_report ? record.last.restarts : 0);
    cs.active_ues = live ? record.last.active_ues : 0;
    cs.dl_mbps = live ? record.last.dl_mbps : 0.0;
    cs.ul_mbps = live ? record.last.ul_mbps : 0.0;
    cs.retx_rate = live ? record.last.retx_rate : 0.0;
    cs.utilization = live ? record.last.utilization : 0.0;
    s.slot = std::max(s.slot, cs.slots);
    s.dcis_total += cs.dcis;
    s.restarts_total += cs.restarts;
    s.dl_mbps_total += cs.dl_mbps;
    s.ul_mbps_total += cs.ul_mbps;
    spare.emplace_back(live ? record.last.spare_prb_rate : 0.0, i);
    s.cells.push_back(std::move(cs));
  }
  double retx_sum = 0.0;
  std::uint64_t dcis = 0;
  for (const CellSummary& cs : s.cells) {
    retx_sum += cs.retx_rate * static_cast<double>(cs.dcis);
    dcis += cs.dcis;
  }
  s.retx_rate = dcis > 0 ? retx_sum / static_cast<double>(dcis) : 0.0;
  std::stable_sort(spare.begin(), spare.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  s.spare_ranking.reserve(spare.size());
  for (const auto& [rate, index] : spare) {
    s.spare_ranking.push_back(index);
  }
  return s;
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
    if (!records_[i].has_report || records_[i].last.cell_state != 0) {
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
