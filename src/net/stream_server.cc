#include "net/stream_server.h"

#include "net/socket_io.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace nrs {

const char* to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
    case BackpressurePolicy::kCoalesceLatest: return "coalesce-latest";
    case BackpressurePolicy::kDisconnectSlow: return "disconnect-slow";
  }
  return "unknown";
}

TelemetryStreamServer::TelemetryStreamServer(
    const StreamServerConfig& config, MetricsRegistry* registry)
    : config_(config) {
  if (config_.client_queue_frames == 0) {
    throw std::invalid_argument(
        "TelemetryStreamServer: client_queue_frames must be > 0");
  }
  if (registry != nullptr) {
    registry_ = registry;
    send_metrics_frames_ = config_.metrics_period_slots > 0;
  } else {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  m_bytes_sent_ = &registry_->counter("net.bytes_sent");
  m_frames_sent_ = &registry_->counter("net.frames_sent");
  m_heartbeats_sent_ = &registry_->counter("net.heartbeats_sent");
  m_drop_oldest_ = &registry_->counter("net.frames_dropped.drop_oldest");
  m_drop_coalesced_ = &registry_->counter("net.frames_dropped.coalesced");
  m_disconnect_slow_ =
      &registry_->counter("net.clients_disconnected_slow");
  m_connects_ = &registry_->counter("net.client_connects");
  m_disconnects_ = &registry_->counter("net.client_disconnects");
  m_send_errors_ = &registry_->counter("net.send_errors");
  m_version_rejects_ = &registry_->counter("net.version_rejects");
  m_clients_ = &registry_->gauge("net.clients");
  m_query_requests_ = &registry_->counter("query.requests");
  m_query_errors_ = &registry_->counter("query.errors");
  m_query_rejected_ = &registry_->counter("query.rejected");
  m_query_latency_us_ = &registry_->histogram("query.latency_us");
  m_query_inflight_ = &registry_->gauge("query.inflight");
  if (config_.query_handler) {
    query_pool_ =
        std::make_unique<WorkerPool>(std::max(1u, config_.query_threads));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("TelemetryStreamServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    throw std::runtime_error("TelemetryStreamServer: bad bind address " +
                             config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TelemetryStreamServer: cannot listen on " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

TelemetryStreamServer::~TelemetryStreamServer() { stop(); }

void TelemetryStreamServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) {
      acceptor_.join();
    }
    return;
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  // Drain the query pool before tearing clients down: in-flight responses
  // either land on a still-open queue or hit a closed one and vanish.
  query_pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard lock(clients_mutex_);
  for (const auto& client : clients_) {
    client->queue.close();
    ::shutdown(client->fd, SHUT_RDWR);
  }
  for (const auto& client : clients_) {
    if (client->sender.joinable()) {
      client->sender.join();
    }
    ::close(client->fd);
    m_disconnects_->inc();
  }
  clients_.clear();
  m_clients_->set(0);
}

std::size_t TelemetryStreamServer::client_count() const {
  std::lock_guard lock(clients_mutex_);
  std::size_t alive = 0;
  for (const auto& client : clients_) {
    alive += client->dead.load() ? 0 : 1;
  }
  return alive;
}

void TelemetryStreamServer::kick_all_clients() {
  std::lock_guard lock(clients_mutex_);
  for (const auto& client : clients_) {
    client->dead.store(true);
    client->queue.close();
    ::shutdown(client->fd, SHUT_RDWR);
  }
}

void TelemetryStreamServer::accept_loop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Client>> polled;
  while (!stopping_.load()) {
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    {
      std::lock_guard lock(clients_mutex_);
      reap_dead_clients_locked();
      for (const auto& client : clients_) {
        if (!client->dead.load()) {
          pfds.push_back(pollfd{client->fd, POLLIN, 0});
          polled.push_back(client);
        }
      }
    }
    const int ready =
        ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/50);
    if (ready <= 0) {
      continue;
    }
    // Client sockets first: inbound queries and half-closed peers.
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents != 0) {
        read_client(polled[i - 1]);
      }
    }
    if ((pfds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard lock(clients_mutex_);
    if (clients_.size() >= config_.max_clients || stopping_.load()) {
      ::close(fd);
      continue;
    }
    auto client = std::make_shared<Client>(config_.client_queue_frames);
    client->fd = fd;
    // Greeting first, before the client is visible to broadcast(), so the
    // hello frame is always the first thing on the wire.
    HelloInfo hello;
    hello.next_slot = next_slot_.load();
    client->queue.try_push(
        std::make_shared<const std::vector<std::uint8_t>>(
            encode_frame(hello)));
    Client& ref = *client;
    client->sender = std::thread([this, &ref] { sender_loop(ref); });
    clients_.push_back(std::move(client));
    m_connects_->inc();
    m_clients_->set(static_cast<std::int64_t>(clients_.size()));
  }
}

void TelemetryStreamServer::reap_dead_clients_locked() {
  for (auto it = clients_.begin(); it != clients_.end();) {
    Client& client = **it;
    if (!client.dead.load()) {
      ++it;
      continue;
    }
    client.queue.close();
    ::shutdown(client.fd, SHUT_RDWR);
    if (client.sender.joinable()) {
      client.sender.join();
    }
    ::close(client.fd);
    it = clients_.erase(it);
    m_disconnects_->inc();
  }
  m_clients_->set(static_cast<std::int64_t>(clients_.size()));
}

void TelemetryStreamServer::read_client(
    const std::shared_ptr<Client>& client) {
  std::uint8_t buf[4096];
  const ssize_t n = ::recv(client->fd, buf, sizeof(buf), 0);
  if (n <= 0) {
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      return;
    }
    client->dead.store(true);  // peer closed (or hard error); reap next round
    client->queue.close();
    return;
  }
  client->parser.feed({buf, static_cast<std::size_t>(n)});
  while (auto frame = client->parser.next()) {
    if (frame->type != FrameType::kQuery) {
      continue;  // clients only speak queries upstream; ignore the rest
    }
    if (auto request = decode_payload<QueryRequest>(frame->payload)) {
      dispatch_query(client, *request);
    } else {
      m_query_errors_->inc();
    }
  }
  if (client->parser.error()) {
    if (const auto rejected = client->parser.rejected_version()) {
      // The peer speaks a protocol version other than ours.  Tell it so
      // with a structured reject frame (best effort, synchronous — the
      // send mutex keeps the sender thread from interleaving a frame)
      // before dropping the connection, so old clients see a clear error
      // instead of a silent disconnect.
      m_version_rejects_->inc();
      VersionReject reject;
      reject.rejected = *rejected;
      reject.message = client->parser.error_message();
      const std::vector<std::uint8_t> frame = encode_frame(reject);
      std::lock_guard lock(client->send_mutex);
      send_all(client->fd, frame.data(), frame.size());
    } else {
      // Garbage on the request stream: the framing is unrecoverable, so
      // drop the connection rather than guess at resync.
      m_query_errors_->inc();
    }
    client->dead.store(true);
    client->queue.close();
  }
}

void TelemetryStreamServer::dispatch_query(
    const std::shared_ptr<Client>& client, const QueryRequest& request) {
  m_query_requests_->inc();
  if (!config_.query_handler || query_pool_ == nullptr) {
    m_query_rejected_->inc();
    QueryResponse response;
    response.correlation_id = request.correlation_id;
    response.kind = request.kind;
    response.status = QueryStatus::kUnavailable;
    response.error = "no query handler attached";
    const auto frame = std::make_shared<const std::vector<std::uint8_t>>(
        encode_frame(response));
    std::lock_guard lock(clients_mutex_);
    if (!client->dead.load()) {
      enqueue(*client, frame);
    }
    return;
  }
  m_query_inflight_->add(1);
  query_pool_->submit([this, client, request] {
    QueryResponse response;
    {
      ScopedTimer timer(*m_query_latency_us_);
      try {
        response = config_.query_handler(request);
      } catch (const std::exception& e) {
        m_query_errors_->inc();
        response = QueryResponse{};
        response.status = QueryStatus::kUnavailable;
        response.error = e.what();
      } catch (...) {
        m_query_errors_->inc();
        response = QueryResponse{};
        response.status = QueryStatus::kUnavailable;
        response.error = "query handler threw";
      }
    }
    response.correlation_id = request.correlation_id;
    response.kind = request.kind;
    const auto frame = std::make_shared<const std::vector<std::uint8_t>>(
        encode_frame(response));
    {
      // Same lock as broadcast(): the client object outlives a reap via
      // the shared_ptr, and `dead` gates enqueueing onto a closed queue.
      std::lock_guard lock(clients_mutex_);
      if (!client->dead.load()) {
        enqueue(*client, frame);
      }
    }
    m_query_inflight_->add(-1);
  });
}

void TelemetryStreamServer::sender_loop(Client& client) {
  const auto heartbeat_after = std::chrono::duration<double>(
      config_.heartbeat_period_s > 0 ? config_.heartbeat_period_s : 3600.0);
  while (!client.dead.load()) {
    std::optional<FramePtr> frame = client.queue.pop_for(heartbeat_after);
    if (!frame) {
      if (client.queue.closed()) {
        break;
      }
      // Idle: keep the connection observably alive.
      const std::vector<std::uint8_t> beat =
          encode_frame(FrameType::kHeartbeat, {});
      bool sent = false;
      {
        std::lock_guard lock(client.send_mutex);
        sent = send_all(client.fd, beat.data(), beat.size());
      }
      if (!sent) {
        m_send_errors_->inc();
        break;
      }
      m_heartbeats_sent_->inc();
      m_bytes_sent_->inc(beat.size());
      continue;
    }
    bool sent = false;
    {
      std::lock_guard lock(client.send_mutex);
      sent = send_all(client.fd, (*frame)->data(), (*frame)->size());
    }
    if (!sent) {
      m_send_errors_->inc();
      break;
    }
    m_frames_sent_->inc();
    m_bytes_sent_->inc((*frame)->size());
  }
  client.dead.store(true);  // the accept loop reaps and closes the fd
}

void TelemetryStreamServer::enqueue(Client& client, const FramePtr& frame) {
  while (true) {
    switch (client.queue.try_push_result(frame)) {
      case QueuePushResult::kOk:
      case QueuePushResult::kClosed:
        return;
      case QueuePushResult::kFull:
        break;
    }
    switch (config_.policy) {
      case BackpressurePolicy::kDropOldest:
        if (client.queue.try_pop()) {
          m_drop_oldest_->inc();
        }
        break;
      case BackpressurePolicy::kCoalesceLatest:
        while (client.queue.try_pop()) {
          m_drop_coalesced_->inc();
        }
        break;
      case BackpressurePolicy::kDisconnectSlow:
        m_disconnect_slow_->inc();
        client.dead.store(true);
        client.queue.close();
        ::shutdown(client.fd, SHUT_RDWR);
        return;
    }
  }
}

void TelemetryStreamServer::broadcast(const FramePtr& frame) {
  std::lock_guard lock(clients_mutex_);
  for (const auto& client : clients_) {
    if (!client->dead.load()) {
      enqueue(*client, frame);
    }
  }
}

void TelemetryStreamServer::broadcast_frame(std::vector<std::uint8_t> frame) {
  broadcast(
      std::make_shared<const std::vector<std::uint8_t>>(std::move(frame)));
}

void TelemetryStreamServer::on_slot(const SlotResult& result) {
  next_slot_.store(result.slot + 1);
  ++slots_seen_;
  const bool metrics_due =
      send_metrics_frames_ &&
      slots_seen_ % config_.metrics_period_slots == 0;
  {
    std::lock_guard lock(clients_mutex_);
    if (clients_.empty()) {
      return;  // nothing to serialize for
    }
  }
  broadcast(std::make_shared<const std::vector<std::uint8_t>>(
      encode_frame(result)));
  if (metrics_due) {
    broadcast(std::make_shared<const std::vector<std::uint8_t>>(
        encode_frame(registry_->snapshot())));
  }
}

void TelemetryStreamServer::on_finish() {
  broadcast(std::make_shared<const std::vector<std::uint8_t>>(
      encode_frame(FrameType::kEnd, {})));
}

}  // namespace nrs
