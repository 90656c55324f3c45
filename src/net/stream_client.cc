#include "net/stream_client.h"

#include "common/backoff.h"
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

namespace nrs {

namespace {
using Clock = std::chrono::steady_clock;

/// Per-instance jitter seed when the config leaves it at 0: mix the
/// object identity with the monotonic clock so identically configured
/// clients still draw de-correlated backoff schedules.
std::uint64_t derive_jitter_seed(const void* self) {
  return reinterpret_cast<std::uintptr_t>(self) ^
         static_cast<std::uint64_t>(
             Clock::now().time_since_epoch().count());
}

}  // namespace

TelemetryStreamClient::TelemetryStreamClient(
    const StreamClientConfig& config, StreamClientHandlers handlers,
    MetricsRegistry* registry)
    : config_(config), handlers_(std::move(handlers)) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry = own_registry_.get();
  }
  m_connects_ = &registry->counter("net.client.connects");
  m_reconnect_attempts_ =
      &registry->counter("net.client.reconnect_attempts");
  m_disconnects_ = &registry->counter("net.client.disconnects");
  m_frames_rx_ = &registry->counter("net.client.frames_received");
  m_bytes_rx_ = &registry->counter("net.client.bytes_received");
  m_decode_errors_ = &registry->counter("net.client.decode_errors");
  m_queries_sent_ = &registry->counter("net.client.queries_sent");
  m_query_responses_ = &registry->counter("net.client.query_responses");
  m_query_timeouts_ = &registry->counter("net.client.query_timeouts");
  m_version_rejected_ = &registry->counter("net.client.version_rejected");
  reader_ = std::thread([this] { run(); });
}

TelemetryStreamClient::~TelemetryStreamClient() { stop(); }

void TelemetryStreamClient::stop() {
  stopping_.store(true);
  const int fd = live_fd_.load();
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);  // wake a blocked poll()/recv()
  }
  note_state_change();
  if (reader_.joinable()) {
    reader_.join();
  }
  fail_pending_queries("client stopped");
}

std::optional<QueryResponse> TelemetryStreamClient::query(
    QueryRequest request, double timeout_s) {
  const std::uint64_t id = next_correlation_.fetch_add(1) + 1;
  request.correlation_id = id;
  std::future<QueryResponse> future;
  {
    std::lock_guard lock(pending_mutex_);
    future = pending_[id].get_future();
  }
  const std::vector<std::uint8_t> frame = query_frame(request);
  bool sent = false;
  {
    std::lock_guard lock(send_mutex_);
    const int fd = live_fd_.load();
    if (fd >= 0 && connected_.load()) {
      sent = send_all(fd, frame.data(), frame.size());
    }
  }
  if (!sent) {
    std::lock_guard lock(pending_mutex_);
    pending_.erase(id);
    return std::nullopt;
  }
  m_queries_sent_->inc();
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) !=
      std::future_status::ready) {
    m_query_timeouts_->inc();
    // Abandon the waiter; a late response finds no pending entry and is
    // dropped by the reader.
    std::lock_guard lock(pending_mutex_);
    pending_.erase(id);
    return std::nullopt;
  }
  return future.get();
}

std::string TelemetryStreamClient::protocol_error() const {
  std::lock_guard lock(protocol_error_mutex_);
  return protocol_error_;
}

void TelemetryStreamClient::fail_pending_queries(const char* reason) {
  std::lock_guard lock(pending_mutex_);
  for (auto& [id, promise] : pending_) {
    QueryResponse response;
    response.correlation_id = id;
    response.status = QueryStatus::kUnavailable;
    response.error = reason;
    promise.set_value(std::move(response));
  }
  pending_.clear();
}

void TelemetryStreamClient::note_state_change() {
  std::lock_guard lock(state_mutex_);
  state_cv_.notify_all();
}

bool TelemetryStreamClient::wait_end_of_stream(double timeout_s) {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [this] {
    return saw_end_.load() || finished_.load();
  });
  return saw_end_.load();
}

bool TelemetryStreamClient::wait_connected(double timeout_s) {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [this] {
    return connected_.load() || finished_.load();
  });
  return connected_.load();
}

int TelemetryStreamClient::connect_once() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void TelemetryStreamClient::run() {
  const BackoffPolicy policy{config_.backoff_initial_s,
                             config_.backoff_max_s, 2.0,
                             config_.backoff_jitter};
  Rng jitter_rng(config_.backoff_seed != 0 ? config_.backoff_seed
                                           : derive_jitter_seed(this));
  unsigned consecutive_failures = 0;
  int failed_attempts = 0;
  bool first_attempt = true;
  while (!stopping_.load()) {
    // Every dial but the first is a reconnect attempt, whether it
    // succeeds or not.
    if (!first_attempt) {
      m_reconnect_attempts_->inc();
    }
    first_attempt = false;
    const int fd = connect_once();
    if (fd < 0) {
      ++failed_attempts;
      if (config_.max_reconnect_attempts >= 0 &&
          failed_attempts > config_.max_reconnect_attempts) {
        break;
      }
      // Jittered exponential backoff, sliced so stop() stays responsive.
      const double backoff_s =
          jittered_backoff_delay(policy, consecutive_failures, jitter_rng);
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(backoff_s));
      while (!stopping_.load() && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ++consecutive_failures;
      continue;
    }
    failed_attempts = 0;
    consecutive_failures = 0;
    live_fd_.store(fd);
    connected_.store(true);
    m_connects_->inc();
    note_state_change();

    const bool done = serve_connection(fd);

    connected_.store(false);
    {
      // No query() may still hold this fd once it is closed (the fd
      // number could be reused); senders take the same lock.
      std::lock_guard lock(send_mutex_);
      live_fd_.store(-1);
    }
    ::close(fd);
    fail_pending_queries("disconnected");
    m_disconnects_->inc();
    if (handlers_.on_disconnected && !stopping_.load() && !done) {
      handlers_.on_disconnected();
    }
    note_state_change();
    if (done) {
      break;
    }
  }
  finished_.store(true);
  note_state_change();
}

bool TelemetryStreamClient::serve_connection(int fd) {
  FrameParser parser;
  std::uint8_t buf[16384];
  auto last_frame = Clock::now();
  const auto timeout = std::chrono::duration<double>(config_.read_timeout_s);
  while (!stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) {
      return false;
    }
    if (ready > 0) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        return false;  // peer closed or hard error
      }
      m_bytes_rx_->inc(static_cast<std::uint64_t>(n));
      parser.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      while (auto frame = parser.next()) {
        last_frame = Clock::now();
        m_frames_rx_->inc();
        if (dispatch_frame(*frame)) {
          return true;
        }
      }
      if (parser.error()) {
        m_decode_errors_->inc();
        return false;  // protocol mismatch: drop and reconnect
      }
    }
    if (Clock::now() - last_frame > timeout) {
      return false;  // silent peer: heartbeats stopped, declare it dead
    }
  }
  return true;
}

bool TelemetryStreamClient::dispatch_frame(const Frame& frame) {
  using Handler = bool (TelemetryStreamClient::*)(const Frame&);
  // One row per inbound frame type; the heartbeat is the trivial liveness
  // row (the read-timeout clock was already reset by the caller).  An
  // unknown-but-well-framed type is skipped: newer servers may speak
  // frame types this client does not know.
  static constexpr struct {
    FrameType type;
    Handler handler;
  } kTable[] = {
      {FrameType::kHello, &TelemetryStreamClient::handle_hello},
      {FrameType::kSlot, &TelemetryStreamClient::handle_slot},
      {FrameType::kMetrics, &TelemetryStreamClient::handle_metrics},
      {FrameType::kFleet, &TelemetryStreamClient::handle_fleet},
      {FrameType::kPrediction, &TelemetryStreamClient::handle_prediction},
      {FrameType::kHeartbeat, &TelemetryStreamClient::handle_heartbeat},
      {FrameType::kEnd, &TelemetryStreamClient::handle_end},
      {FrameType::kQueryResult,
       &TelemetryStreamClient::handle_query_result},
      {FrameType::kUnsupportedVersion,
       &TelemetryStreamClient::handle_version_reject},
  };
  for (const auto& row : kTable) {
    if (row.type == frame.type) {
      return (this->*row.handler)(frame);
    }
  }
  return false;
}

bool TelemetryStreamClient::handle_hello(const Frame& frame) {
  if (auto hello = decode_hello(frame.payload)) {
    if (handlers_.on_connected) {
      handlers_.on_connected(*hello);
    }
  } else {
    m_decode_errors_->inc();
  }
  return false;
}

bool TelemetryStreamClient::handle_slot(const Frame& frame) {
  if (auto slot = decode_slot(frame.payload)) {
    if (handlers_.on_slot) {
      handlers_.on_slot(*slot);
    }
  } else {
    m_decode_errors_->inc();
  }
  return false;
}

bool TelemetryStreamClient::handle_metrics(const Frame& frame) {
  if (auto metrics = decode_metrics(frame.payload)) {
    if (handlers_.on_metrics) {
      handlers_.on_metrics(*metrics);
    }
  } else {
    m_decode_errors_->inc();
  }
  return false;
}

bool TelemetryStreamClient::handle_fleet(const Frame& frame) {
  if (auto fleet = decode_fleet(frame.payload)) {
    if (handlers_.on_fleet) {
      handlers_.on_fleet(*fleet);
    }
  } else {
    m_decode_errors_->inc();
  }
  return false;
}

bool TelemetryStreamClient::handle_prediction(const Frame& frame) {
  if (auto set = decode_prediction(frame.payload)) {
    if (handlers_.on_prediction) {
      handlers_.on_prediction(*set);
    }
  } else {
    m_decode_errors_->inc();
  }
  return false;
}

bool TelemetryStreamClient::handle_heartbeat(const Frame&) {
  return false;  // liveness only
}

bool TelemetryStreamClient::handle_end(const Frame&) {
  saw_end_.store(true);
  note_state_change();
  if (handlers_.on_end_of_stream) {
    handlers_.on_end_of_stream();
  }
  return config_.stop_on_end_of_stream;
}

bool TelemetryStreamClient::handle_version_reject(const Frame& frame) {
  VersionReject reject;
  if (auto decoded = decode_version_reject(frame.payload)) {
    reject = std::move(*decoded);
  } else {
    m_decode_errors_->inc();
    reject.message = "server rejected protocol version (unreadable detail)";
  }
  m_version_rejected_->inc();
  {
    std::lock_guard lock(protocol_error_mutex_);
    protocol_error_ = "server rejected protocol version " +
                      std::to_string(reject.rejected) + " (supports " +
                      std::to_string(reject.min_version) + ".." +
                      std::to_string(reject.max_version) + ")";
    if (!reject.message.empty()) {
      protocol_error_ += ": " + reject.message;
    }
  }
  if (handlers_.on_protocol_error) {
    handlers_.on_protocol_error(reject);
  }
  // Reconnecting cannot fix a version mismatch: stop the reader for good.
  return true;
}

bool TelemetryStreamClient::handle_query_result(const Frame& frame) {
  auto response = decode_query_result(frame.payload);
  if (!response) {
    m_decode_errors_->inc();
    return false;
  }
  std::lock_guard lock(pending_mutex_);
  const auto it = pending_.find(response->correlation_id);
  if (it != pending_.end()) {
    it->second.set_value(std::move(*response));
    pending_.erase(it);
    m_query_responses_->inc();
  }
  // No waiter: the caller already timed out; drop the stale response.
  return false;
}

}  // namespace nrs
