#include "net/stream_client.h"

#include "net/socket_io.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace nrs {

namespace {
using Clock = std::chrono::steady_clock;
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
  const std::vector<std::uint8_t> frame = encode_frame(request);
  bool sent = false;
  {
    std::lock_guard lock(send_mutex_);
    const int fd = live_fd_.load();
    if (fd >= 0 && connected_.load()) {
      sent = send_all(fd, frame.data(), frame.size());
      if (!sent) {
        // A send that hit the send bound may have torn a frame: the
        // stream is unusable.  Wake the reader, which redials.
        ::shutdown(fd, SHUT_RDWR);
      }
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

void TelemetryStreamClient::run() {
  RedialSchedule redial(kStreamRedial);
  bool first_attempt = true;
  while (!stopping_.load()) {
    // Jittered exponential backoff, sliced so stop() stays responsive.
    if (!redial.due(Clock::now())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // Every dial but the first is a reconnect attempt, whether it
    // succeeds or not.
    if (!first_attempt) {
      m_reconnect_attempts_->inc();
    }
    first_attempt = false;
    const int fd = dial_tcp(config_.host, config_.port);
    if (fd < 0) {
      redial.back_off(Clock::now());
      continue;
    }
    redial.reset();
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
  auto last_frame = Clock::now();
  while (!stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) {
      return false;
    }
    std::size_t bytes = 0;
    const RecvStatus status =
        ready > 0 ? recv_frames(fd, parser, &bytes) : RecvStatus::kWouldBlock;
    if (status == RecvStatus::kClosed) {
      return false;  // peer closed or hard error
    }
    if (status == RecvStatus::kData) {
      m_bytes_rx_->inc(bytes);
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
    if (Clock::now() - last_frame > kStreamReadTimeout) {
      return false;  // silent peer: heartbeats stopped, declare it dead
    }
  }
  return true;
}

template <class T,
          std::function<void(const T&)> StreamClientHandlers::*Handler>
bool TelemetryStreamClient::deliver(const Frame& frame) {
  if (auto value = decode_payload<T>(frame.payload)) {
    if (handlers_.*Handler) {
      (handlers_.*Handler)(*value);
    }
  } else {
    m_decode_errors_->inc();
  }
  return false;
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
      {FrameType::kHello,
       &TelemetryStreamClient::deliver<HelloInfo,
                                       &StreamClientHandlers::on_connected>},
      {FrameType::kSlot,
       &TelemetryStreamClient::deliver<SlotResult,
                                       &StreamClientHandlers::on_slot>},
      {FrameType::kMetrics,
       &TelemetryStreamClient::deliver<MetricsSnapshot,
                                       &StreamClientHandlers::on_metrics>},
      {FrameType::kFleet,
       &TelemetryStreamClient::deliver<FleetSummary,
                                       &StreamClientHandlers::on_fleet>},
      {FrameType::kPrediction,
       &TelemetryStreamClient::deliver<PredictionSet,
                                       &StreamClientHandlers::on_prediction>},
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
  if (auto decoded = decode_payload<VersionReject>(frame.payload)) {
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
  auto response = decode_payload<QueryResponse>(frame.payload);
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
