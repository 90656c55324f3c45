// Reconnecting consumer of the telemetry wire protocol.  Owns one reader
// thread: it connects to a TelemetryStreamServer, parses frames, and hands
// decoded SlotResults / MetricsSnapshots to user callbacks.  Liveness is
// watched with kStreamReadTimeout (the server heartbeats every
// kStreamHeartbeat when idle, so a quiet socket means a dead peer, not a
// quiet cell); a lost connection is redialed forever on the kStreamRedial
// schedule (common/backoff.h), which makes the client survive mid-stream
// server restarts: it simply resubscribes and resumes with the server's
// hello frame.
//
// The connection is also request/response-capable: query() sends a kQuery
// frame tagged with a fresh correlation ID and blocks the *calling* thread
// until the matching kQueryResult arrives (the reader thread pairs
// responses to waiters by ID), the per-request timeout expires, or the
// connection drops.  Because responses are correlated, any number of
// threads can query concurrently over the one socket, interleaved with the
// live slot stream.  Inbound frames are routed through a single dispatch
// table — the streaming callbacks, the heartbeat and the query responses
// are all just rows in it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/backoff.h"
#include "common/metrics.h"
#include "net/wire.h"

namespace nrs {

/// A stream client's redial schedule: 0.05 s doubling to 1 s, each delay
/// jittered per instance, so many clients losing one server together do
/// not redial it in lockstep.
inline constexpr BackoffPolicy kStreamRedial{};

struct StreamClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Stop the reader thread once an end-of-stream frame arrives (a
  /// finished run); switch off to keep listening across runs.
  bool stop_on_end_of_stream = true;
};

/// Decoded-frame callbacks, all invoked on the client's reader thread.
/// Unset members are simply skipped.
struct StreamClientHandlers {
  std::function<void(const HelloInfo&)> on_connected;
  std::function<void(const SlotResult&)> on_slot;
  std::function<void(const MetricsSnapshot&)> on_metrics;
  std::function<void(const FleetSummary&)> on_fleet;
  /// One analysis PredictionSet (per-UE throughput forecasts and matured
  /// predicted-vs-actual scores) arrived on the stream.
  std::function<void(const PredictionSet&)> on_prediction;
  std::function<void()> on_disconnected;
  std::function<void()> on_end_of_stream;
  /// The server rejected this client's protocol version (a structured
  /// kUnsupportedVersion frame arrived).  The client records the reject
  /// (see protocol_error()) and stops — reconnecting cannot help, the two
  /// binaries disagree about the protocol.
  std::function<void(const VersionReject&)> on_protocol_error;
};

class TelemetryStreamClient {
 public:
  /// Starts the reader thread immediately.  `registry` (optional) receives
  /// the net.client.* metrics: connects, reconnect attempts (every dial
  /// after the first, successful or not), frames/bytes received,
  /// disconnects.
  TelemetryStreamClient(const StreamClientConfig& config,
                        StreamClientHandlers handlers,
                        MetricsRegistry* registry = nullptr);
  ~TelemetryStreamClient();

  TelemetryStreamClient(const TelemetryStreamClient&) = delete;
  TelemetryStreamClient& operator=(const TelemetryStreamClient&) = delete;

  /// Ask the reader thread to exit and join it.  Idempotent.
  void stop();

  /// Send one query over the live connection and wait for its response.
  /// The request's correlation_id is assigned here (any caller-set value
  /// is overwritten).  Returns nullopt when not connected, when the send
  /// fails (the connection is then shut down, since a send cut short by
  /// the send bound may have torn a frame, and the reader redials), or
  /// when no response arrives within timeout_s (counted in
  /// net.client.query_timeouts; a response that limps in later is
  /// discarded).  A connection drop while waiting yields a response with
  /// status kUnavailable rather than a silent hang.  Thread-safe: any
  /// number of callers may have queries in flight concurrently.
  std::optional<QueryResponse> query(QueryRequest request,
                                     double timeout_s = 2.0);

  [[nodiscard]] bool connected() const { return connected_.load(); }
  /// Set when the server answered with kUnsupportedVersion: a
  /// human-readable description of the version mismatch.  Empty when no
  /// protocol error has occurred.  The reader thread has stopped (no
  /// reconnect) once this is non-empty.
  [[nodiscard]] std::string protocol_error() const;
  /// True when the reader thread has exited (end of stream, stop(), or a
  /// version reject).
  [[nodiscard]] bool finished() const { return finished_.load(); }

  /// Block until an end-of-stream frame has been received (or the thread
  /// exits); false on timeout.
  bool wait_end_of_stream(double timeout_s);
  /// Block until connected() is true; false on timeout.
  bool wait_connected(double timeout_s);

 private:
  void run();
  /// One connection lifetime; returns true when the client should stop.
  bool serve_connection(int fd);
  void note_state_change();

  /// Route one well-framed inbound frame through the dispatch table;
  /// returns true when the client should stop (end-of-stream row).
  bool dispatch_frame(const Frame& frame);
  /// Decodes the frame's T payload and passes it to handlers_.*Handler
  /// (counting a decode error when the payload is malformed).
  template <class T, std::function<void(const T&)> StreamClientHandlers::*
                         Handler>
  bool deliver(const Frame& frame);
  bool handle_heartbeat(const Frame& frame);
  bool handle_end(const Frame& frame);
  bool handle_query_result(const Frame& frame);
  bool handle_version_reject(const Frame& frame);

  /// Resolve every in-flight query with status kUnavailable (connection
  /// dropped / client stopping) so no caller blocks out its full timeout.
  void fail_pending_queries(const char* reason);

  StreamClientConfig config_;
  StreamClientHandlers handlers_;
  std::unique_ptr<MetricsRegistry> own_registry_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> connected_{false};
  std::atomic<bool> saw_end_{false};
  std::atomic<bool> finished_{false};
  std::atomic<int> live_fd_{-1};  ///< shutdown() target for stop()

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  mutable std::mutex protocol_error_mutex_;
  std::string protocol_error_;

  // Request path: one writer at a time on the socket, and the reader
  // thread pairs kQueryResult frames to waiting callers by correlation ID.
  std::mutex send_mutex_;
  std::mutex pending_mutex_;
  std::unordered_map<std::uint64_t, std::promise<QueryResponse>> pending_;
  std::atomic<std::uint64_t> next_correlation_{0};

  std::thread reader_;

  Counter* m_connects_ = nullptr;
  Counter* m_reconnect_attempts_ = nullptr;
  Counter* m_disconnects_ = nullptr;
  Counter* m_frames_rx_ = nullptr;
  Counter* m_bytes_rx_ = nullptr;
  Counter* m_decode_errors_ = nullptr;
  Counter* m_queries_sent_ = nullptr;
  Counter* m_query_responses_ = nullptr;
  Counter* m_query_timeouts_ = nullptr;
  Counter* m_version_rejected_ = nullptr;
};

}  // namespace nrs
