// Multi-client live telemetry streaming server: a SlotSink that serializes
// each SlotResult once and fans the frame out to every connected TCP
// client.  The engine thread (the pipeline hot loop) only ever touches
// per-client bounded queues — a slow or dead consumer can never block the
// sniffer; what happens when a client falls behind is the configured
// BackpressurePolicy, and every shed frame is counted in the metrics
// registry (net.frames_dropped.*).
//
// The stream is also request/response-capable: clients may send kQuery
// frames, which the accept/housekeeping thread parses and hands to a
// dedicated query thread pool; the configured query_handler (typically
// history_query_handler() over a HistoryStore) produces the
// QueryResponse, and the result frame rides the client's ordinary send
// queue.  Queries therefore never touch the engine thread and never
// block the fan-out path; latency and volume land in the query.* metrics.
//
// Threads: one accept/housekeeping thread (also reads client sockets,
// reaps dead clients and schedules idle heartbeats), one sender thread per
// client, and the query pool — all owned by this object and joined in
// stop()/the destructor.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"
#include "common/worker_pool.h"
#include "net/wire.h"
#include "nrscope/slot_sink.h"

namespace nrs {

/// What to do with a client whose send queue is full when a new frame
/// arrives (i.e. the consumer is slower than the cell).
enum class BackpressurePolicy : std::uint8_t {
  kDropOldest,       ///< shed the oldest queued frame, keep the stream fresh
  kCoalesceLatest,   ///< drop everything queued; deliver only the newest
  kDisconnectSlow,   ///< drop the client instead of any frame
};

const char* to_string(BackpressurePolicy policy);

struct StreamServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = pick an ephemeral port (see port())
  BackpressurePolicy policy = BackpressurePolicy::kDropOldest;
  std::size_t client_queue_frames = 256;  ///< per-client send queue bound
  /// Send a MetricsSnapshot frame every N slots (0 disables).  Requires a
  /// registry to snapshot (the one passed to the constructor).
  std::uint64_t metrics_period_slots = 0;
  /// Idle keep-alive: a heartbeat frame when nothing was queued for this
  /// long, so clients can tell "quiet cell" from "dead server".
  double heartbeat_period_s = 0.5;
  std::size_t max_clients = 64;

  /// Answers kQuery frames (see src/store's history_query_handler).  Runs
  /// on the query pool threads; must be thread-safe.  When unset, queries
  /// are answered with status kUnavailable.
  std::function<QueryResponse(const QueryRequest&)> query_handler;
  /// Query pool size (only spawned when query_handler is set).
  unsigned query_threads = 2;
};

class TelemetryStreamServer : public SlotSink {
 public:
  /// Binds and starts listening immediately (throws std::runtime_error if
  /// the socket cannot be bound).  `registry` receives the net.* metrics
  /// and is the source of periodic metrics frames; when null, an internal
  /// registry is used and no metrics frames are sent.
  explicit TelemetryStreamServer(const StreamServerConfig& config,
                                 MetricsRegistry* registry = nullptr);
  ~TelemetryStreamServer() override;

  TelemetryStreamServer(const TelemetryStreamServer&) = delete;
  TelemetryStreamServer& operator=(const TelemetryStreamServer&) = delete;

  // SlotSink: runs on the pipeline engine thread; never blocks.
  void on_slot(const SlotResult& result) override;
  void on_finish() override;

  /// Broadcast an arbitrary pre-encoded frame — e.g. the fleet
  /// orchestrator's periodic aggregate rollup (encode_frame(summary)) — to
  /// every connected client.  Thread-safe; a slow client sheds it under the
  /// same backpressure policy as slot frames.
  void broadcast_frame(std::vector<std::uint8_t> frame);

  /// The actual listening port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t client_count() const;

  /// Force-close every current connection (clients are expected to
  /// reconnect).  Admin/test hook for exercising reconnect paths.
  void kick_all_clients();

  /// Stop accepting, close every connection, join all threads.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  using FramePtr = std::shared_ptr<const std::vector<std::uint8_t>>;

  struct Client {
    explicit Client(std::size_t queue_frames) : queue(queue_frames) {}
    int fd = -1;
    BoundedQueue<FramePtr> queue;
    std::thread sender;
    std::atomic<bool> dead{false};
    /// Inbound request parser; touched only by the accept/housekeeping
    /// thread.
    FrameParser parser;
    /// Serializes writes to `fd`: the sender thread holds it per frame, and
    /// the housekeeping thread takes it to inject a synchronous
    /// kUnsupportedVersion reply without tearing a frame in half.
    std::mutex send_mutex;
  };

  void accept_loop();
  void sender_loop(Client& client);
  void enqueue(Client& client, const FramePtr& frame);
  void broadcast(const FramePtr& frame);
  void reap_dead_clients_locked();
  /// Drain readable bytes from one client socket and dispatch any
  /// complete request frames (accept/housekeeping thread only).
  void read_client(const std::shared_ptr<Client>& client);
  /// Hand one decoded query to the pool; the response frame is enqueued
  /// on the client's send queue when the handler returns.
  void dispatch_query(const std::shared_ptr<Client>& client,
                      const QueryRequest& request);

  StreamServerConfig config_;
  std::unique_ptr<MetricsRegistry> own_registry_;
  MetricsRegistry* registry_ = nullptr;
  bool send_metrics_frames_ = false;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;

  mutable std::mutex clients_mutex_;
  // shared_ptr: in-flight query tasks keep their client alive across a
  // reap, so a response for a vanished consumer is dropped, not a crash.
  std::vector<std::shared_ptr<Client>> clients_;

  /// Lazily spawned on the first constructor that carries a
  /// query_handler; destroyed (joined) in stop() before the clients.
  std::unique_ptr<WorkerPool> query_pool_;

  std::atomic<std::uint64_t> next_slot_{0};  ///< for HelloInfo on accept
  std::uint64_t slots_seen_ = 0;             ///< engine thread only

  Counter* m_bytes_sent_ = nullptr;
  Counter* m_frames_sent_ = nullptr;
  Counter* m_heartbeats_sent_ = nullptr;
  Counter* m_drop_oldest_ = nullptr;
  Counter* m_drop_coalesced_ = nullptr;
  Counter* m_disconnect_slow_ = nullptr;
  Counter* m_connects_ = nullptr;
  Counter* m_disconnects_ = nullptr;
  Counter* m_send_errors_ = nullptr;
  Counter* m_version_rejects_ = nullptr;
  Gauge* m_clients_ = nullptr;
  Counter* m_query_requests_ = nullptr;
  Counter* m_query_errors_ = nullptr;
  Counter* m_query_rejected_ = nullptr;
  Histogram* m_query_latency_us_ = nullptr;
  Gauge* m_query_inflight_ = nullptr;
};

}  // namespace nrs
