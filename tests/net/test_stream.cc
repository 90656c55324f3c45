// Loopback integration tests for the live telemetry streaming subsystem:
// server fan-out, the overload rule for slow and stuck consumers, client
// reconnect across server-side kicks and full server restarts, and the
// acceptance bar — telemetry reconstructed remotely is row-identical to
// the local TelemetryLogWriter CSV, including across a forced mid-stream
// disconnect/reconnect.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "net/socket_io.h"
#include "net/stream_client.h"
#include "net/stream_server.h"
#include "nrscope/log_writer.h"
#include "nrscope/pipeline.h"
#include "radio/virtual_radio.h"
#include "store/history_store.h"
#include "store/query.h"
#include "store/store_sink.h"
#include "../nrscope/slot_streams.h"
#include "syn_dropping_listener.h"

namespace nrs {
namespace {

/// Poll `pred` until it holds or `timeout_s` elapses.
bool wait_until(const std::function<bool()>& pred, double timeout_s = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Thread-safe collector for everything a client receives.
struct Collector {
  std::mutex mutex;
  std::vector<SlotResult> slots;
  std::vector<MetricsSnapshot> metrics;
  int hellos = 0;
  int disconnects = 0;

  StreamClientHandlers handlers() {
    StreamClientHandlers h;
    h.on_connected = [this](const HelloInfo&) {
      std::lock_guard lock(mutex);
      ++hellos;
    };
    h.on_slot = [this](const SlotResult& slot) {
      std::lock_guard lock(mutex);
      slots.push_back(slot);
    };
    h.on_metrics = [this](const MetricsSnapshot& snapshot) {
      std::lock_guard lock(mutex);
      metrics.push_back(snapshot);
    };
    h.on_disconnected = [this] {
      std::lock_guard lock(mutex);
      ++disconnects;
    };
    return h;
  }

  std::size_t slot_count() {
    std::lock_guard lock(mutex);
    return slots.size();
  }
  int hello_count() {
    std::lock_guard lock(mutex);
    return hellos;
  }
};

SlotResult synthetic_slot(std::uint64_t index, unsigned n_dcis = 2) {
  SlotResult result;
  result.slot = index;
  result.processing_time_us = 120.0 + static_cast<double>(index);
  for (unsigned i = 0; i < n_dcis; ++i) {
    DecodedDci dci;
    dci.slot = index;
    dci.rnti = static_cast<Rnti>(0x4601 + i);
    dci.grant.rnti = dci.rnti;
    dci.grant.prb_len = 10 + i;
    dci.grant.n_symbols = 12;
    dci.grant.tbs = 4096 + 8 * static_cast<unsigned>(index);
    dci.agg_level = 2;
    result.dcis.push_back(dci);
  }
  return result;
}

StreamClientConfig client_config(std::uint16_t port) {
  StreamClientConfig cfg;
  cfg.port = port;
  return cfg;
}

TEST(Stream, DeliversSlotsMetricsAndEndOfStream) {
  MetricsRegistry registry;
  StreamServerConfig server_cfg;
  server_cfg.metrics_period_slots = 10;
  TelemetryStreamServer server(server_cfg, &registry);
  ASSERT_GT(server.port(), 0);

  Collector collector;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers());
  // The hello frame proves the server registered the client; only then do
  // broadcast frames reach it.
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));

  // The second metrics frame snapshots the registry while slot 19 is
  // pushed; the sender thread counts a frame only once its send returns,
  // so push the rest only after the first frame has been counted.
  std::vector<SlotResult> sent;
  const auto push_until = [&](std::uint64_t end) {
    for (std::uint64_t i = sent.size(); i < end; ++i) {
      sent.push_back(synthetic_slot(i));
      server.on_slot(sent.back());
    }
  };
  push_until(19);
  ASSERT_TRUE(wait_until([&] {
    return registry.snapshot().counter_value("net.frames_sent") > 0;
  }));
  push_until(25);
  server.on_finish();

  ASSERT_TRUE(client.wait_end_of_stream(5.0));
  ASSERT_EQ(collector.slot_count(), sent.size());
  {
    std::lock_guard lock(collector.mutex);
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(collector.slots[i], sent[i]) << "slot " << i;
    }
    // Two metrics frames (after slots 10 and 20), each carrying net.*.
    EXPECT_GE(collector.metrics.size(), 2u);
    EXPECT_GT(collector.metrics.back().counter_value("net.frames_sent"),
              0u);
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.counter_value("net.bytes_sent"), 0u);
  EXPECT_EQ(snap.counter_value("net.client_connects"), 1u);
}

TEST(Stream, DeliversPredictionFrames) {
  TelemetryStreamServer server(StreamServerConfig{});
  std::mutex mutex;
  std::vector<PredictionSet> received;
  int hellos = 0;
  StreamClientHandlers handlers;
  handlers.on_connected = [&](const HelloInfo&) {
    std::lock_guard lock(mutex);
    ++hellos;
  };
  handlers.on_prediction = [&](const PredictionSet& set) {
    std::lock_guard lock(mutex);
    received.push_back(set);
  };
  TelemetryStreamClient client(client_config(server.port()), handlers);
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(mutex);
    return hellos >= 1;
  }));

  PredictionSet set;
  set.cell_index = 2;
  set.slot = 4242;
  set.horizon_slots = 200;
  set.model_version = 1;
  PredictionEntry entry;
  entry.rnti = 0x4601;
  entry.has_actual = true;
  entry.predicted_bps = 3.5e6;
  entry.actual_bps = 3.1e6;
  entry.abs_error_bps = 0.4e6;
  set.entries.push_back(entry);
  server.broadcast_frame(encode_frame(set));

  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(mutex);
    return !received.empty();
  }));
  std::lock_guard lock(mutex);
  EXPECT_EQ(received.front(), set);
}

TEST(Stream, ClientSurvivesServerSideKick) {
  TelemetryStreamServer server(StreamServerConfig{});
  Collector collector;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers());
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));

  server.on_slot(synthetic_slot(0));
  ASSERT_TRUE(wait_until([&] { return collector.slot_count() >= 1; }));

  server.kick_all_clients();
  // The client notices, backs off, reconnects, and gets a fresh hello.
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 2; }));
  ASSERT_TRUE(wait_until([&] { return server.client_count() == 1; }));

  server.on_slot(synthetic_slot(1));
  ASSERT_TRUE(wait_until([&] { return collector.slot_count() >= 2; }));
  {
    std::lock_guard lock(collector.mutex);
    EXPECT_EQ(collector.slots[1].slot, 1u);
    EXPECT_GE(collector.disconnects, 1);
  }
}

TEST(Stream, ClientSurvivesFullServerRestart) {
  StreamServerConfig server_cfg;
  auto server = std::make_unique<TelemetryStreamServer>(server_cfg);
  const std::uint16_t port = server->port();

  Collector collector;
  MetricsRegistry client_registry;
  TelemetryStreamClient client(client_config(port), collector.handlers(),
                               &client_registry);
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));
  server->on_slot(synthetic_slot(7));
  ASSERT_TRUE(wait_until([&] { return collector.slot_count() >= 1; }));
  // The first dial is a connect, not a reconnect.
  EXPECT_EQ(client_registry.snapshot().counter_value(
                "net.client.reconnect_attempts"),
            0u);

  // Kill the server entirely; the client keeps retrying with backoff.
  server.reset();
  ASSERT_TRUE(wait_until([&] { return !client.connected(); }));

  // Bring a new server up on the same port; the hello tells the client
  // where the stream resumes.
  server_cfg.port = port;
  server = std::make_unique<TelemetryStreamServer>(server_cfg);
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 2; },
                         10.0));
  ASSERT_TRUE(wait_until([&] { return server->client_count() == 1; }));
  server->on_slot(synthetic_slot(8));
  ASSERT_TRUE(wait_until([&] { return collector.slot_count() >= 2; }));
  {
    std::lock_guard lock(collector.mutex);
    EXPECT_EQ(collector.slots.back().slot, 8u);
  }
  EXPECT_GT(client_registry.snapshot().counter_value(
                "net.client.reconnect_attempts"),
            0u);
}

TEST(Stream, StopReturnsWhileDialingAHostThatDropsSyns) {
  // A server host that drops SYNs (powered off, partitioned) must not hold
  // the reader thread in connect() for the kernel's SYN retry budget: each
  // dial is abandoned at its bound, counts as a failed attempt and is
  // redialed after the backoff, and stop() returns at once.
  SynDroppingListener unreachable;
  ASSERT_TRUE(unreachable.dropping());
  MetricsRegistry registry;
  TelemetryStreamClient client(client_config(unreachable.port()),
                               StreamClientHandlers{}, &registry);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_GE(registry.snapshot().counter_value("net.client.reconnect_attempts"),
            1u);
  const auto start = std::chrono::steady_clock::now();
  client.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_FALSE(client.connected());
}

TEST(Stream, HeartbeatsKeepIdleConnectionAlive) {
  MetricsRegistry registry;
  TelemetryStreamServer server(StreamServerConfig{}, &registry);

  Collector collector;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers());
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));

  // Idle for longer than the read timeout: without heartbeats the client
  // would declare the server dead and reconnect.
  std::this_thread::sleep_for(kStreamReadTimeout + std::chrono::seconds(1));
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(collector.hello_count(), 1) << "no reconnect should happen";
  EXPECT_GT(registry.snapshot().counter_value("net.heartbeats_sent"), 0u);
}

/// A TCP consumer that connects and then never reads.  Its receive buffer
/// is shrunk before the handshake, so the server's socket buffers fill
/// after a few frames: the sender thread blocks and the per-client queue
/// hits its bound.
class StuckConsumer {
 public:
  explicit StuckConsumer(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    const int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~StuckConsumer() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Drive `server` until a full client queue sheds a frame, which means
/// the client's sender is blocked in a send (big frames so the socket
/// buffers fill fast); returns net.frames_dropped.drop_oldest.
std::uint64_t drive_until_shedding(TelemetryStreamServer& server,
                                   const MetricsRegistry& registry) {
  const auto dropped = [&] {
    return registry.snapshot().counter_value("net.frames_dropped.drop_oldest");
  };
  for (std::uint64_t i = 0; i < 3000 && dropped() == 0; ++i) {
    server.on_slot(synthetic_slot(i, /*n_dcis=*/128));
  }
  return dropped();
}

TEST(Stream, SlowClientTriggersDropOldestPolicy) {
  MetricsRegistry registry;
  TelemetryStreamServer server(StreamServerConfig{}, &registry);
  StuckConsumer consumer(server.port());
  ASSERT_TRUE(consumer.connected());
  ASSERT_TRUE(wait_until([&] { return server.client_count() == 1; }));

  EXPECT_GT(drive_until_shedding(server, registry), 0u);
  // stop() wakes the sender blocked in its send instead of waiting out
  // the send bound.
  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kSendTimeout / 2);
}

TEST(Stream, StuckConsumerIsDroppedBesideAHealthyClient) {
  // A consumer that stops reading holds a sender thread in a blocked send.
  // Once it has accepted no byte for kSendTimeout the send fails and the
  // server drops it; a healthy client beside it receives every slot.
  MetricsRegistry registry;
  TelemetryStreamServer server(StreamServerConfig{}, &registry);
  StuckConsumer stuck(server.port());
  ASSERT_TRUE(stuck.connected());
  ASSERT_TRUE(wait_until([&] { return server.client_count() == 1; }));
  ASSERT_GT(drive_until_shedding(server, registry), 0u);

  Collector collector;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers());
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));
  std::vector<std::uint64_t> sent;
  const auto push = [&] {
    sent.push_back(100000 + sent.size());
    server.on_slot(synthetic_slot(sent.back()));
  };
  // Over Linux loopback, with the stuck consumer's small receive buffer,
  // the bound fires about three kSendTimeout periods after the burst (the
  // kernel frees send-buffer room once more in between).
  const auto deadline = std::chrono::steady_clock::now() + 4 * kSendTimeout;
  while (server.client_count() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    push();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(server.client_count(), 1u) << "the stuck consumer was kept";
  EXPECT_GE(registry.snapshot().counter_value("net.send_errors"), 1u);
  EXPECT_TRUE(wait_until([&] {
    return registry.snapshot().counter_value("net.client_disconnects") >= 1;
  }));

  for (int i = 0; i < 5; ++i) {
    push();
  }
  ASSERT_TRUE(
      wait_until([&] { return collector.slot_count() == sent.size(); }));
  std::lock_guard lock(collector.mutex);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(collector.slots[i].slot, sent[i]) << "slot " << i;
  }
  EXPECT_EQ(collector.hellos, 1) << "the healthy client never reconnected";
}

// ---- Request/response queries over the wire ---------------------------

TEST(StreamQuery, AnswersMatchDirectExecution) {
  // A store with known content: one cell series plus two UE series.
  HistoryStore store;
  StoreSeries* spare = store.series(
      SeriesKey{0, kStoreCellRnti, StoreMetric::kCellSparePrbs});
  StoreSeries* ue_a =
      store.series(SeriesKey{0, 0x4601, StoreMetric::kDlBits});
  StoreSeries* ue_b =
      store.series(SeriesKey{0, 0x4602, StoreMetric::kDlBits});
  ASSERT_NE(spare, nullptr);
  for (std::uint64_t slot = 0; slot < 200; ++slot) {
    spare->append(slot, 50.0 - static_cast<double>(slot % 10));
    ue_a->append(slot, 4096.0);
    ue_b->append(slot, 8192.0);
  }

  MetricsRegistry registry;
  StreamServerConfig server_cfg;
  server_cfg.query_handler = history_query_handler(store);
  TelemetryStreamServer server(server_cfg, &registry);

  Collector collector;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers());
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));

  QueryRequest range;
  range.kind = QueryKind::kRange;
  range.rnti = 0x4601;
  range.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
  range.slot_from = 50;
  range.slot_to = 60;
  const auto remote_range = client.query(range, 5.0);
  ASSERT_TRUE(remote_range.has_value());
  EXPECT_EQ(remote_range->status, QueryStatus::kOk);
  // The wire answer must equal local execution bar the correlation id,
  // which the client assigns.
  QueryResponse local = run_query(store, range);
  local.correlation_id = remote_range->correlation_id;
  EXPECT_EQ(*remote_range, local);
  ASSERT_EQ(remote_range->rows.size(), 10u);
  EXPECT_EQ(remote_range->rows.front().slot, 50u);

  QueryRequest agg;
  agg.kind = QueryKind::kAggregate;
  agg.rnti = kStoreCellRnti;
  agg.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
  agg.slot_from = 0;
  agg.slot_to = 200;
  agg.bucket_slots = 50;
  const auto remote_agg = client.query(agg, 5.0);
  ASSERT_TRUE(remote_agg.has_value());
  ASSERT_EQ(remote_agg->buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(remote_agg->buckets[0].avg, 45.5);
  EXPECT_DOUBLE_EQ(remote_agg->buckets[0].max, 50.0);

  QueryRequest top;
  top.kind = QueryKind::kTopK;
  top.cell = kStoreAnyCell;
  top.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
  top.slot_from = 0;
  top.slot_to = 200;
  top.k = 2;
  const auto remote_top = client.query(top, 5.0);
  ASSERT_TRUE(remote_top.has_value());
  ASSERT_EQ(remote_top->ranking.size(), 2u);
  EXPECT_EQ(remote_top->ranking[0].rnti, 0x4602);
  EXPECT_DOUBLE_EQ(remote_top->ranking[0].score, 8192.0);

  // Errors travel as statuses, not dead connections.
  QueryRequest bad = range;
  bad.slot_to = bad.slot_from;
  const auto remote_bad = client.query(bad, 5.0);
  ASSERT_TRUE(remote_bad.has_value());
  EXPECT_EQ(remote_bad->status, QueryStatus::kBadRequest);
  QueryRequest missing = range;
  missing.rnti = 0x1234;
  const auto remote_missing = client.query(missing, 5.0);
  ASSERT_TRUE(remote_missing.has_value());
  EXPECT_EQ(remote_missing->status, QueryStatus::kNotFound);
  EXPECT_TRUE(client.connected());

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("query.requests"), 5u);
  EXPECT_EQ(snap.counter_value("query.rejected"), 0u);
}

TEST(StreamQuery, NoHandlerMeansUnavailableNotSilence) {
  TelemetryStreamServer server(StreamServerConfig{});
  Collector collector;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers());
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));

  QueryRequest request;
  request.kind = QueryKind::kRange;
  request.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
  request.slot_from = 0;
  request.slot_to = 10;
  const auto response = client.query(request, 5.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, QueryStatus::kUnavailable);
  EXPECT_TRUE(client.connected()) << "a rejected query must not kill "
                                     "the telemetry subscription";
}

TEST(StreamQuery, SlowHandlerHitsClientTimeout) {
  HistoryStore store;
  StreamServerConfig server_cfg;
  server_cfg.query_handler = [&store](const QueryRequest& request) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return run_query(store, request);
  };
  TelemetryStreamServer server(server_cfg);

  Collector collector;
  MetricsRegistry client_registry;
  TelemetryStreamClient client(client_config(server.port()),
                               collector.handlers(), &client_registry);
  ASSERT_TRUE(wait_until([&] { return collector.hello_count() >= 1; }));

  QueryRequest request;
  request.kind = QueryKind::kRange;
  request.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
  request.slot_from = 0;
  request.slot_to = 10;
  EXPECT_FALSE(client.query(request, 0.05).has_value());
  EXPECT_EQ(client_registry.snapshot().counter_value(
                "net.client.query_timeouts"),
            1u);
  // The late response is dropped silently; the connection stays healthy
  // and later queries still pair up by correlation id.
  const auto again = client.query(request, 5.0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, QueryStatus::kNotFound);
  EXPECT_TRUE(client.connected());
}

// ---- The acceptance bar: remote == local, across a reconnect ---------

struct CapturedRun {
  std::vector<IqBuffer> slots;
  CellConfig cell;
};

const CapturedRun& captured_run() {
  static const CapturedRun run = [] {
    CapturedRun r;
    r.cell = srsran_cell();
    GnbConfig cfg;
    cfg.cell = r.cell;
    cfg.seed = 77;
    GnbSim gnb(std::move(cfg));
    UeConfig ue;
    ue.channel.snr_db = 24.0;
    ue.dl_traffic = std::make_unique<CbrSource>(2e6);
    ue.seed = 2;
    gnb.add_ue(std::move(ue));
    VirtualRadioConfig radio_cfg;
    radio_cfg.n_prb = r.cell.n_prb;
    radio_cfg.channel.snr_db = 26.0;
    VirtualRadio radio(radio_cfg);
    for (int i = 0; i < 400; ++i) {
      r.slots.push_back(radio.capture(gnb.step()));
    }
    return r;
  }();
  return run;
}

TEST(Stream, RemoteReconstructionRowIdenticalAcrossReconnect) {
  const CapturedRun& run = captured_run();
  const std::string local_path = "/tmp/nrs_stream_local.csv";
  const std::string remote_path = "/tmp/nrs_stream_remote.csv";

  NrScopeConfig scope_cfg;
  scope_cfg.n_prb = run.cell.n_prb;
  scope_cfg.scs = run.cell.scs;
  NrScopePipeline pipeline(scope_cfg);

  auto server = std::make_shared<TelemetryStreamServer>(
      StreamServerConfig{}, &pipeline.metrics_registry());
  pipeline.add_sink(std::make_shared<TelemetryLogWriter>(local_path));
  pipeline.add_sink(server);

  // Remote side: reconstruct the exact TelemetryLogWriter file from the
  // frames, and remember the highest slot seen so the test can hold the
  // feed at the kick point.
  std::ofstream remote(remote_path);
  remote << TelemetryLogWriter::header() << '\n';
  std::mutex remote_mutex;
  std::uint64_t last_remote_slot = 0;
  int hellos = 0;
  StreamClientHandlers handlers;
  handlers.on_connected = [&](const HelloInfo&) {
    std::lock_guard lock(remote_mutex);
    ++hellos;
  };
  handlers.on_slot = [&](const SlotResult& result) {
    std::lock_guard lock(remote_mutex);
    for (const DecodedDci& dci : result.dcis) {
      remote << TelemetryLogWriter::format_row(dci) << '\n';
    }
    last_remote_slot = result.slot;
  };
  TelemetryStreamClient client(client_config(server->port()), handlers);
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(remote_mutex);
    return hellos >= 1;
  }));

  const std::size_t half = run.slots.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    pipeline.push_slot_wait(pooled_copy(pipeline, run.slots[i]));
  }
  // Wait until the remote consumer is fully caught up, then force a
  // server-side disconnect and wait for the automatic resubscription.
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(remote_mutex);
    return last_remote_slot == half - 1;
  }, 20.0));
  server->kick_all_clients();
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(remote_mutex);
    return hellos >= 2;
  }, 10.0));
  ASSERT_TRUE(wait_until([&] { return server->client_count() == 1; }));

  for (std::size_t i = half; i < run.slots.size(); ++i) {
    pipeline.push_slot_wait(pooled_copy(pipeline, run.slots[i]));
  }
  pipeline.stop();
  ASSERT_TRUE(client.wait_end_of_stream(20.0));
  {
    std::lock_guard lock(remote_mutex);
    remote.flush();
  }

  // Row-identical: byte-for-byte equal files.
  std::ifstream local_in(local_path);
  std::ifstream remote_in(remote_path);
  std::stringstream local_text;
  std::stringstream remote_text;
  local_text << local_in.rdbuf();
  remote_text << remote_in.rdbuf();
  EXPECT_GT(local_text.str().size(), std::string(
      TelemetryLogWriter::header()).size())
      << "the run must produce telemetry rows";
  EXPECT_EQ(local_text.str(), remote_text.str());

  const MetricsSnapshot snap = pipeline.metrics();
  EXPECT_GT(snap.counter_value("net.frames_sent"), 0u);
  EXPECT_GE(snap.counter_value("net.client_connects"), 2u);
  std::remove(local_path.c_str());
  std::remove(remote_path.c_str());
}

// The ISSUE's concurrency bar: a pipeline ingesting into the store at
// full slot rate while 8 wire clients hammer queries.  Every response
// must be well-formed and internally consistent; fan-out must still
// deliver every slot.
TEST(StreamQuery, EightClientsQueryWhilePipelineIngests) {
  const CapturedRun& run = captured_run();
  HistoryStoreConfig store_cfg;
  store_cfg.rows_per_segment = 64;  // constant recycling under the readers
  store_cfg.segments_per_series = 4;
  // Declared before the pipeline: the collector thread appends into the
  // store until the pipeline is stopped, so the store must outlive it.
  MetricsRegistry store_registry;
  HistoryStore store(store_cfg, &store_registry);

  NrScopeConfig scope_cfg;
  scope_cfg.n_prb = run.cell.n_prb;
  scope_cfg.scs = run.cell.scs;
  NrScopePipeline pipeline(scope_cfg);
  StoreSinkConfig sink_cfg;
  sink_cfg.n_prb = run.cell.n_prb;

  StreamServerConfig server_cfg;
  server_cfg.query_handler = history_query_handler(store);
  auto server = std::make_shared<TelemetryStreamServer>(
      server_cfg, &pipeline.metrics_registry());
  pipeline.add_sink("store",
                    std::make_shared<HistoryStoreSink>(store, sink_cfg));
  pipeline.add_sink("stream", server);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> malformed{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      Collector collector;
      TelemetryStreamClient client(client_config(server->port()),
                                   collector.handlers());
      if (!wait_until([&] { return collector.hello_count() >= 1; })) {
        malformed.fetch_add(1);
        return;
      }
      std::uint64_t from = 0;
      while (!done.load()) {
        QueryRequest request;
        if (c % 2 == 0) {
          request.kind = QueryKind::kAggregate;
          request.rnti = kStoreCellRnti;
          request.metric =
              static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
          request.bucket_slots = 32;
        } else {
          request.kind = QueryKind::kTopK;
          request.cell = kStoreAnyCell;
          request.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
          request.k = 4;
        }
        request.slot_from = from;
        request.slot_to = from + 256;
        const auto response = client.query(request, 5.0);
        if (!response.has_value()) {
          continue;  // timed out against a busy pool: retry
        }
        if (response->status == QueryStatus::kOk) {
          for (const QueryBucket& bucket : response->buckets) {
            if (bucket.count == 0 || bucket.max > 300.0 ||
                bucket.avg > bucket.max) {
              malformed.fetch_add(1);
            }
          }
          for (const TopKEntry& entry : response->ranking) {
            if (entry.rows == 0) {
              malformed.fetch_add(1);
            }
          }
          answered.fetch_add(1);
        } else if (response->status != QueryStatus::kNotFound) {
          malformed.fetch_add(1);
        }
        from += 64;
        if (from > 300) {
          from = 0;
        }
      }
    });
  }

  for (const IqBuffer& samples : run.slots) {
    pipeline.push_slot_wait(pooled_copy(pipeline, samples));
  }
  // Keep querying after ingest stops (the store stays hot), then stop the
  // clients before stop() — end-of-stream ends their subscriptions.
  ASSERT_TRUE(wait_until([&] { return answered.load() >= 50; }, 20.0));
  done.store(true);
  for (auto& t : clients) {
    t.join();
  }
  // Join the collector before the store can go out of scope.
  pipeline.stop();

  EXPECT_EQ(malformed.load(), 0u);
  const MetricsSnapshot snap = pipeline.metrics();
  EXPECT_GT(store_registry.snapshot().counter_value("store.rows_ingested"),
            0u);
  EXPECT_GE(snap.counter_value("query.requests"), answered.load());
  EXPECT_EQ(snap.counter_value("query.errors"), 0u);
}

// ---- Version negotiation ---------------------------------------------

/// `frame` re-stamped with a foreign protocol version (header bytes 4-5),
/// the way an older or newer peer would send it.
std::vector<std::uint8_t> with_version(std::vector<std::uint8_t> frame,
                                       std::uint16_t version) {
  frame[4] = static_cast<std::uint8_t>(version);
  frame[5] = static_cast<std::uint8_t>(version >> 8);
  return frame;
}

/// Raw loopback socket speaking an explicit wire version.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) : fd_(dial_tcp("127.0.0.1", port)) {}
  ~RawPeer() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void send_frame(const std::vector<std::uint8_t>& frame) const {
    ASSERT_EQ(::send(fd_, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
  }

  /// Read frames until `type` arrives (true), EOF, or the deadline.
  bool read_until(FrameType type, Frame& out, double timeout_s = 5.0) {
    const auto deadline = deadline_after(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      while (auto frame = parser_.next()) {
        if (frame->type == type) {
          out = *frame;
          return true;
        }
      }
      if (read_some() == RecvStatus::kClosed) {
        return false;  // server closed on us
      }
    }
    return false;
  }

  /// True when the server has closed the connection.
  bool wait_eof(double timeout_s = 5.0) {
    const auto deadline = deadline_after(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (read_some() == RecvStatus::kClosed) {
        return true;
      }
    }
    return false;
  }

 private:
  static std::chrono::steady_clock::time_point deadline_after(double s) {
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(s));
  }

  /// Wait up to 100 ms for the socket, then one recv_frames().
  RecvStatus read_some() {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/100) <= 0) {
      return RecvStatus::kWouldBlock;
    }
    return recv_frames(fd_, parser_);
  }

  int fd_ = -1;
  FrameParser parser_;
};

TEST(StreamVersion, AdjacentVersionsGetStructuredReject) {
  // Only kWireVersion is served: a query from one version back or one
  // ahead is answered with the structured reject, then a hang-up — never
  // with service a mismatched payload layout could not support.
  MetricsRegistry registry;
  StreamServerConfig cfg;
  cfg.query_handler = [](const QueryRequest& request) {
    QueryResponse response;
    response.correlation_id = request.correlation_id;
    return response;
  };
  TelemetryStreamServer server(cfg, &registry);

  for (const int version : {kWireVersion - 1, kWireVersion + 1}) {
    RawPeer peer(server.port());
    ASSERT_TRUE(peer.connected());
    QueryRequest request;
    request.correlation_id = 7777;
    peer.send_frame(with_version(encode_frame(request),
                                 static_cast<std::uint16_t>(version)));

    Frame reject_frame;
    ASSERT_TRUE(peer.read_until(FrameType::kUnsupportedVersion, reject_frame))
        << "version " << version;
    const auto reject = decode_payload<VersionReject>(reject_frame.payload);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->rejected, version);
    EXPECT_EQ(reject->min_version, kWireVersion);
    EXPECT_EQ(reject->max_version, kWireVersion);
    EXPECT_TRUE(peer.wait_eof()) << "version " << version;
  }
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("net.version_rejects"), 2u);
  EXPECT_EQ(snap.counter_value("query.requests"), 0u);
}

TEST(StreamVersion, TooOldClientGetsStructuredRejectThenDisconnect) {
  MetricsRegistry registry;
  TelemetryStreamServer server(StreamServerConfig{}, &registry);

  RawPeer peer(server.port());
  ASSERT_TRUE(peer.connected());
  // Speak v1, which predates the query frames.
  peer.send_frame(with_version(encode_frame(FrameType::kHeartbeat, {}), 1));

  Frame reject_frame;
  ASSERT_TRUE(peer.read_until(FrameType::kUnsupportedVersion, reject_frame));
  const auto reject = decode_payload<VersionReject>(reject_frame.payload);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->rejected, 1);
  EXPECT_EQ(reject->min_version, kWireVersion);
  EXPECT_EQ(reject->max_version, kWireVersion);
  EXPECT_FALSE(reject->message.empty());
  // The reject is a goodbye, not a negotiation: the server hangs up.
  EXPECT_TRUE(peer.wait_eof());
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("net.version_rejects"), 1u);
}

TEST(StreamVersion, ClientRecordsProtocolErrorAndStopsReconnecting) {
  // Fake "future coordinator": a plain listener that answers any client
  // with kUnsupportedVersion.  The client must surface a clear error and
  // must NOT keep reconnecting (a version mismatch never heals).
  const TcpListener listener = listen_tcp("127.0.0.1", 0);

  std::atomic<int> accepts{0};
  std::atomic<bool> stop{false};
  std::thread fake_server([&] {
    while (!stop.load()) {
      pollfd pfd{listener.fd, POLLIN, 0};
      if (::poll(&pfd, 1, /*timeout_ms=*/100) <= 0) {
        continue;
      }
      const int fd = accept_tcp(listener.fd);
      if (fd < 0) {
        continue;
      }
      ++accepts;
      VersionReject reject;
      reject.rejected = kWireVersion;
      reject.message = "speak version 99";
      const auto frame = encode_frame(reject);
      (void)send_all(fd, frame.data(), frame.size());
      ::close(fd);
    }
  });

  std::atomic<int> protocol_errors{0};
  StreamClientHandlers handlers;
  handlers.on_protocol_error = [&](const VersionReject&) {
    ++protocol_errors;
  };
  TelemetryStreamClient client(client_config(listener.port), handlers);
  ASSERT_TRUE(wait_until([&] { return protocol_errors.load() >= 1; }));
  EXPECT_FALSE(client.protocol_error().empty());
  EXPECT_NE(client.protocol_error().find("rejected"), std::string::npos);

  // No reconnect storm: the accept count stays where it was.
  const int accepts_at_reject = accepts.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(accepts.load(), accepts_at_reject);
  EXPECT_EQ(protocol_errors.load(), 1);

  client.stop();
  stop.store(true);
  fake_server.join();
  ::close(listener.fd);
}

}  // namespace
}  // namespace nrs
