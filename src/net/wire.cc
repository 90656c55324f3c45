#include "net/wire.h"

namespace nrs {

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kSlot: return "slot";
    case FrameType::kMetrics: return "metrics";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kEnd: return "end";
    case FrameType::kFleet: return "fleet";
    case FrameType::kQuery: return "query";
    case FrameType::kQueryResult: return "query_result";
    case FrameType::kWorkerHello: return "worker_hello";
    case FrameType::kLease: return "lease";
    case FrameType::kLeaseAck: return "lease_ack";
    case FrameType::kWorkerHeartbeat: return "worker_heartbeat";
    case FrameType::kLeaseRevoke: return "lease_revoke";
    case FrameType::kUnsupportedVersion: return "unsupported_version";
    case FrameType::kPrediction: return "prediction";
    case FrameType::kCellReportBatch: return "cell_report_batch";
    case FrameType::kStandbyHello: return "standby_hello";
    case FrameType::kReplicaSnapshot: return "replica_snapshot";
    case FrameType::kReplicaEvent: return "replica_event";
    case FrameType::kNotPrimary: return "not_primary";
  }
  return "unknown";
}

const char* to_string(ReplicaEventKind kind) {
  switch (kind) {
    case ReplicaEventKind::kWorkerJoin: return "worker_join";
    case ReplicaEventKind::kWorkerLeave: return "worker_leave";
    case ReplicaEventKind::kLeaseGrant: return "lease_grant";
    case ReplicaEventKind::kLeaseRenew: return "lease_renew";
    case ReplicaEventKind::kLeaseRelease: return "lease_release";
    case ReplicaEventKind::kCellTotals: return "cell_totals";
    case ReplicaEventKind::kStoreRows: return "store_rows";
  }
  return "unknown";
}

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange: return "range";
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kTopK: return "topk";
  }
  return "unknown";
}

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kBadRequest: return "bad-request";
    case QueryStatus::kNotFound: return "not-found";
    case QueryStatus::kUnavailable: return "unavailable";
  }
  return "unknown";
}

// ---- Framing ---------------------------------------------------------

void WireWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void WireWriter::begin_frame(FrameType type) {
  (*this)(kWireMagic, kWireVersion, type, std::uint32_t{0});
}

std::vector<std::uint8_t> WireWriter::take_frame() {
  const auto len = static_cast<std::uint32_t>(out_.size() - kWireHeaderSize);
  for (std::size_t i = 0; i < 4; ++i) {
    out_[kWireHeaderSize - 4 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  return take();
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload) {
  WireWriter w;
  w.begin_frame(type);
  w.bytes(payload);
  return w.take_frame();
}

void FrameParser::feed(std::span<const std::uint8_t> data) {
  if (!error_.empty()) {
    return;
  }
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameParser::next() {
  if (!error_.empty()) {
    return std::nullopt;
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kWireHeaderSize) {
    return std::nullopt;
  }
  WireReader header(std::span<const std::uint8_t>(
      buffer_.data() + consumed_, kWireHeaderSize));
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t type = 0;
  std::uint32_t len = 0;
  header(magic, version, type, len);
  if (magic != kWireMagic) {
    error_ = "bad magic";
    return std::nullopt;
  }
  if (version != kWireVersion) {
    error_ = "unsupported protocol version " + std::to_string(version) +
             " (this peer speaks " + std::to_string(kWireVersion) + ")";
    rejected_version_ = version;
    return std::nullopt;
  }
  if (len > kWireMaxPayload) {
    error_ = "payload length " + std::to_string(len) + " exceeds limit";
    return std::nullopt;
  }
  if (avail < kWireHeaderSize + len) {
    return std::nullopt;  // wait for more bytes
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  const auto* begin = buffer_.data() + consumed_ + kWireHeaderSize;
  frame.payload.assign(begin, begin + len);
  consumed_ += kWireHeaderSize + len;
  return frame;
}

}  // namespace nrs
