// The one TCP link layer under every framed peer: the stream server and
// client, the fleet coordinator (worker links and a standby's link to its
// primary) and the fleet worker listen, accept, dial and read here, so
// every link carries the same socket options, and a dial to a host that
// drops SYNs is abandoned at kDialTimeout instead of freezing the dialing
// thread for the kernel's SYN retry budget.  When to redial is
// common/backoff.h's RedialSchedule.
//
// The crucial rule on an SO_SNDTIMEO-bounded socket: a short write that
// cannot be completed leaves HALF A FRAME in the peer's stream, so the
// connection must be treated as broken — writing the next frame after a
// partial send would land mid-frame and corrupt the protocol stream.
// send_exact() reports kPartial distinctly from kFailed so callers (and
// tests) can tell a torn stream from a frame that never hit the wire at
// all; either way the only safe follow-up is to close the connection.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "net/wire.h"

namespace nrs {

/// Pending connections a listener queues before accept().
inline constexpr int kListenBacklog = 16;
/// A dial whose handshake has not completed by then is abandoned and
/// counts as a failed attempt (the caller backs off and may rotate to its
/// next address).  Covers loopback, LAN and ordinary WAN round trips.
inline constexpr std::chrono::milliseconds kDialTimeout{250};
/// How long one blocking send may wait on a peer that stopped reading
/// before it fails (SO_SNDTIMEO) instead of wedging the sending thread.
/// Every dialed and every accepted socket carries it.
inline constexpr std::chrono::seconds kSendTimeout{2};

/// A telemetry stream server heartbeats a client after this long without
/// a frame for it, so the client can tell a quiet cell from a dead server.
inline constexpr std::chrono::milliseconds kStreamHeartbeat{500};
/// A stream client that reads no frame (not even a heartbeat) for this
/// long declares the connection dead and redials.
inline constexpr std::chrono::seconds kStreamReadTimeout{2};
static_assert(kStreamReadTimeout >= 4 * kStreamHeartbeat,
              "a stream client must outwait several missed heartbeats");

/// A listening socket and the port it is bound to.
struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;  ///< resolves a requested port 0
};

/// Bind `address:port` (port 0 = ephemeral) and listen.  Throws
/// std::runtime_error on an address that is not IPv4 dotted-quad or when
/// the bind or listen fails.
TcpListener listen_tcp(const std::string& address, std::uint16_t port);

/// Accept one pending connection (blocking on a blocking listener) with
/// TCP_NODELAY and the kSendTimeout bound; -1 when accept() fails.
int accept_tcp(int listen_fd);

/// Connect to `host:port`, giving up after kDialTimeout.  The returned
/// socket is blocking, with TCP_NODELAY and the kSendTimeout bound; -1 on
/// a bad address, a refusal or an abandoned handshake.
int dial_tcp(const std::string& host, std::uint16_t port);

/// What one recv_frames() call saw on the socket.
enum class RecvStatus : std::uint8_t {
  kData,        ///< bytes were fed to the parser
  kWouldBlock,  ///< nothing to read right now
  kClosed,      ///< EOF or a hard error: the link is gone
};

/// One non-blocking recv() into `parser` (EINTR is retried).  When
/// `bytes` is given it receives the count fed.
RecvStatus recv_frames(int fd, FrameParser& parser,
                       std::size_t* bytes = nullptr);

/// When `parser` stopped on a protocol-version mismatch, send the peer the
/// structured kUnsupportedVersion reply (best effort) and return true;
/// false for any other parser state.
bool reply_version_reject(int fd, const FrameParser& parser);

/// Split "host:port" (host may be empty for the default 127.0.0.1).
/// False on a missing/invalid port.
bool parse_host_port(const std::string& endpoint, std::string& host,
                     std::uint16_t& port);

enum class SendResult : std::uint8_t {
  kOk = 0,       ///< every byte written
  kFailed = 1,   ///< nothing written (frame never reached the stream)
  kPartial = 2,  ///< short write: the stream now carries a torn frame
};

/// write() the whole buffer, riding out EINTR and benign partial sends.
/// Uses MSG_NOSIGNAL so a vanished peer surfaces as EPIPE, not SIGPIPE.
/// On an SO_SNDTIMEO socket a wedged peer fails the send (EAGAIN) instead
/// of wedging the calling thread; if that happens after some bytes went
/// out the result is kPartial and the connection must be dropped.
SendResult send_exact(int fd, const std::uint8_t* data, std::size_t size);

/// Convenience: true iff the whole buffer was written.  Any false return
/// means the connection is no longer usable for framed traffic.
inline bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  return send_exact(fd, data, size) == SendResult::kOk;
}

}  // namespace nrs
