// The link layer on real sockets.  send_exact(): complete sends report
// kOk, a peer that vanished reports kFailed with nothing written, and —
// the case that used to truncate frames silently — a wedged peer behind a
// full send buffer and an SO_SNDTIMEO deadline reports kPartial/kFailed,
// never kOk, so the caller knows the stream is torn and drops the
// connection.  listen_tcp/accept_tcp/dial_tcp: the bound port, the socket
// options every link carries, and a dial that fails at once on a refusal
// and at kDialTimeout on a host that drops SYNs.  recv_frames(): data,
// would-block and closed.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/socket_io.h"
#include "syn_dropping_listener.h"

namespace nrs {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) {
      ::close(a);
    }
    if (b >= 0) {
      ::close(b);
    }
  }
};

TEST(SocketIo, CompleteSendReportsOkAndDeliversBytes) {
  SocketPair pair;
  std::vector<std::uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_EQ(send_exact(pair.a, data.data(), data.size()), SendResult::kOk);
  std::vector<std::uint8_t> received(data.size());
  std::size_t got = 0;
  while (got < received.size()) {
    const ssize_t n =
        ::recv(pair.b, received.data() + got, received.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, data);
}

TEST(SocketIo, ClosedPeerReportsFailureNotOk) {
  SocketPair pair;
  ::close(pair.b);
  pair.b = -1;
  std::vector<std::uint8_t> data(1024, 0x5A);
  // Depending on buffering the first send may land in the dead socket's
  // buffer; keep writing and the failure must surface without SIGPIPE.
  SendResult result = SendResult::kOk;
  for (int i = 0; i < 64 && result == SendResult::kOk; ++i) {
    result = send_exact(pair.a, data.data(), data.size());
  }
  EXPECT_NE(result, SendResult::kOk);
}

TEST(SocketIo, WedgedPeerWithSendTimeoutNeverReportsOk) {
  // The coordinator's frame-writing regression: a tiny send buffer, a
  // peer that never reads, and an SO_SNDTIMEO deadline.  Filling the pipe
  // MUST eventually return kPartial (bytes went out, then the deadline
  // hit mid-buffer) or kFailed — reporting kOk here is the silent
  // mid-stream truncation this API exists to prevent.
  SocketPair pair;
  const int tiny = 4096;
  ::setsockopt(pair.a, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  timeval timeout{};
  timeout.tv_usec = 50 * 1000;  // 50 ms
  ASSERT_EQ(::setsockopt(pair.a, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  // Larger than any plausible kernel buffering for the pair.
  std::vector<std::uint8_t> frame(16 * 1024 * 1024, 0xA5);
  const SendResult result = send_exact(pair.a, frame.data(), frame.size());
  EXPECT_NE(result, SendResult::kOk);
  // And specifically: some bytes DID go out before the deadline, so this
  // is the torn-frame case, distinct from kFailed.
  EXPECT_EQ(result, SendResult::kPartial);
}

TEST(SocketIo, SendAllMatchesSendExactOk) {
  SocketPair pair;
  const std::uint8_t byte = 0x42;
  EXPECT_TRUE(send_all(pair.a, &byte, 1));
  ::close(pair.b);
  pair.b = -1;
  bool ok = true;
  std::vector<std::uint8_t> data(1024, 0);
  for (int i = 0; i < 64 && ok; ++i) {
    ok = send_all(pair.a, data.data(), data.size());
  }
  EXPECT_FALSE(ok);
}

TEST(SocketIo, ListenReportsBoundPortAndRejectsBadAddress) {
  const TcpListener listener = listen_tcp("127.0.0.1", 0);
  ASSERT_GE(listener.fd, 0);
  EXPECT_NE(listener.port, 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&bound),
                          &len),
            0);
  EXPECT_EQ(ntohs(bound.sin_port), listener.port);
  ::close(listener.fd);
  EXPECT_THROW(listen_tcp("not-an-address", 0), std::runtime_error);
}

bool no_delay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  return ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) == 0 &&
         value != 0;
}

timeval send_timeout(int fd) {
  timeval value{};
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &value, &len), 0);
  return value;
}

TEST(SocketIo, DialAndAcceptCarryTheLinkOptions) {
  const TcpListener listener = listen_tcp("127.0.0.1", 0);
  const int dialed = dial_tcp("127.0.0.1", listener.port);
  ASSERT_GE(dialed, 0);
  EXPECT_TRUE(no_delay(dialed));
  EXPECT_EQ(send_timeout(dialed).tv_sec, kSendTimeout.count());
  // The dialed socket is blocking again once the handshake is done.
  EXPECT_EQ(::fcntl(dialed, F_GETFL, 0) & O_NONBLOCK, 0);

  const int accepted = accept_tcp(listener.fd);
  ASSERT_GE(accepted, 0);
  EXPECT_TRUE(no_delay(accepted));
  EXPECT_EQ(send_timeout(accepted).tv_sec, kSendTimeout.count());
  for (const int fd : {dialed, accepted, listener.fd}) {
    ::close(fd);
  }
}

TEST(SocketIo, DialToClosedPortFailsAtOnce) {
  const TcpListener listener = listen_tcp("127.0.0.1", 0);
  ::close(listener.fd);  // nothing listens on the port any more
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(dial_tcp("127.0.0.1", listener.port), -1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, kDialTimeout / 2);
  EXPECT_EQ(dial_tcp("not-an-address", listener.port), -1);
}

TEST(SocketIo, DialToSynDroppingHostIsAbandonedAtTheBound) {
  SynDroppingListener unreachable;
  ASSERT_TRUE(unreachable.dropping());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(dial_tcp("127.0.0.1", unreachable.port()), -1);
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_GE(took, kDialTimeout);
  EXPECT_LT(took, std::chrono::seconds(1));
}

TEST(SocketIo, RecvReportsDataWouldBlockAndClosed) {
  SocketPair pair;
  FrameParser parser;
  EXPECT_EQ(recv_frames(pair.b, parser), RecvStatus::kWouldBlock);

  const std::vector<std::uint8_t> frame =
      encode_frame(FrameType::kHeartbeat, {});
  ASSERT_TRUE(send_all(pair.a, frame.data(), frame.size()));
  std::size_t bytes = 0;
  EXPECT_EQ(recv_frames(pair.b, parser, &bytes), RecvStatus::kData);
  EXPECT_EQ(bytes, frame.size());
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameType::kHeartbeat);

  ::close(pair.a);
  pair.a = -1;
  EXPECT_EQ(recv_frames(pair.b, parser), RecvStatus::kClosed);
}

}  // namespace
}  // namespace nrs
