#include "net/socket_io.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace nrs {

namespace {

bool ipv4_address(const std::string& host, std::uint16_t port,
                  sockaddr_in& addr) {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

void set_link_options(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = kSendTimeout.count();
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

}  // namespace

TcpListener listen_tcp(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  if (!ipv4_address(address, port, addr)) {
    throw std::runtime_error("listen_tcp: bad bind address " + address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("listen_tcp: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, kListenBacklog) != 0) {
    ::close(fd);
    throw std::runtime_error("listen_tcp: cannot listen on " + address + ":" +
                             std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  return TcpListener{fd, ntohs(bound.sin_port)};
}

int accept_tcp(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    return -1;
  }
  set_link_options(fd);
  return fd;
}

int dial_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  if (!ipv4_address(host, port, addr)) {
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  // Connect non-blocking so the handshake can be abandoned at the bound
  // (a signal that interrupts the wait fails the dial too), then hand back
  // an ordinary blocking socket.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  pollfd pfd{fd, POLLOUT, 0};
  int error = 0;
  socklen_t len = sizeof(error);
  const bool connected =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0 ||
      (errno == EINPROGRESS &&
       ::poll(&pfd, 1, static_cast<int>(kDialTimeout.count())) > 0 &&
       ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) == 0 &&
       error == 0);
  if (!connected) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);
  set_link_options(fd);
  return fd;
}

RecvStatus recv_frames(int fd, FrameParser& parser, std::size_t* bytes) {
  std::uint8_t buf[65536];
  ssize_t n = 0;
  do {
    n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    return RecvStatus::kWouldBlock;
  }
  if (n <= 0) {
    return RecvStatus::kClosed;
  }
  parser.feed({buf, static_cast<std::size_t>(n)});
  if (bytes != nullptr) {
    *bytes = static_cast<std::size_t>(n);
  }
  return RecvStatus::kData;
}

bool reply_version_reject(int fd, const FrameParser& parser) {
  const auto rejected = parser.rejected_version();
  if (!rejected) {
    return false;
  }
  VersionReject reject;
  reject.rejected = *rejected;
  reject.message = parser.error_message();
  const std::vector<std::uint8_t> frame = encode_frame(reject);
  send_all(fd, frame.data(), frame.size());
  return true;
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

SendResult send_exact(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return sent == 0 ? SendResult::kFailed : SendResult::kPartial;
    }
    if (n == 0) {
      // A 0-byte send() on a stream socket should not happen, but treat
      // it as failure rather than spinning forever.
      return sent == 0 ? SendResult::kFailed : SendResult::kPartial;
    }
    sent += static_cast<std::size_t>(n);
  }
  return SendResult::kOk;
}

}  // namespace nrs
