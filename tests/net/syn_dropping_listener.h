// A loopback endpoint that drops SYNs, the way a powered-off or
// partitioned host does: a listener that never accepts, with its accept
// queue filled.  Linux queues backlog + 1 completed handshakes on a
// listener and drops every further SYN, so a dial to it neither connects
// nor is refused; only the dialer's own bound ends it.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket_io.h"

namespace nrs {

class SynDroppingListener {
 public:
  SynDroppingListener() : listener_(listen_tcp("127.0.0.1", 0)) {
    // Fill the queue until a dial is abandoned at kDialTimeout.
    for (int i = 0; i < 4 * kListenBacklog && !dropping_; ++i) {
      const int fd = dial_tcp("127.0.0.1", listener_.port);
      if (fd < 0) {
        dropping_ = true;
      } else {
        fillers_.push_back(fd);
      }
    }
  }
  ~SynDroppingListener() {
    for (const int fd : fillers_) {
      ::close(fd);
    }
    ::close(listener_.fd);
  }
  SynDroppingListener(const SynDroppingListener&) = delete;
  SynDroppingListener& operator=(const SynDroppingListener&) = delete;

  /// True once a dial to the endpoint went unanswered.
  [[nodiscard]] bool dropping() const { return dropping_; }
  [[nodiscard]] std::uint16_t port() const { return listener_.port; }
  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_.port);
  }

 private:
  TcpListener listener_;
  std::vector<int> fillers_;
  bool dropping_ = false;
};

}  // namespace nrs
