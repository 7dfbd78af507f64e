#pragma once
// Length-prefixed frame transport over local stream sockets.
//
// One wire format, two services: the METRICS Collector (PR 7) and the
// store::CacheServer both speak 4-byte little-endian length + JSON payload
// frames over AF_UNIX. This header is the shared plumbing — byte-exact
// read/write loops, frame encode/decode, socket setup and deadline helpers —
// so a new service adds message types, not another transport.
//
// All functions are EINTR-safe. With an I/O deadline installed via
// set_io_timeout, a stalled peer surfaces as a read/write error (EAGAIN)
// instead of a hang, which is what lets clients degrade gracefully when a
// server dies mid-request.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace maestro::metrics::frame {

/// Write exactly n bytes; false on any error (including a send timeout).
bool write_all(int fd, const char* data, std::size_t n);

/// Read exactly n bytes. 1 = got them, 0 = clean EOF before the first byte,
/// -1 = error, short read at EOF, or receive timeout.
int read_exact(int fd, char* data, std::size_t n);

/// One frame: 4-byte LE payload length, then the payload bytes.
bool write_frame(int fd, std::string_view payload);

/// 1 = frame in *payload, 0 = clean EOF, -1 = error / oversized frame.
int read_frame(int fd, std::size_t max_bytes, std::string* payload);

/// Connected AF_UNIX stream socket, or -1.
int connect_unix(const std::string& path);

/// Bound + listening AF_UNIX stream socket (unlinks any stale path first),
/// or -1.
int listen_unix(const std::string& path, int backlog);

/// Install a send+receive deadline (SO_SNDTIMEO / SO_RCVTIMEO) so blocking
/// I/O fails instead of hanging. ms <= 0 clears the deadline.
bool set_io_timeout(int fd, double ms);

/// Server lifecycle shared by the Collector and the CacheServer: an AF_UNIX
/// listening socket, an accept thread, and one reader thread per connection
/// running the service's handler. Finished readers are joined as the next
/// connection arrives or on an idle accept poll, so threads and bookkeeping
/// track live connections only. stop() shuts down and joins every live
/// reader; readers close their fd under the lock stop() takes, so a
/// recycled fd number is never touched.
class Listener {
 public:
  Listener() = default;
  ~Listener() { stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen + accept; `handler(fd)` serves one connection, then the
  /// listener closes fd. True if already running, false if the socket
  /// cannot be bound.
  bool start(const std::string& path, int backlog, std::function<void(int fd)> handler);
  /// Stop accepting, unblock and join every connection, unlink the socket.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  /// Reader threads not yet joined (live, or finished and awaiting a reap).
  std::size_t tracked_connections() const;

 private:
  struct Connection {
    int fd = -1;  ///< -1 once the reader has closed it
    bool done = false;
    std::thread thread;
  };
  void accept_loop();

  std::string path_;
  std::function<void(int fd)> handler_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> accepted_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  mutable std::mutex mu_;  ///< guards connections_
  std::list<Connection> connections_;
};

}  // namespace maestro::metrics::frame
