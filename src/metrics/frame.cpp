#include "metrics/frame.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace maestro::metrics::frame {

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-conversation must surface as
    // EPIPE (handled by every caller), never as a process-killing SIGPIPE.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

int read_exact(int fd, char* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

bool write_frame(int fd, std::string_view payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char hdr[4] = {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
                 static_cast<char>((len >> 16) & 0xff), static_cast<char>((len >> 24) & 0xff)};
  // Header and payload leave in one sendmsg: one syscall and one reader
  // wakeup per frame. A short send finishes through write_all.
  iovec iov[2] = {{hdr, sizeof hdr}, {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  ssize_t sent;
  do {
    sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) return false;
  const auto done = static_cast<std::size_t>(sent);
  if (done < sizeof hdr) {
    return write_all(fd, hdr + done, sizeof hdr - done) &&
           write_all(fd, payload.data(), payload.size());
  }
  return write_all(fd, payload.data() + (done - sizeof hdr), payload.size() - (done - sizeof hdr));
}

int read_frame(int fd, std::size_t max_bytes, std::string* payload) {
  char hdr[4];
  const int h = read_exact(fd, hdr, 4);
  if (h <= 0) return h;
  const std::uint32_t len = static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[0])) |
                            (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[1])) << 8) |
                            (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[2])) << 16) |
                            (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[3])) << 24);
  if (len > max_bytes) return -1;
  payload->resize(len);
  return read_exact(fd, payload->data(), len) == 1 ? 1 : -1;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool set_io_timeout(int fd, double ms) {
  timeval tv{};
  if (ms > 0.0) {
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(std::fmod(ms, 1000.0) * 1000.0);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // sub-ms floor
  }
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0 &&
         ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
}

bool Listener::start(const std::string& path, int backlog, std::function<void(int fd)> handler) {
  if (running()) return true;
  listen_fd_ = listen_unix(path, backlog);
  if (listen_fd_ < 0) return false;
  path_ = path;
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Listener::stop() {
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (!was_running) return;
  std::list<Connection> live;
  {
    // Unblock every reader still parked in read(); each closes its own fd.
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Connection& c : connections_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    }
    live.swap(connections_);  // list nodes keep their addresses
  }
  for (Connection& c : live) c.thread.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(path_.c_str());
}

std::size_t Listener::tracked_connections() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

void Listener::accept_loop() {
  while (running()) {
    {
      // Reap: a done reader has released mu_ for the last time, so joining
      // it here cannot deadlock and waits only for its thread to exit.
      const std::lock_guard<std::mutex> lock(mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if (!it->done) {
          ++it;
          continue;
        }
        it->thread.join();
        it = connections_.erase(it);
      }
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;  // timeout or EINTR: re-check running()
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    Connection& c = connections_.emplace_back();
    c.fd = fd;
    // The reader's final lock waits until `thread` is assigned.
    c.thread = std::thread([this, &c, fd] {
      handler_(fd);
      const std::lock_guard<std::mutex> inner(mu_);
      ::close(fd);
      c.fd = -1;
      c.done = true;
    });
  }
}

}  // namespace maestro::metrics::frame
