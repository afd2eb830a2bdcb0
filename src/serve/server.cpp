#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/spans.hpp"
#include "support/json.hpp"

namespace mpisect::serve {

namespace {

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Best-effort trace-path extraction for sharding. A line that fails to
/// parse still goes to shard 0, where handle_line renders the error.
std::string trace_path_of(const std::string& line) noexcept {
  try {
    const support::JsonValue req = support::json_parse(line);
    const support::JsonValue* t = req.find("trace");
    if (t != nullptr && t->is_string()) return t->string;
  } catch (...) {
  }
  return {};
}

bool write_all(int fd, const std::string& data) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Service& service, int workers) : service_(service) {
  if (workers < 1) workers = 1;
  for (int i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Server::~Server() {
  stop();
  for (auto& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& t : pool_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

int Server::listen(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    sys_fail("bind");
  }
  if (::listen(listen_fd_, 16) < 0) sys_fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    sys_fail("getsockname");
  }

  for (auto& shard : shards_) {
    pool_.emplace_back([this, &shard] { worker_loop(*shard); });
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

void Server::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by stop()
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Shutting the listen socket down is what wakes a blocked accept(). The
  // descriptor itself stays open until the destructor: run() reads
  // listen_fd_ on another thread, and closing it here would let a new
  // socket reuse the number under that accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
  }
}

void Server::worker_loop(Shard& shard) {
  for (;;) {
    std::packaged_task<std::string()> job;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return !shard.jobs.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (shard.jobs.empty()) return;  // stopping and drained
      job = std::move(shard.jobs.front());
      shard.jobs.pop_front();
    }
    job();
  }
}

std::string Server::dispatch(const std::string& line) {
  // Whole-request wall time including the shard queue wait (handle_line's
  // own span covers just the service work — the difference is queueing).
  const obs::Span dispatch_span("serve.dispatch");
  const int shard_idx =
      shard_for(trace_path_of(line), static_cast<int>(shards_.size()));
  Shard& shard = *shards_[static_cast<std::size_t>(shard_idx)];
  std::packaged_task<std::string()> task(
      [this, &line] { return service_.handle_line(line); });
  std::future<std::string> done = task.get_future();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.jobs.push_back(std::move(task));
  }
  shard.cv.notify_one();
  return done.get();
}

void Server::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      if (nl - start > kMaxLineBytes) break;  // refused below
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!write_all(fd, dispatch(line) + "\n")) {
        start = buffer.size();
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      refuse_overlong_line(fd);
      break;
    }
  }
  ::close(fd);
}

void Server::refuse_overlong_line(int fd) {
  (void)write_all(fd, service_.error_reply(
                          "0", "request line longer than " +
                                   std::to_string(kMaxLineBytes) +
                                   " bytes; closing the connection") +
                          "\n");
  // Send EOF after the reply, then discard (a bounded amount of) what the
  // client is still sending: closing with unread input would reset the
  // connection and could destroy the reply before the client reads it.
  ::shutdown(fd, SHUT_WR);
  char chunk[4096];
  for (std::size_t drained = 0; drained <= kMaxLineBytes;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    drained += static_cast<std::size_t>(n);
  }
}

}  // namespace mpisect::serve
