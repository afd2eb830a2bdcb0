// The daemon front end: a localhost TCP listener speaking one JSON
// request per line, one JSON response per line, over a sharded worker
// pool. Each request is routed to the worker that owns its trace path
// (serve::shard_for), so a trace's decoded image and cache entries stay
// worker-local no matter how many clients connect. Responses are written
// back in request order per connection — a scripted session's output is
// byte-identical whether the pool has one worker or eight.
//
// The listener binds 127.0.0.1 only; this is a local query daemon, not a
// network service.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace mpisect::serve {

class Server {
 public:
  /// Longest request line a connection may send (far above any documented
  /// request). Past it the client gets one error reply and is dropped.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  /// `workers` is clamped to at least 1.
  Server(Service& service, int workers);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral), start the worker pool, and
  /// return the bound port. Throws std::runtime_error on socket errors.
  int listen(int port);

  /// Accept-and-serve loop; returns after stop(). Call from the thread
  /// that should own the daemon's lifetime.
  void run();

  /// Idempotent; unblocks run() and drains the pool.
  void stop();

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(pool_.size());
  }

 private:
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::packaged_task<std::string()>> jobs;
  };

  void worker_loop(Shard& shard);
  void connection_loop(int fd);
  /// Answer a line over kMaxLineBytes with an error, then end the session.
  void refuse_overlong_line(int fd);
  /// Route one request line through its trace's shard and return the
  /// response line.
  std::string dispatch(const std::string& line);

  Service& service_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> pool_;
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace mpisect::serve
