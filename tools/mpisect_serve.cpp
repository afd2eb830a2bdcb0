// mpisect-serve — a long-lived what-if query daemon. Traces are loaded
// and decoded once, query results are cached by (trace digest, canonical
// query), and clients speak one JSON object per line over local TCP:
//
//   mpisect-serve serve  --port 0 --port-file serve.port &
//   mpisect-serve client --port $(cat serve.port) --script queries.jsonl
//   mpisect-serve query  --script queries.jsonl     # in-process, no TCP
//
// Request lines:
//   {"id":1,"op":"info","trace":"conv.mpstz"}
//   {"id":2,"op":"replay","trace":"conv.mpstz",
//    "params":{"model":"knl","compute_scale":"auto","format":"csv"}}
//   {"id":3,"op":"sweep","trace":"conv.mpstz",
//    "params":{"drop_rates":[0,0.01,0.05]}}
//   {"id":4,"op":"stats"}    # Prometheus page: serve.* and obs_* series
// Responses:
//   {"id":2,"ok":true,"digest":"mpst1-...","cached":false,"result":"..."}
//
// The "result" field is byte-identical to the matching offline CLI's
// stdout (mpisect-replay / mpisect-analyze); both run the shared engine
// in serve/queries.hpp. The worker pool shards requests by trace path
// (MPISECT_WORKERS or --workers), and responses per connection arrive in
// request order, so scripted sessions are byte-identical at any pool
// size.
//
// Exit status: 0 = ok, 1 = usage/socket error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "launch.hpp"
#include "mpisim/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/file.hpp"
#include "support/spec.hpp"

namespace {

using namespace mpisect;

serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

// Bounds of the result-cache flags, checked before the size_t cast (a
// negative value would wrap). --cache-mb 0 keeps no byte bound.
constexpr std::int64_t kMaxCacheEntries = 1 << 24;
constexpr std::int64_t kMaxCacheMb = 1 << 20;

/// The --port flag as a TCP port, checked before the 16-bit `htons` cast
/// would turn a wider value into another port.
int port_flag(const support::ArgParser& args, std::int64_t lo) {
  return static_cast<int>(launch::uint_flag(args, "port", lo, 65535));
}

int env_workers() {
  const int n =
      support::env_int("MPISECT_WORKERS", mpisim::ExecModel::kMaxWorkers);
  return n >= 1 ? n : 1;
}

/// Read request lines from `path` ("" or "-" = stdin); blank lines and
/// '#' comments are skipped.
std::vector<std::string> read_script(const std::string& path) {
  std::istringstream own;
  std::istream* in = &std::cin;
  std::ifstream file;
  if (!path.empty() && path != "-") {
    file.open(path);
    if (!file) {
      throw std::runtime_error("cannot open script '" + path + "'");
    }
    in = &file;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(*in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

int cmd_serve(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-serve serve",
                          "Run the query daemon on localhost TCP");
  args.add_int("port", 0, "TCP port to bind (0 = ephemeral)");
  args.add_string("port-file", "",
                  "write the bound port number here (for scripts using "
                  "--port 0)");
  args.add_int("workers", 0,
               "worker pool size (0 = $MPISECT_WORKERS, else 1); requests "
               "shard by trace path");
  args.add_int("cache-entries", 256, "result cache capacity (entries)");
  args.add_int("cache-mb", 64, "result cache capacity (megabytes)");
  if (!launch::parse(args, argc, argv)) return 1;

  if (args.get_int("workers") > mpisim::ExecModel::kMaxWorkers) {
    std::fprintf(stderr, "mpisect-serve: --workers exceeds the bound of %d\n",
                 mpisim::ExecModel::kMaxWorkers);
    return 1;
  }
  int workers = static_cast<int>(args.get_int("workers"));
  if (workers <= 0) workers = env_workers();
  const int port_wanted = port_flag(args, 0);

  serve::Service service(
      launch::uint_flag(args, "cache-entries", 0, kMaxCacheEntries),
      launch::uint_flag(args, "cache-mb", 0, kMaxCacheMb) << 20);
  serve::Server server(service, workers);
  const int port = server.listen(port_wanted);

  // Atomic, so a poller never reads a half-written port.
  if (const std::string& pf = args.get_string("port-file");
      !pf.empty() &&
      !support::write_file_atomic(pf, std::to_string(port) + "\n")) {
    std::fprintf(stderr, "mpisect-serve: cannot write %s\n", pf.c_str());
    return 1;
  }
  std::printf("mpisect-serve: listening on 127.0.0.1:%d (workers=%d)\n", port,
              server.workers());
  std::fflush(stdout);

  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  server.run();
  g_server = nullptr;
  std::printf("mpisect-serve: stopped\n");
  return 0;
}

int cmd_client(int argc, const char* const* argv) {
  support::ArgParser args(
      "mpisect-serve client",
      "Send request lines to a running daemon, print response lines");
  args.add_int("port", 0, "daemon port (required)");
  args.add_string("script", "",
                  "request file, one JSON object per line ('' = stdin; '#' "
                  "comments skipped)");
  if (!launch::parse(args, argc, argv)) return 1;
  if (args.get_int("port") <= 0) {
    std::fprintf(stderr, "mpisect-serve: client needs --port\n");
    return 1;
  }
  const int port = port_flag(args, 1);

  const std::vector<std::string> lines =
      read_script(args.get_string("script"));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("mpisect-serve: socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    std::perror("mpisect-serve: connect");
    ::close(fd);
    return 1;
  }

  // Synchronous request/response keeps the printed session in request
  // order regardless of the daemon's pool size.
  std::string buffer;
  char chunk[4096];
  for (const std::string& line : lines) {
    const std::string msg = line + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "mpisect-serve: connection lost\n");
        ::close(fd);
        return 1;
      }
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        std::fwrite(buffer.data(), 1, nl + 1, stdout);
        buffer.erase(0, nl + 1);
        break;
      }
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "mpisect-serve: connection lost\n");
        ::close(fd);
        return 1;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return 0;
}

int cmd_query(int argc, const char* const* argv) {
  support::ArgParser args(
      "mpisect-serve query",
      "Answer request lines in-process (no daemon, no TCP)");
  args.add_string("script", "",
                  "request file, one JSON object per line ('' = stdin; '#' "
                  "comments skipped)");
  args.add_int("cache-entries", 256, "result cache capacity (entries)");
  args.add_int("cache-mb", 64, "result cache capacity (megabytes)");
  if (!launch::parse(args, argc, argv)) return 1;

  serve::Service service(
      launch::uint_flag(args, "cache-entries", 0, kMaxCacheEntries),
      launch::uint_flag(args, "cache-mb", 0, kMaxCacheMb) << 20);
  for (const std::string& line : read_script(args.get_string("script"))) {
    const std::string resp = service.handle_line(line);
    std::fwrite(resp.data(), 1, resp.size(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

int run(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
  if (cmd == "client") return cmd_client(argc - 1, argv + 1);
  if (cmd == "query") return cmd_query(argc - 1, argv + 1);
  std::fprintf(stderr,
               "usage: mpisect-serve <serve|client|query> [options]\n"
               "       mpisect-serve <subcommand> --help\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  return launch::guarded_main("mpisect-serve", run, argc, argv);
}
