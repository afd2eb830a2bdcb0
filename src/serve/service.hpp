// The daemon's query service: a shared trace store (each trace is loaded
// and decoded once, then pinned until the file at its path changes), an
// LRU result cache keyed on (trace digest, query canonical form), and the
// line-delimited-JSON request dispatcher both the TCP server and the
// in-process tests drive.
//
// Requests are one JSON object per line:
//   {"id":1,"op":"info","trace":"out.mpstz"}
//   {"id":2,"op":"replay","trace":"out.mpstz",
//    "params":{"model":"knl-cluster","drop_rate-free":"...","format":"csv"}}
// Responses mirror the id:
//   {"id":2,"ok":true,"digest":"mpst1-...","cached":false,"result":"..."}
//   {"id":2,"ok":false,"error":"unknown model 'x' (...)"}
// The "result" field is byte-identical to the offline CLI's stdout for
// the same query (both run serve::run_* on the same decoded trace).
//
// Sharding: worker affinity is a pure function of the trace path
// (shard_for), so one worker owns each trace's decoded image and cache
// locality survives concurrent clients. Results are cached post-render,
// keyed by content digest — two paths to the same bytes share entries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/cache.hpp"
#include "serve/queries.hpp"
#include "telemetry/registry.hpp"

namespace mpisect::serve {

/// A trace pinned in memory: decoded events plus its content digest.
struct LoadedTrace {
  trace::TraceFile tf;
  std::uint64_t digest = 0;
  std::string digest_str;      ///< "mpst1-<16 hex>"
  std::uint64_t file_bytes = 0;  ///< container size on disk
};

/// Deterministic worker shard for a trace path (FNV-1a over the path).
[[nodiscard]] int shard_for(const std::string& path, int workers) noexcept;

class Service {
 public:
  explicit Service(std::size_t cache_entries = 256,
                   std::size_t cache_bytes = 64 << 20);

  /// Handle one request line; returns the response line (no trailing
  /// newline). Never throws: every failure becomes an ok:false response.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// The ok:false response for request `id` (its JSON text), counted in
  /// serve.errors — handle_line's failure reply, also used by the daemon
  /// for lines it refuses to read.
  [[nodiscard]] std::string error_reply(const std::string& id,
                                        const std::string& what);

  /// Load (or fetch the pinned copy of) a trace. The pinned copy is reused
  /// while the file's (size, mtime, inode) stamp is unchanged; a rewritten
  /// file is decoded again and replaces it. Throws trace::TraceError.
  [[nodiscard]] std::shared_ptr<const LoadedTrace> trace(
      const std::string& path);

  [[nodiscard]] telemetry::Registry& registry() noexcept { return reg_; }
  [[nodiscard]] LruCache& cache() noexcept { return cache_; }

 private:
  LruCache cache_;
  /// What identifies one version of the file at a path.
  struct FileStamp {
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    std::uint64_t inode = 0;
    bool operator==(const FileStamp&) const = default;
  };
  struct Pinned {
    FileStamp stamp;
    std::shared_ptr<const LoadedTrace> trace;
  };

  std::mutex traces_mu_;
  std::map<std::string, Pinned> traces_;

  telemetry::Registry reg_;
  telemetry::InstrumentId id_requests_;
  telemetry::InstrumentId id_hits_;
  telemetry::InstrumentId id_misses_;
  telemetry::InstrumentId id_errors_;
  telemetry::InstrumentId id_traces_;
  telemetry::InstrumentId id_bytes_decoded_;
  telemetry::InstrumentId id_lat_cold_;
  telemetry::InstrumentId id_lat_warm_;
};

}  // namespace mpisect::serve
