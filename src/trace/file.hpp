// The .mpst container: header, label table, per-rank event streams.
//
// Layout (all little-endian, integers LEB128 unless noted):
//
//   u32  magic "MPST"          u32  format version
//   header: app string, world seed, collective algorithms, start-skew
//           sigma, rank count, full MachineModel parameter block
//   label table: count + strings (ids are indices, lexicographic order)
//   per rank: rank, t0, t_final, event count, events, section totals
//
// The machine model travels in the header so `replay` can re-cost under
// the *recorded* model with no external input, and so `info` can print
// what the trace was captured on. Section totals per (comm, label) form a
// self-check footer: a same-model replay must reproduce them exactly.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "mpisim/machine.hpp"
#include "mpisim/progress.hpp"
#include "trace/events.hpp"
#include "trace/wire.hpp"

namespace mpisect::trace {

inline constexpr std::uint32_t kTraceMagic = 0x5453504D;  // "MPST" LE
/// v1: original layout. v2 appends the telemetry sampling interval to the
/// header; decode still accepts v1 (telemetry_dt = 0, "not recorded").
/// v3 appends the posted envelope (source world rank, tag) to RecvPost and
/// Probe events so offline analysis can recompute wildcard match sets;
/// decode still accepts v1/v2 (post_src = Event::kNotRecorded, tag = 0).
/// v4 adds the progress model the run executed under to the header and the
/// NbcPost/NbcComplete event kinds; decode still accepts v1-v3 (progress =
/// blocking-only, the only behaviour older simulators had).
/// v5 appends the network model's hierarchical_nbc flag to the machine
/// block so replay/interp recompute nonblocking-collective costs with the
/// same topology the run charged; decode still accepts v1-v4 (flag off,
/// the flat formula those runs used).
inline constexpr std::uint32_t kTraceVersion = 5;

struct TraceHeader {
  std::string app;  ///< free-form provenance (app + parameters)
  std::uint64_t seed = 0;
  /// Rooted scatter/gather algorithm ids, 0 = linear (the only one the
  /// simulator has). Kept in the v5 layout so every trace re-encodes
  /// byte-identically; the recorder writes 0.
  std::uint8_t scatter_algo = 0;
  std::uint8_t gather_algo = 0;
  double start_skew_sigma = 0.0;
  int nranks = 0;
  /// Virtual-time telemetry sampling interval the run was observed with
  /// (seconds); 0 = no interval recorded. A replay uses it to re-derive the
  /// sampler's timeline under a different machine model (v2 header field).
  double telemetry_dt = 0.0;
  /// Progress model the recorded run executed under (v4 header field;
  /// blocking-only for older traces). Note the machine block below already
  /// carries the opportunistic entry-overhead fold — replay under the
  /// recorded model needs no extra arithmetic, only the rendezvous extra
  /// and compute-factor terms this struct derives.
  mpisim::ProgressModel progress;
  mpisim::MachineModel machine;
};

/// Inclusive time this rank spent in one (comm, label) section.
struct SectionTotal {
  int comm = 0;
  std::uint32_t label = 0;
  std::uint64_t count = 0;    ///< instances entered
  double inclusive = 0.0;     ///< summed enter->exit virtual seconds
};

struct RankStream {
  int rank = 0;
  double t0 = 0.0;       ///< clock at MPI_Init (start skew)
  double t_final = 0.0;  ///< clock at MPI_Finalize
  std::vector<Event> events;
  std::vector<SectionTotal> totals;
};

struct TraceFile {
  TraceHeader header;
  std::vector<std::string> labels;  ///< id -> name, sorted lexicographically
  std::vector<RankStream> ranks;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws TraceError on bad magic, wrong byte order, version mismatch,
  /// truncation, or trailing garbage.
  [[nodiscard]] static TraceFile decode(std::span<const std::uint8_t> data);

  void save(const std::string& path) const;
  [[nodiscard]] static TraceFile load(const std::string& path);

  [[nodiscard]] std::uint64_t total_events() const noexcept;
};

/// Streams a .mpst file to disk rank by rank: the preamble is written at
/// construction, each write_rank() encodes and flushes one rank stream,
/// and close() verifies the declared rank count. The byte stream is
/// identical to TraceFile::encode() of the same data — the encoding is
/// self-delimiting per rank — but the buffered high-water mark is one
/// rank stream instead of the whole file, which is what makes recording
/// 65k-rank traces feasible. Throws TraceError on I/O failure, writing
/// more ranks than declared, or closing short.
class TraceStreamWriter {
 public:
  TraceStreamWriter(const std::string& path, const TraceHeader& header,
                    const std::vector<std::string>& labels, int nranks);
  ~TraceStreamWriter();
  TraceStreamWriter(const TraceStreamWriter&) = delete;
  TraceStreamWriter& operator=(const TraceStreamWriter&) = delete;

  /// Encode and write the next rank stream (ranks are positional; feed
  /// them in the order the reader should see them).
  void write_rank(const RankStream& rs);
  /// Flush and verify. Idempotent; destruction without close() performs
  /// no verification (a partial file is left behind for post-mortems).
  void close();

 private:
  void write_chunk(const std::vector<std::uint8_t>& bytes);

  std::ofstream out_;
  std::string path_;
  int expected_ranks_;
  int written_ = 0;
  bool closed_ = false;
};

}  // namespace mpisect::trace
