// The .mpstz container: a chunked, compressed, random-access wrapper
// around .mpst traces.
//
// Layout (integers LEB128 unless noted):
//
//   u32  magic "MPSZ"            u32  version (1)
//   metadata blob: varint size + bytes + u32 crc
//     — the .mpst v3 encoding of the trace with every rank's event list
//       emptied. Header, machine model, label table, per-rank t0/t_final
//       and section-total footers all ride here unchanged, decoded by the
//       ordinary TraceFile reader.
//   per-rank expected event counts: varint count per rank
//   chunk index: varint nchunks, then per chunk
//       rank, first_event, nevents          (varints)
//       t_begin, t_end                      (f64; rank-clock coverage)
//       offset, size                        (varints, into payload section)
//       raw_size                            (varint; pre-RLE event bytes)
//       u32 crc                             (of the raw event bytes)
//   payload section: varint total size, then the chunk blobs
//       each blob: varint tag lag, varint field lag, varint sizes of
//       three sub-blocks, then the sub-blocks
//       each sub-block: u8 method (0 = stored, 1 = RLE+Huffman), then
//       method 0: raw stream bytes
//       method 1: varint rle_size, varint nbits, varint length-table
//                 size, RLE-coded 256-entry length table, packed bitstream
//
// Chunk payloads are self-contained: events split into three streams,
// each compressed independently —
//   tags    one byte per event (kind | 0x80 when timed),
//   fields  zigzag-varint residuals of every integer field against
//           per-kind / per-(kind, peer) / op-chain predictors,
//   times   XOR of consecutive timestamp bit patterns, byte-plane
//           transposed (matching exponents become zero planes).
// The tag and field streams are additionally XORed against the byte lag
// that cancels the most bytes — iterative apps repeat their per-step
// pattern, so both streams collapse into zero runs at the step period.
// The lag search (detail::best_lag) is exact: it prunes lags that cannot
// win, but returns the same lag as scoring every lag 1..4096 in full, so
// the container bytes do not depend on how the search is implemented.
// Decoding a chunk rebuilds the exact Event structs, so re-encoding the
// whole trace reproduces the original .mpst bytes bit for bit.
//
// Because chunks are self-contained, compress() encodes ranks and
// MpstzReader::all() (so decompress and load_trace) decodes chunks on a
// fan-out of up to hardware_concurrency threads (support::parallel_for).
// The container bytes, the decoded trace and every error text are the
// same at any thread count: ranks are assembled in rank order, and a
// failing decode reports its lowest-index failing chunk, the one a
// chunk-by-chunk loop would hit first. compress_stream() stays serial:
// its provider hands out one rank at a time, valid until the next call,
// which is what keeps the caller from holding every rank's events at once.
//
// Every read failure throws trace::TraceError; corrupt indexes, length
// tables, bitstreams and payloads are structural errors, never UB.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "trace/file.hpp"

namespace mpisect::codec {

inline constexpr std::uint32_t kMpstzMagic = 0x5A53504D;  // "MPSZ" LE
inline constexpr std::uint32_t kMpstzVersion = 1;

struct CompressOptions {
  /// Maximum events per chunk. Smaller chunks seek finer but pay more
  /// per-chunk overhead (length tables, index entries).
  std::uint64_t chunk_events = 16384;
};

struct ChunkInfo {
  int rank = 0;
  std::uint64_t first_event = 0;  ///< index into the rank's event list
  std::uint64_t nevents = 0;
  double t_begin = 0.0;  ///< rank clock entering the chunk
  double t_end = 0.0;    ///< last recorded clock value inside the chunk
  std::uint64_t offset = 0;  ///< into the payload section
  std::uint64_t size = 0;    ///< compressed blob size in bytes
  std::uint64_t raw_size = 0;  ///< event-encoded bytes before RLE/Huffman
  std::uint32_t crc = 0;       ///< crc32 of the raw event bytes
};

/// Encode `tf` as a .mpstz byte vector, ranks in parallel.
[[nodiscard]] std::vector<std::uint8_t> compress(
    const trace::TraceFile& tf, const CompressOptions& options = {});

/// Streaming variant: `skeleton` carries the header, label table and every
/// rank's metadata (t0/t_final/totals) with event lists EMPTY;
/// `rank_provider(r)` returns rank r's full stream (called once per rank,
/// in order, and the reference only needs to stay valid for that call).
/// The caller therefore never has to materialize all event streams at
/// once — e.g. TraceRecorder::skeleton() + finish_rank(). Encodes ranks
/// one after another with compress()'s encoder, so the bytes are
/// identical to compress() of the assembled TraceFile.
[[nodiscard]] std::vector<std::uint8_t> compress_stream(
    const trace::TraceFile& skeleton,
    const std::function<const trace::RankStream&(int)>& rank_provider,
    const CompressOptions& options = {});

/// Full inverse of compress(); `decompress(compress(tf))` re-encodes to
/// the identical .mpst byte stream.
[[nodiscard]] trace::TraceFile decompress(std::span<const std::uint8_t> data);

[[nodiscard]] bool is_mpstz(std::span<const std::uint8_t> data) noexcept;

/// Random-access reader: parses metadata and the chunk index eagerly,
/// decodes chunk payloads on demand, and counts every compressed payload
/// byte it actually touches (the "only the needed chunks" assertion, and
/// the serve.bytes_decoded telemetry feed).
class MpstzReader {
 public:
  /// Takes ownership of the container bytes. Throws trace::TraceError on
  /// any structural problem outside chunk payloads (those are validated
  /// lazily, per decode).
  explicit MpstzReader(std::vector<std::uint8_t> data);

  [[nodiscard]] const trace::TraceHeader& header() const noexcept {
    return skeleton_.header;
  }
  [[nodiscard]] const std::vector<std::string>& labels() const noexcept {
    return skeleton_.labels;
  }
  [[nodiscard]] const std::vector<ChunkInfo>& chunks() const noexcept {
    return chunks_;
  }

  /// Decode one chunk's events (CRC-checked).
  [[nodiscard]] std::vector<trace::Event> chunk_events(std::size_t index);

  /// Decode every chunk of every rank into a complete TraceFile, chunks
  /// in parallel; on failure throws the lowest-index chunk's error.
  [[nodiscard]] trace::TraceFile all();

  /// Decode only the chunks of `rank` whose [t_begin, t_end] coverage
  /// intersects [t0, t1], concatenated in stream order. Chunks outside
  /// the window cost zero payload bytes.
  [[nodiscard]] std::vector<trace::Event> window(int rank, double t0,
                                                 double t1);

  /// Compressed payload bytes consumed by chunk decodes so far.
  [[nodiscard]] std::uint64_t bytes_decoded() const noexcept {
    return bytes_decoded_;
  }

 private:
  /// Decode chunk `c` into `out` (exactly c.nevents events), running
  /// every check. Modifies no reader state, so chunks decode in parallel.
  void decode_chunk(const ChunkInfo& c, std::span<trace::Event> out) const;

  std::vector<std::uint8_t> data_;
  trace::TraceFile skeleton_;  ///< events empty; filled by all()
  std::vector<std::uint64_t> rank_event_counts_;
  std::vector<ChunkInfo> chunks_;
  std::size_t payload_begin_ = 0;
  std::uint64_t payload_size_ = 0;
  std::uint64_t bytes_decoded_ = 0;
};

/// Load a trace from disk, transparently accepting both formats: .mpstz
/// containers are decompressed, anything else goes through the ordinary
/// .mpst reader. Every trace-consuming tool funnels through here.
[[nodiscard]] trace::TraceFile load_trace(const std::string& path);

/// Stable content digest of a trace: FNV-1a 64 over the canonical .mpst
/// v3 encoding (identical whether the trace came from .mpst or .mpstz).
[[nodiscard]] std::uint64_t trace_digest(const trace::TraceFile& tf);

namespace detail {

/// The XOR lag in 0..min(4096, n-1) that zeroes the most bytes of
/// `bytes`. Iterative apps repeat the same per-step pattern, so the tag
/// and residual field streams are near-periodic at the per-step byte
/// period; XOR against that lag turns them into almost all zeros, which
/// the RLE stage then collapses. Lag 0 is the identity (the stream's own
/// zero count); a larger lag must score strictly more to win, so ties go
/// to the smallest lag. Lag L scores its n - L pairs i >= L with
/// bytes[i] == bytes[i - L]. Exposed for the exactness tests.
[[nodiscard]] std::uint64_t best_lag(std::span<const std::uint8_t> bytes);

}  // namespace detail

}  // namespace mpisect::codec
