#include "codec/mpstz.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <iterator>
#include <type_traits>
#include <unordered_map>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "codec/huffman.hpp"
#include "codec/rle.hpp"
#include "obs/counters.hpp"
#include "obs/spans.hpp"
#include "support/crc32.hpp"
#include "support/digest.hpp"
#include "support/parallel.hpp"
#include "trace/event_wire.hpp"

namespace mpisect::codec {

namespace {

constexpr std::uint8_t kMethodStored = 0;
constexpr std::uint8_t kMethodRleHuffman = 1;

/// Upper bound on the wire size of one event (kind byte + f64 + a handful
/// of 10-byte varints) — used to reject absurd raw_size index entries
/// before allocating.
constexpr std::uint64_t kMaxEventWireBytes = 80;

/// Most raw bytes one coded byte can decode to: a Huffman code spends at
/// least one bit per RLE symbol, and a two-symbol RLE run yields at most
/// 128 bytes. Every event has a tag byte, so this also bounds the events
/// per payload byte.
constexpr std::uint64_t kMaxRawPerCodedByte = 8 * 128 / 2;

/// Smallest wire size of one chunk-index entry: six one-byte varints, two
/// f64 time bounds and the u32 CRC.
constexpr std::size_t kMinIndexEntryBytes = 6 + 2 * 8 + 4;

// --------------------------------------------------------------------
// Chunk stream model. Events are split into three independently
// compressed streams whose residuals are near zero on periodic traces:
//
//   tags    one byte per event: kind | 0x80 when timed, XORed against
//           the best byte lag (the per-step event pattern repeats, so
//           the stream turns into zero runs).
//   fields  every integer field, zigzag-varint of the residual against
//           a per-kind / per-(kind, peer) / op-chain predictor (see
//           FieldContext below), then XORed against the best byte lag —
//           iterative apps repeat the same message pattern per step, so
//           what survives the predictors cancels against the previous
//           step's bytes.
//   times   per timed event, the 8 bytes of (bits XOR previous timed
//           bits), byte-plane transposed across the chunk — matching
//           exponents and high-mantissa bytes line up into zero planes.
//
// The split is purely an encoding: decode reconstructs the exact Event
// structs, which is what makes the .mpst re-encoding bit-exact.
// --------------------------------------------------------------------

struct ChunkStreams {
  std::vector<std::uint8_t> tags;
  std::vector<std::uint8_t> fields;
  std::vector<std::uint8_t> times;
};

/// Residual of an integer field against its same-kind predecessor.
/// Computed in uint64 (wraparound-exact), zigzagged so small +/- deltas
/// stay small varints.
void put_residual(trace::ByteWriter& w, std::uint64_t cur,
                  std::uint64_t prev) {
  w.varint(trace::zigzag_encode(static_cast<std::int64_t>(cur - prev)));
}

[[nodiscard]] std::uint64_t get_residual(trace::ByteReader& r,
                                         std::uint64_t prev) {
  return prev + static_cast<std::uint64_t>(trace::zigzag_decode(r.varint()));
}

/// Prediction context for the fields stream, reset per chunk. Three
/// predictor families, each chosen for which field repeats under it:
///   by_kind       last event of the same kind (comm, peer, backrefs,
///                 section labels — values that cycle with the kind),
///   by_kind_peer  last same-kind event with the same peer (per-edge
///                 seq/tag/bytes/post_src are constant or +1 per step
///                 along one edge, so these residuals are zero runs),
///   op_chain      the rank-global CPU-op id shared by SendPost,
///                 RecvWait and CollBegin, exactly the monotone chain
///                 the .mpst wire delta-encodes.
struct FieldContext {
  std::array<trace::Event, trace::kEventKindCount> by_kind{};
  std::unordered_map<std::uint64_t, trace::Event> by_kind_peer;
  std::uint64_t op_chain = 0;

  trace::Event& kind_prev(trace::EventKind kind) {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  trace::Event& peer_prev(trace::EventKind kind, int peer) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) << 32) ^
        static_cast<std::uint32_t>(peer);
    return by_kind_peer[key];  // value-initialized Event on first touch
  }
};

/// Encode one event's integer fields as residual varints. The decode
/// mirror below must read the exact same fields in the exact same order
/// against the exact same predictors.
void put_fields(trace::ByteWriter& w, FieldContext& ctx,
                const trace::Event& ev) {
  using K = trace::EventKind;
  trace::Event& k = ctx.kind_prev(ev.kind);
  switch (ev.kind) {
    case K::SendPost: {
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, static_cast<std::uint64_t>(ev.peer),
                   static_cast<std::uint64_t>(k.peer));
      trace::Event& p = ctx.peer_prev(ev.kind, ev.peer);
      put_residual(w, static_cast<std::uint64_t>(ev.tag),
                   static_cast<std::uint64_t>(p.tag));
      put_residual(w, ev.bytes, p.bytes);
      put_residual(w, ev.seq, p.seq);
      put_residual(w, ev.op, ctx.op_chain);
      ctx.op_chain = ev.op;
      p = ev;
      break;
    }
    case K::SendWait:
      put_residual(w, ev.op, k.op);  // backref
      break;
    case K::RecvPost:
    case K::Probe: {
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, static_cast<std::uint64_t>(ev.peer),
                   static_cast<std::uint64_t>(k.peer));
      trace::Event& p = ctx.peer_prev(ev.kind, ev.peer);
      put_residual(w, ev.seq, p.seq);
      put_residual(w, static_cast<std::uint64_t>(ev.post_src),
                   static_cast<std::uint64_t>(p.post_src));
      put_residual(w, static_cast<std::uint64_t>(ev.tag),
                   static_cast<std::uint64_t>(p.tag));
      p = ev;
      break;
    }
    case K::RecvWait:
      put_residual(w, ev.seq, k.seq);  // backref
      put_residual(w, ev.op, ctx.op_chain);
      ctx.op_chain = ev.op;
      break;
    case K::CollBegin:
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, static_cast<std::uint64_t>(ev.label),
                   static_cast<std::uint64_t>(k.label));
      put_residual(w, static_cast<std::uint64_t>(ev.peer),
                   static_cast<std::uint64_t>(k.peer));
      put_residual(w, ev.bytes, k.bytes);
      put_residual(w, ev.op, ctx.op_chain);
      ctx.op_chain = ev.op;
      break;
    case K::SectionEnter:
    case K::SectionExit:
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, static_cast<std::uint64_t>(ev.label),
                   static_cast<std::uint64_t>(k.label));
      break;
    case K::CommSync:
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, static_cast<std::uint64_t>(ev.peer),
                   static_cast<std::uint64_t>(k.peer));
      put_residual(w, ev.seq, k.seq);
      break;
    case K::Pcontrol:
      put_residual(w, static_cast<std::uint64_t>(ev.peer),
                   static_cast<std::uint64_t>(k.peer));
      put_residual(w, static_cast<std::uint64_t>(ev.label),
                   static_cast<std::uint64_t>(k.label));
      break;
    case K::NbcPost:
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, static_cast<std::uint64_t>(ev.label),
                   static_cast<std::uint64_t>(k.label));
      put_residual(w, static_cast<std::uint64_t>(ev.peer),
                   static_cast<std::uint64_t>(k.peer));
      put_residual(w, ev.bytes, k.bytes);
      put_residual(w, ev.seq, k.seq);  // generations step +1: zero runs
      put_residual(w, ev.op, ctx.op_chain);
      ctx.op_chain = ev.op;
      break;
    case K::NbcComplete:
      put_residual(w, static_cast<std::uint64_t>(ev.comm),
                   static_cast<std::uint64_t>(k.comm));
      put_residual(w, ev.seq, k.seq);
      break;
    case K::CollEnd:
    case K::Finalize:
      break;
  }
  k = ev;
}

void get_fields(trace::ByteReader& r, FieldContext& ctx, trace::Event& ev) {
  using K = trace::EventKind;
  trace::Event& k = ctx.kind_prev(ev.kind);
  switch (ev.kind) {
    case K::SendPost: {
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.peer = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.peer)));
      trace::Event& p = ctx.peer_prev(ev.kind, ev.peer);
      ev.tag = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(p.tag)));
      ev.bytes = get_residual(r, p.bytes);
      ev.seq = get_residual(r, p.seq);
      ev.op = get_residual(r, ctx.op_chain);
      ctx.op_chain = ev.op;
      p = ev;
      break;
    }
    case K::SendWait:
      ev.op = get_residual(r, k.op);
      break;
    case K::RecvPost:
    case K::Probe: {
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.peer = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.peer)));
      trace::Event& p = ctx.peer_prev(ev.kind, ev.peer);
      ev.seq = get_residual(r, p.seq);
      ev.post_src = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(p.post_src)));
      ev.tag = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(p.tag)));
      p = ev;
      break;
    }
    case K::RecvWait:
      ev.seq = get_residual(r, k.seq);
      ev.op = get_residual(r, ctx.op_chain);
      ctx.op_chain = ev.op;
      break;
    case K::CollBegin:
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.label = static_cast<std::uint32_t>(
          get_residual(r, static_cast<std::uint64_t>(k.label)));
      ev.peer = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.peer)));
      ev.bytes = get_residual(r, k.bytes);
      ev.op = get_residual(r, ctx.op_chain);
      ctx.op_chain = ev.op;
      break;
    case K::SectionEnter:
    case K::SectionExit:
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.label = static_cast<std::uint32_t>(
          get_residual(r, static_cast<std::uint64_t>(k.label)));
      break;
    case K::CommSync:
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.peer = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.peer)));
      ev.seq = get_residual(r, k.seq);
      break;
    case K::Pcontrol:
      ev.peer = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.peer)));
      ev.label = static_cast<std::uint32_t>(
          get_residual(r, static_cast<std::uint64_t>(k.label)));
      break;
    case K::NbcPost:
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.label = static_cast<std::uint32_t>(
          get_residual(r, static_cast<std::uint64_t>(k.label)));
      ev.peer = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.peer)));
      ev.bytes = get_residual(r, k.bytes);
      ev.seq = get_residual(r, k.seq);
      ev.op = get_residual(r, ctx.op_chain);
      ctx.op_chain = ev.op;
      break;
    case K::NbcComplete:
      ev.comm = static_cast<int>(
          get_residual(r, static_cast<std::uint64_t>(k.comm)));
      ev.seq = get_residual(r, k.seq);
      break;
    case K::CollEnd:
    case K::Finalize:
      break;
  }
  k = ev;
}

/// Longest run count_equal() takes: 255 vector steps of 16 bytes, so no
/// 8-bit lane counter can overflow before the horizontal sum.
constexpr std::size_t kCountBlock = 255 * 16;

/// Number of positions i < len with a[i] == b[i]; len <= kCountBlock.
std::size_t count_equal(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t len) {
  std::size_t i = 0;
  std::size_t count = 0;
#if defined(__SSE2__)
  // cmpeq yields 0xFF (-1) per equal byte; subtracting it bumps that
  // lane by one. _mm_sad_epu8 against zero sums each 8-lane half.
  __m128i lanes = _mm_setzero_si128();
  for (; i + 16 <= len; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    lanes = _mm_sub_epi8(lanes, _mm_cmpeq_epi8(x, y));
  }
  const __m128i sums = _mm_sad_epu8(lanes, _mm_setzero_si128());
  count = static_cast<std::size_t>(_mm_cvtsi128_si32(sums)) +
          static_cast<std::size_t>(_mm_extract_epi16(sums, 4));
#endif
  for (; i < len; ++i) count += a[i] == b[i] ? 1 : 0;
  return count;
}

}  // namespace

namespace detail {

/// Exact pruned search: it returns the lag a full scan of every lag
/// 1..4096 returns, so the container bytes are unchanged, but it skips
/// the work of lags that provably cannot win.
std::uint64_t best_lag(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kMaxLag = 4096;
  const std::size_t n = bytes.size();
  const std::uint8_t* p = bytes.data();
  std::uint64_t best = 0;
  std::size_t best_zeros = static_cast<std::size_t>(
      std::count(bytes.begin(), bytes.end(), std::uint8_t{0}));
  const std::size_t max_lag = n == 0 ? 0 : std::min(kMaxLag, n - 1);
  // Lag L scores at most its n - L pairs, and a lag must beat the best
  // count strictly; once n - L <= best_zeros no larger lag can win either.
  for (std::size_t lag = 1; lag <= max_lag && n - lag > best_zeros; ++lag) {
    const std::size_t pairs = n - lag;
    std::size_t zeros = 0;
    std::size_t done = 0;
    // Abandon the lag once even all remaining pairs matching would not
    // lift it above the best count.
    while (done < pairs && zeros + (pairs - done) > best_zeros) {
      const std::size_t len = std::min(kCountBlock, pairs - done);
      zeros += count_equal(p + lag + done, p + done, len);
      done += len;
    }
    if (zeros > best_zeros) {
      best_zeros = zeros;
      best = lag;
    }
  }
  return best;
}

}  // namespace detail

namespace {

std::vector<std::uint8_t> lag_apply(std::span<const std::uint8_t> bytes,
                                    std::uint64_t lag) {
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  if (lag == 0 || lag >= out.size()) return out;
  // Back to front so every XOR reads an original value.
  for (std::size_t i = out.size(); i-- > static_cast<std::size_t>(lag);) {
    out[i] ^= bytes[i - static_cast<std::size_t>(lag)];
  }
  return out;
}

void lag_undo(std::vector<std::uint8_t>& bytes, std::uint64_t lag) {
  if (lag == 0 || lag >= bytes.size()) return;
  // Front to back: earlier bytes are already restored when read.
  for (std::size_t i = static_cast<std::size_t>(lag); i < bytes.size(); ++i) {
    bytes[i] ^= bytes[i - static_cast<std::size_t>(lag)];
  }
}

ChunkStreams encode_chunk_events(std::span<const trace::Event> events) {
  ChunkStreams out;
  out.tags.reserve(events.size());
  trace::ByteWriter fields;
  FieldContext ctx;
  std::vector<std::uint64_t> time_bits;
  std::uint64_t prev_bits = 0;
  for (const trace::Event& ev : events) {
    out.tags.push_back(static_cast<std::uint8_t>(ev.kind) |
                       (ev.has_time ? std::uint8_t{0x80} : std::uint8_t{0}));
    put_fields(fields, ctx, ev);
    if (ev.has_time) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(ev.t_before);
      time_bits.push_back(bits ^ prev_bits);
      prev_bits = bits;
    }
  }
  out.fields = fields.take();
  out.times.reserve(8 * time_bits.size());
  for (int plane = 0; plane < 8; ++plane) {
    for (const std::uint64_t bits : time_bits) {
      out.times.push_back(static_cast<std::uint8_t>(bits >> (8 * plane)));
    }
  }
  return out;
}

void decode_chunk_events(const ChunkStreams& s,
                         std::span<trace::Event> events) {
  if (s.tags.size() != events.size()) {
    throw trace::TraceError("corrupt chunk: tag stream size mismatch");
  }
  std::size_t n_timed = 0;
  for (const std::uint8_t tag : s.tags) {
    if ((tag & 0x7F) >= trace::kEventKindCount) {
      throw trace::TraceError("corrupt chunk: unknown event kind " +
                              std::to_string(tag & 0x7F));
    }
    if (tag & 0x80) ++n_timed;
  }
  if (s.times.size() != 8 * n_timed) {
    throw trace::TraceError("corrupt chunk: time stream size mismatch");
  }
  trace::ByteReader fields(s.fields);
  FieldContext ctx;
  std::uint64_t prev_bits = 0;
  std::size_t timed_idx = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint8_t tag = s.tags[i];
    trace::Event ev;
    ev.kind = static_cast<trace::EventKind>(tag & 0x7F);
    ev.has_time = (tag & 0x80) != 0;
    // Fields encode_event never writes for this kind stay at their struct
    // defaults; get_fields touches exactly the encoded set.
    get_fields(fields, ctx, ev);
    if (ev.has_time) {
      std::uint64_t xbits = 0;
      for (int plane = 0; plane < 8; ++plane) {
        xbits |= static_cast<std::uint64_t>(s.times[plane * n_timed +
                                                    timed_idx])
                 << (8 * plane);
      }
      ++timed_idx;
      prev_bits ^= xbits;
      ev.t_before = std::bit_cast<double>(prev_bits);
    }
    events[i] = ev;
  }
  if (fields.remaining() != 0) {
    throw trace::TraceError("corrupt chunk: trailing field bytes");
  }
}

/// One compressed sub-block: u8 method + body. Picks stored when entropy
/// coding does not pay (tiny or incompressible streams).
std::vector<std::uint8_t> build_block(std::span<const std::uint8_t> raw) {
  const std::vector<std::uint8_t> rle = rle_encode(raw);
  const HuffmanEncoded huff = huffman_encode(rle);
  trace::ByteWriter w;
  w.u8(kMethodRleHuffman);
  w.varint(rle.size());
  w.varint(huff.nbits);
  // Lengths are mostly zero for sparse alphabets; RLE them too.
  const std::vector<std::uint8_t> lens =
      rle_encode(std::span<const std::uint8_t>(huff.lengths));
  w.varint(lens.size());
  std::vector<std::uint8_t> blob = w.take();
  blob.insert(blob.end(), lens.begin(), lens.end());
  blob.insert(blob.end(), huff.bits.begin(), huff.bits.end());
  if (blob.size() >= raw.size() + 1) {
    blob.assign(1, kMethodStored);
    blob.insert(blob.end(), raw.begin(), raw.end());
  }
  return blob;
}

std::vector<std::uint8_t> decode_block(std::span<const std::uint8_t> blob,
                                       std::uint64_t raw_size) {
  if (blob.empty()) {
    throw trace::TraceError("corrupt chunk: empty sub-block");
  }
  if (blob[0] == kMethodStored) {
    if (blob.size() - 1 != raw_size) {
      throw trace::TraceError("corrupt chunk: stored block size mismatch");
    }
    return {blob.begin() + 1, blob.end()};
  }
  if (blob[0] != kMethodRleHuffman) {
    throw trace::TraceError("corrupt chunk: unknown compression method " +
                            std::to_string(blob[0]));
  }
  trace::ByteReader r(blob.subspan(1));
  const std::uint64_t rle_size = r.varint();
  // RLE worst case expands 128 input bytes to a control byte + 128
  // literals; anything larger cannot have come from this raw size.
  if (rle_size > raw_size + raw_size / 128 + 16) {
    throw trace::TraceError("corrupt chunk: implausible RLE size");
  }
  const std::uint64_t nbits = r.varint();
  const std::uint64_t lens_size = r.varint();
  if (lens_size > r.remaining()) {
    throw trace::TraceError("corrupt chunk: length table overruns block");
  }
  const std::size_t lens_begin = blob.size() - r.remaining();
  const std::vector<std::uint8_t> lens_bytes = rle_decode(
      blob.subspan(lens_begin, static_cast<std::size_t>(lens_size)),
      kHuffSymbols);
  std::array<std::uint8_t, kHuffSymbols> lengths{};
  std::copy(lens_bytes.begin(), lens_bytes.end(), lengths.begin());
  const std::size_t bits_begin =
      lens_begin + static_cast<std::size_t>(lens_size);
  const std::size_t bits_bytes = static_cast<std::size_t>((nbits + 7) / 8);
  if (blob.size() - bits_begin != bits_bytes) {
    throw trace::TraceError("corrupt chunk: bitstream size mismatch");
  }
  const std::vector<std::uint8_t> rle = huffman_decode(
      lengths, blob.subspan(bits_begin), nbits,
      static_cast<std::size_t>(rle_size));
  return rle_decode(rle, static_cast<std::size_t>(raw_size));
}

/// One rank's share of the container: its event count, its chunk index
/// entries (offsets relative to `payload`) and its chunk blobs.
struct RankPayload {
  std::uint64_t events = 0;
  std::vector<ChunkInfo> chunks;
  std::vector<std::uint8_t> payload;
};

/// Encode one rank's event stream into chunks. Ranks encode independently,
/// so any number of them can run at once.
RankPayload encode_rank(const trace::RankStream& rs,
                        std::uint64_t chunk_events) {
  RankPayload out;
  out.events = rs.events.size();
  double clock = rs.t0;
  std::uint64_t first = 0;
  while (first < rs.events.size()) {
    const std::uint64_t n =
        std::min<std::uint64_t>(chunk_events, rs.events.size() - first);
    const std::span<const trace::Event> slice(
        rs.events.data() + first, static_cast<std::size_t>(n));
    ChunkInfo info;
    info.rank = rs.rank;
    info.first_event = first;
    info.nevents = n;
    info.t_begin = clock;
    for (const trace::Event& ev : slice) {
      if (ev.has_time) clock = ev.t_before;
    }
    info.t_end = clock;
    const ChunkStreams streams = encode_chunk_events(slice);
    info.raw_size =
        streams.tags.size() + streams.fields.size() + streams.times.size();
    std::uint32_t crc = support::crc32(streams.tags);
    crc = support::crc32(streams.fields, crc);
    crc = support::crc32(streams.times, crc);
    info.crc = crc;
    const std::uint64_t tag_lag = detail::best_lag(streams.tags);
    const std::uint64_t field_lag = detail::best_lag(streams.fields);
    const std::vector<std::uint8_t> tags_b =
        build_block(lag_apply(streams.tags, tag_lag));
    const std::vector<std::uint8_t> fields_b =
        build_block(lag_apply(streams.fields, field_lag));
    const std::vector<std::uint8_t> times_b = build_block(streams.times);
    trace::ByteWriter bw;
    bw.varint(tag_lag);
    bw.varint(field_lag);
    bw.varint(tags_b.size());
    bw.varint(fields_b.size());
    bw.varint(times_b.size());
    const std::vector<std::uint8_t> head = bw.take();
    info.offset = out.payload.size();
    info.size = head.size() + tags_b.size() + fields_b.size() + times_b.size();
    for (const auto* part : {&head, &tags_b, &fields_b, &times_b}) {
      out.payload.insert(out.payload.end(), part->begin(), part->end());
    }
    out.chunks.push_back(info);
    first += n;
  }
  return out;
}

/// Both compress entry points: `encode_ranks(chunk_events)` returns every
/// rank's RankPayload in rank order; this writes the magic, metadata,
/// counts, index (offsets rebased onto the payload section) and payload,
/// and feeds the obs throughput counters.
template <typename EncodeRanks>
std::vector<std::uint8_t> assemble(const trace::TraceFile& skeleton,
                                   const CompressOptions& options,
                                   EncodeRanks&& encode_ranks) {
  const obs::Span obs_span("codec.compress");
  const std::uint64_t t_start = obs::now_ns();
  const std::vector<std::uint8_t> meta = skeleton.encode();
  const std::vector<RankPayload> ranks =
      encode_ranks(std::max<std::uint64_t>(1, options.chunk_events));

  trace::ByteWriter w;
  w.u32le(kMpstzMagic);
  w.u32le(kMpstzVersion);
  w.varint(meta.size());
  for (const std::uint8_t b : meta) w.u8(b);
  w.u32le(support::crc32(meta));
  std::uint64_t nchunks = 0;
  for (const RankPayload& rp : ranks) {
    w.varint(rp.events);
    nchunks += rp.chunks.size();
  }
  w.varint(nchunks);
  std::uint64_t base = 0;
  std::uint64_t raw_in = meta.size();
  for (const RankPayload& rp : ranks) {
    for (const ChunkInfo& c : rp.chunks) {
      w.varint(static_cast<std::uint64_t>(c.rank));
      w.varint(c.first_event);
      w.varint(c.nevents);
      w.f64(c.t_begin);
      w.f64(c.t_end);
      w.varint(base + c.offset);
      w.varint(c.size);
      w.varint(c.raw_size);
      w.u32le(c.crc);
      raw_in += c.raw_size;
    }
    base += rp.payload.size();
  }
  w.varint(base);
  std::vector<std::uint8_t> out = w.take();
  out.reserve(out.size() + static_cast<std::size_t>(base));
  for (const RankPayload& rp : ranks) {
    out.insert(out.end(), rp.payload.begin(), rp.payload.end());
  }

  // Throughput accounting: raw stream bytes in, container bytes out.
  auto& oc = obs::counters();
  oc.codec_compress_bytes_in.fetch_add(raw_in, std::memory_order_relaxed);
  oc.codec_compress_bytes_out.fetch_add(out.size(),
                                        std::memory_order_relaxed);
  oc.codec_compress_ns.fetch_add(obs::now_ns() - t_start,
                                 std::memory_order_relaxed);
  return out;
}

}  // namespace

std::vector<std::uint8_t> compress_stream(
    const trace::TraceFile& skeleton,
    const std::function<const trace::RankStream&(int)>& rank_provider,
    const CompressOptions& options) {
  // Event streams arrive one rank at a time from the provider, so the
  // caller never has to hold every rank's events in memory — the
  // compressed payload (typically ~10x smaller) is all that accumulates.
  // The provider's reference dies with the next call, so ranks encode
  // one after another.
  return assemble(skeleton, options, [&](std::uint64_t chunk_events) {
    std::vector<RankPayload> ranks;
    ranks.reserve(skeleton.ranks.size());
    for (int ri = 0; ri < static_cast<int>(skeleton.ranks.size()); ++ri) {
      ranks.push_back(encode_rank(rank_provider(ri), chunk_events));
    }
    return ranks;
  });
}

std::vector<std::uint8_t> compress(const trace::TraceFile& tf,
                                   const CompressOptions& options) {
  // Skeleton: per-rank metadata without the event lists (no event copies).
  trace::TraceFile skeleton;
  skeleton.header = tf.header;
  skeleton.labels = tf.labels;
  skeleton.ranks.reserve(tf.ranks.size());
  for (const auto& rs : tf.ranks) {
    trace::RankStream s;
    s.rank = rs.rank;
    s.t0 = rs.t0;
    s.t_final = rs.t_final;
    s.totals = rs.totals;
    skeleton.ranks.push_back(std::move(s));
  }
  return assemble(skeleton, options, [&tf](std::uint64_t chunk_events) {
    std::vector<RankPayload> ranks(tf.ranks.size());
    support::parallel_for(ranks.size(), tf.total_events(), [&](std::size_t r) {
      ranks[r] = encode_rank(tf.ranks[r], chunk_events);
    });
    return ranks;
  });
}

bool is_mpstz(std::span<const std::uint8_t> data) noexcept {
  if (data.size() < 4) return false;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(data[static_cast<std::size_t>(i)])
             << (8 * i);
  }
  return magic == kMpstzMagic;
}

MpstzReader::MpstzReader(std::vector<std::uint8_t> data)
    : data_(std::move(data)) {
  trace::ByteReader r(data_);
  if (r.u32le() != kMpstzMagic) {
    throw trace::TraceError("not an mpisect compressed trace (bad magic)");
  }
  const std::uint32_t version = r.u32le();
  if (version < 1 || version > kMpstzVersion) {
    throw trace::TraceError("unsupported .mpstz version " +
                            std::to_string(version));
  }
  const std::uint64_t meta_size = r.varint();
  if (meta_size > r.remaining()) {
    throw trace::TraceError("truncated trace: metadata overruns file");
  }
  const std::size_t meta_begin = data_.size() - r.remaining();
  const std::span<const std::uint8_t> meta(data_.data() + meta_begin,
                                           static_cast<std::size_t>(meta_size));
  for (std::uint64_t i = 0; i < meta_size; ++i) (void)r.u8();
  if (r.u32le() != support::crc32(meta)) {
    throw trace::TraceError("corrupt trace: metadata CRC mismatch");
  }
  skeleton_ = trace::TraceFile::decode(meta);
  for (const trace::RankStream& rs : skeleton_.ranks) {
    if (!rs.events.empty()) {
      throw trace::TraceError("corrupt trace: metadata blob carries events");
    }
  }

  rank_event_counts_.reserve(skeleton_.ranks.size());
  for (std::size_t i = 0; i < skeleton_.ranks.size(); ++i) {
    rank_event_counts_.push_back(r.varint());
  }

  std::unordered_map<int, std::size_t> rank_index;
  for (std::size_t i = 0; i < skeleton_.ranks.size(); ++i) {
    rank_index[skeleton_.ranks[i].rank] = i;
  }

  const std::uint64_t nchunks = r.varint();
  std::uint64_t total_events = 0;
  for (const std::uint64_t c : rank_event_counts_) total_events += c;
  if (nchunks > total_events) {
    throw trace::TraceError("corrupt trace: more chunks than events");
  }
  if (nchunks > r.remaining() / kMinIndexEntryBytes) {
    throw trace::TraceError("corrupt trace: chunk index overruns file");
  }
  std::vector<std::uint64_t> next_event(skeleton_.ranks.size(), 0);
  std::uint64_t next_offset = 0;
  chunks_.reserve(static_cast<std::size_t>(nchunks));
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    ChunkInfo c;
    c.rank = static_cast<int>(r.varint());
    c.first_event = r.varint();
    c.nevents = r.varint();
    c.t_begin = r.f64();
    c.t_end = r.f64();
    c.offset = r.varint();
    c.size = r.varint();
    c.raw_size = r.varint();
    c.crc = r.u32le();
    const auto it = rank_index.find(c.rank);
    if (it == rank_index.end()) {
      throw trace::TraceError("corrupt trace: chunk names unknown rank " +
                              std::to_string(c.rank));
    }
    // The payload follows the index, so a chunk fits in what is left; its
    // events must fit in its payload.
    if (c.size > r.remaining() || c.nevents > c.size * kMaxRawPerCodedByte) {
      throw trace::TraceError(
          "corrupt trace: chunk claims more events than its payload holds");
    }
    if (c.nevents == 0 || c.first_event != next_event[it->second]) {
      throw trace::TraceError("corrupt trace: chunk index out of order");
    }
    next_event[it->second] = c.first_event + c.nevents;
    if (c.offset != next_offset) {
      throw trace::TraceError("corrupt trace: chunk payload not contiguous");
    }
    next_offset = c.offset + c.size;
    if (c.raw_size > c.nevents * kMaxEventWireBytes + 16) {
      throw trace::TraceError("corrupt trace: implausible chunk raw size");
    }
    chunks_.push_back(c);
  }
  for (std::size_t i = 0; i < skeleton_.ranks.size(); ++i) {
    if (next_event[i] != rank_event_counts_[i]) {
      throw trace::TraceError("corrupt trace: chunks do not cover rank " +
                              std::to_string(skeleton_.ranks[i].rank));
    }
  }

  payload_size_ = r.varint();
  if (payload_size_ != next_offset) {
    throw trace::TraceError("corrupt trace: payload size != chunk extents");
  }
  if (payload_size_ > r.remaining()) {
    throw trace::TraceError("truncated trace: payload overruns file");
  }
  payload_begin_ = data_.size() - r.remaining();
  if (r.remaining() != payload_size_) {
    throw trace::TraceError("corrupt trace: trailing bytes after payload");
  }
}

std::vector<trace::Event> MpstzReader::chunk_events(std::size_t index) {
  if (index >= chunks_.size()) {
    throw trace::TraceError("chunk index out of range");
  }
  const ChunkInfo& c = chunks_[index];
  bytes_decoded_ += c.size;
  std::vector<trace::Event> events(static_cast<std::size_t>(c.nevents));
  decode_chunk(c, events);
  return events;
}

void MpstzReader::decode_chunk(const ChunkInfo& c,
                               std::span<trace::Event> out) const {
  const std::span<const std::uint8_t> blob(
      data_.data() + payload_begin_ + static_cast<std::size_t>(c.offset),
      static_cast<std::size_t>(c.size));
  if (blob.empty()) {
    throw trace::TraceError("corrupt chunk: empty payload");
  }
  trace::ByteReader r(blob);
  const std::uint64_t tag_lag = r.varint();
  const std::uint64_t field_lag = r.varint();
  const std::uint64_t tags_len = r.varint();
  const std::uint64_t fields_len = r.varint();
  const std::uint64_t times_len = r.varint();
  if (tags_len > r.remaining() || fields_len > r.remaining() - tags_len ||
      times_len != r.remaining() - tags_len - fields_len) {
    throw trace::TraceError("corrupt chunk: sub-block sizes != payload");
  }
  const std::size_t body = blob.size() - r.remaining();
  ChunkStreams s;
  s.tags = decode_block(
      blob.subspan(body, static_cast<std::size_t>(tags_len)), c.nevents);
  lag_undo(s.tags, tag_lag);
  std::uint64_t n_timed = 0;
  for (const std::uint8_t tag : s.tags) {
    if (tag & 0x80) ++n_timed;
  }
  const std::uint64_t times_raw = 8 * n_timed;
  if (c.raw_size < c.nevents + times_raw) {
    throw trace::TraceError("corrupt chunk: raw size below stream floor");
  }
  const std::uint64_t fields_raw = c.raw_size - c.nevents - times_raw;
  s.fields = decode_block(
      blob.subspan(body + static_cast<std::size_t>(tags_len),
                   static_cast<std::size_t>(fields_len)),
      fields_raw);
  lag_undo(s.fields, field_lag);
  s.times = decode_block(
      blob.subspan(body + static_cast<std::size_t>(tags_len + fields_len),
                   static_cast<std::size_t>(times_len)),
      times_raw);
  std::uint32_t crc = support::crc32(s.tags);
  crc = support::crc32(s.fields, crc);
  crc = support::crc32(s.times, crc);
  if (crc != c.crc) {
    throw trace::TraceError("corrupt chunk: CRC mismatch");
  }
  decode_chunk_events(s, out);
}

trace::TraceFile MpstzReader::all() {
  // The constructor proved that each rank's chunks tile its event list,
  // so every chunk decodes straight into its own slice of the output, in
  // parallel. parallel_for rethrows the lowest-index failure: the error a
  // chunk-by-chunk loop in index order would raise. The event lists are
  // sized in parallel too: on a Lulesh p = 512 trace, first-touching
  // their 12 MB alone took 10 ms, two thirds of the parallel decode.
  trace::TraceFile out = skeleton_;
  std::unordered_map<int, std::size_t> rank_index;
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < out.ranks.size(); ++i) {
    rank_index[out.ranks[i].rank] = i;
    total_events += rank_event_counts_[i];
  }
  support::parallel_for(out.ranks.size(), total_events, [&](std::size_t i) {
    out.ranks[i].events.resize(
        static_cast<std::size_t>(rank_event_counts_[i]));
  });
  support::parallel_for(chunks_.size(), total_events, [&](std::size_t i) {
    const ChunkInfo& c = chunks_[i];
    std::vector<trace::Event>& events =
        out.ranks[rank_index.at(c.rank)].events;
    decode_chunk(c, std::span(events).subspan(
                        static_cast<std::size_t>(c.first_event),
                        static_cast<std::size_t>(c.nevents)));
  });
  bytes_decoded_ += payload_size_;
  return out;
}

std::vector<trace::Event> MpstzReader::window(int rank, double t0, double t1) {
  std::vector<trace::Event> out;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& c = chunks_[i];
    if (c.rank != rank || c.t_begin > t1 || c.t_end < t0) continue;
    std::vector<trace::Event> events = chunk_events(i);
    out.insert(out.end(), events.begin(), events.end());
  }
  return out;
}

namespace {

/// Decode the full container, feeding the obs decompression throughput
/// counters (event bytes reconstructed per wall-clock nanosecond).
trace::TraceFile timed_all(MpstzReader&& reader) {
  const obs::Span obs_span("codec.decompress");
  const std::uint64_t t_start = obs::now_ns();
  trace::TraceFile tf = reader.all();
  auto& oc = obs::counters();
  oc.codec_decompress_bytes_out.fetch_add(reader.bytes_decoded(),
                                          std::memory_order_relaxed);
  oc.codec_decompress_ns.fetch_add(obs::now_ns() - t_start,
                                   std::memory_order_relaxed);
  return tf;
}

}  // namespace

trace::TraceFile decompress(std::span<const std::uint8_t> data) {
  return timed_all(
      MpstzReader(std::vector<std::uint8_t>(data.begin(), data.end())));
}

trace::TraceFile load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw trace::TraceError("cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (is_mpstz(bytes)) {
    return timed_all(MpstzReader(std::move(bytes)));
  }
  return trace::TraceFile::decode(bytes);
}

std::uint64_t trace_digest(const trace::TraceFile& tf) {
  return support::fnv1a64(tf.encode());
}

}  // namespace mpisect::codec
