// .mpstz codec: bit-exact roundtrips, chunked random access with the
// bytes-decoded accounting, compression-pipeline unit coverage (RLE,
// canonical Huffman), exactness of the pruned lag search against the full
// scan, pinned container bytes, integrity rejection of corrupted
// containers, and the parallel encode/decode against the serial paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "codec/huffman.hpp"
#include "codec/mpstz.hpp"
#include "codec/rle.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "support/digest.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace/event_wire.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect;

trace::TraceFile record_convolution(int ranks, int steps) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(ranks, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "codec-fixture"});
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

trace::TraceFile record_lulesh(int ranks, int steps) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::knl();
  opts.seed = 0x5EED;
  mpisim::World world(ranks, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "codec-lulesh"});
  apps::lulesh::LuleshConfig cfg;
  cfg.steps = steps;
  cfg.s = 4;
  cfg.full_fidelity = false;
  apps::lulesh::LuleshApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------- RLE --

TEST(Rle, RoundtripsRunsAndLiterals) {
  std::vector<std::uint8_t> raw = bytes_of("abc");
  raw.insert(raw.end(), 300, 0);
  raw.push_back(7);
  raw.insert(raw.end(), 2, 9);  // short run stays literal
  const auto coded = codec::rle_encode(raw);
  EXPECT_LT(coded.size(), raw.size());
  EXPECT_EQ(codec::rle_decode(coded, raw.size()), raw);
}

TEST(Rle, RoundtripsEmptyAndIncompressible) {
  EXPECT_TRUE(codec::rle_decode(codec::rle_encode({}), 0).empty());
  std::vector<std::uint8_t> raw;
  for (int i = 0; i < 500; ++i) raw.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(codec::rle_decode(codec::rle_encode(raw), raw.size()), raw);
}

TEST(Rle, RejectsCorruptStreams) {
  const std::vector<std::uint8_t> reserved = {128};
  EXPECT_THROW((void)codec::rle_decode(reserved, 1), trace::TraceError);
  const std::vector<std::uint8_t> overrun = {10};  // 11 literals, none given
  EXPECT_THROW((void)codec::rle_decode(overrun, 11), trace::TraceError);
  const auto coded = codec::rle_encode(bytes_of("xyzzy"));
  EXPECT_THROW((void)codec::rle_decode(coded, 3), trace::TraceError);  // short
  EXPECT_THROW((void)codec::rle_decode(coded, 9), trace::TraceError);  // long
}

// ------------------------------------------------------------ Huffman --

TEST(Huffman, RoundtripsSkewedAndUniformInputs) {
  support::SequentialRng rng(0xC0DEC);
  std::vector<std::uint8_t> skewed;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = rng.next();
    skewed.push_back(r % 10 == 0 ? static_cast<std::uint8_t>(r) : 0);
  }
  for (const auto& raw : {skewed, bytes_of("aaaaaaab"), bytes_of("z")}) {
    const codec::HuffmanEncoded enc = codec::huffman_encode(raw);
    EXPECT_EQ(codec::huffman_decode(enc.lengths, enc.bits, enc.nbits,
                                    raw.size()),
              raw);
  }
  // Heavily skewed input entropy-codes well below 8 bits/symbol.
  const codec::HuffmanEncoded enc = codec::huffman_encode(skewed);
  EXPECT_LT(enc.bits.size(), skewed.size() / 2);
}

TEST(Huffman, EmptyInput) {
  const codec::HuffmanEncoded enc = codec::huffman_encode({});
  EXPECT_EQ(enc.nbits, 0u);
  EXPECT_TRUE(
      codec::huffman_decode(enc.lengths, enc.bits, enc.nbits, 0).empty());
}

TEST(Huffman, RejectsInvalidTablesAndTruncatedBits) {
  const auto raw = bytes_of("canonical huffman canonical huffman");
  codec::HuffmanEncoded enc = codec::huffman_encode(raw);
  // Over-full table: shortening a code length breaks the Kraft equality.
  auto bad = enc.lengths;
  for (auto& len : bad) {
    if (len > 1) {
      len = static_cast<std::uint8_t>(len - 1);
      break;
    }
  }
  EXPECT_THROW(
      (void)codec::huffman_decode(bad, enc.bits, enc.nbits, raw.size()),
      trace::TraceError);
  // Truncated bitstream.
  EXPECT_THROW((void)codec::huffman_decode(enc.lengths, enc.bits,
                                           enc.nbits / 2, raw.size()),
               trace::TraceError);
  // Bit count exceeding the payload.
  EXPECT_THROW((void)codec::huffman_decode(enc.lengths, enc.bits,
                                           8 * enc.bits.size() + 9,
                                           raw.size()),
               trace::TraceError);
}

// ------------------------------------------------------------- .mpstz --

TEST(Mpstz, RoundtripIsBitExact) {
  const trace::TraceFile tf = record_convolution(8, 20);
  const std::vector<std::uint8_t> mpst = tf.encode();
  const std::vector<std::uint8_t> mpstz = codec::compress(tf);
  const trace::TraceFile back = codec::decompress(mpstz);
  EXPECT_EQ(back.encode(), mpst) << "decode(encode(t)) must be byte-exact";
}

TEST(Mpstz, RoundtripIsBitExactAcrossChunkBoundaries) {
  const trace::TraceFile tf = record_convolution(4, 30);
  const std::vector<std::uint8_t> mpst = tf.encode();
  for (const std::uint64_t chunk_events :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{64},
        std::uint64_t{1} << 20}) {
    const auto mpstz = codec::compress(tf, {.chunk_events = chunk_events});
    EXPECT_EQ(codec::decompress(mpstz).encode(), mpst)
        << "chunk_events=" << chunk_events;
  }
}

TEST(Mpstz, CompressesRealTraces) {
  const trace::TraceFile tf = record_convolution(16, 40);
  const std::vector<std::uint8_t> mpst = tf.encode();
  const std::vector<std::uint8_t> mpstz = codec::compress(tf);
  const double ratio = static_cast<double>(mpst.size()) /
                       static_cast<double>(mpstz.size());
  // The acceptance bar (>= 3x on the 64-rank traces) is enforced by
  // bench_codec / CI; the smaller fixture clears it too.
  EXPECT_GE(ratio, 3.0) << mpst.size() << " -> " << mpstz.size();
}

TEST(Mpstz, SeekedWindowDecodesOnlyNeededChunks) {
  const trace::TraceFile tf = record_convolution(4, 40);
  const auto mpstz = codec::compress(tf, {.chunk_events = 64});
  codec::MpstzReader full(mpstz);
  const trace::TraceFile all = full.all();
  const std::uint64_t full_bytes = full.bytes_decoded();
  ASSERT_GT(full_bytes, 0u);
  EXPECT_EQ(all.encode(), tf.encode());

  // A window over the middle fifth of rank 1's run.
  const trace::RankStream& rs = tf.ranks[1];
  const double span = rs.t_final - rs.t0;
  const double t0 = rs.t0 + 0.4 * span;
  const double t1 = rs.t0 + 0.6 * span;
  codec::MpstzReader seek(mpstz);
  const std::vector<trace::Event> events = seek.window(1, t0, t1);
  EXPECT_FALSE(events.empty());
  EXPECT_LT(seek.bytes_decoded(), full_bytes / 2)
      << "a narrow window must not decode most of the payload";

  // The window is a contiguous slice of the rank's stream: every covered
  // chunk decodes to exactly the recorded events.
  bool found = false;
  for (std::size_t start = 0;
       start + events.size() <= rs.events.size() && !found; ++start) {
    bool match = true;
    for (std::size_t i = 0; i < events.size() && match; ++i) {
      trace::ByteWriter a, b;
      std::uint64_t pa = 0, pb = 0;
      trace::encode_event(a, events[i], pa);
      trace::encode_event(b, rs.events[start + i], pb);
      match = a.bytes() == b.bytes();
    }
    found = match;
  }
  EXPECT_TRUE(found) << "window events must be a slice of the rank stream";
}

TEST(Mpstz, DigestIsFormatIndependent) {
  const trace::TraceFile tf = record_convolution(4, 10);
  const std::string mpst_path =
      testutil::unique_temp_path("codec_digest", ".mpst");
  const std::string mpstz_path =
      testutil::unique_temp_path("codec_digest", ".mpstz");
  tf.save(mpst_path);
  const auto z = codec::compress(tf);
  {
    std::FILE* f = std::fopen(mpstz_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(z.data(), 1, z.size(), f), z.size());
    std::fclose(f);
  }
  const trace::TraceFile a = codec::load_trace(mpst_path);
  const trace::TraceFile b = codec::load_trace(mpstz_path);
  EXPECT_EQ(codec::trace_digest(a), codec::trace_digest(b));
  EXPECT_EQ(a.encode(), b.encode());
  std::remove(mpst_path.c_str());
  std::remove(mpstz_path.c_str());
}

TEST(Mpstz, ReplayOfDecompressedTraceVerifies) {
  const trace::TraceFile tf = record_convolution(4, 10);
  const trace::TraceFile back = codec::decompress(codec::compress(tf));
  const trace::VerifyResult v = trace::verify_roundtrip(back);
  EXPECT_TRUE(v.ok) << v.detail;
}

TEST(Mpstz, CorruptionIsRejectedNotUB) {
  const trace::TraceFile tf = record_convolution(3, 8);
  const auto mpstz = codec::compress(tf, {.chunk_events = 32});
  // Payload CRC: flip one bit in the last quarter (chunk payload bytes).
  {
    auto mutant = mpstz;
    mutant[mutant.size() - mutant.size() / 4] ^= 0x01;
    EXPECT_THROW((void)codec::decompress(mutant), trace::TraceError);
  }
  // Metadata CRC: flip a byte just past the fixed header.
  {
    auto mutant = mpstz;
    mutant[16] ^= 0x10;
    EXPECT_THROW((void)codec::decompress(mutant), trace::TraceError);
  }
  // Bad magic and version.
  {
    auto mutant = mpstz;
    mutant[0] ^= 0xFF;
    EXPECT_THROW((void)codec::decompress(mutant), trace::TraceError);
    mutant = mpstz;
    mutant[4] = 0x7F;
    EXPECT_THROW((void)codec::decompress(mutant), trace::TraceError);
  }
  // The raw .mpst reader names the right remedy for .mpstz input.
  try {
    (void)trace::TraceFile::decode(mpstz);
    FAIL() << "raw reader must reject compressed containers";
  } catch (const trace::TraceError& err) {
    EXPECT_NE(std::string(err.what()).find("mpstz"), std::string::npos);
  }
}

TEST(Mpstz, ContainerBytesArePinned) {
  // The lag search and every other encoder stage are deterministic, so a
  // fixed trace has one container. Captured before the pruned lag search
  // replaced the full scan; any change to these bytes is a format change.
  const std::vector<std::uint8_t> mpstz =
      codec::compress(record_convolution(64, 200));
  EXPECT_EQ(mpstz.size(), 126143u);
  EXPECT_EQ(support::fnv1a64(mpstz), 0x4CCE5B5D3F3687D7ull);
}

// ------------------------------------------------- parallel vs serial --

/// compress_stream the way `record --compress` drives it: a skeleton with
/// empty event lists and a provider whose reference dies at the next call.
std::vector<std::uint8_t> compress_streaming(
    const trace::TraceFile& tf, const codec::CompressOptions& options) {
  trace::TraceFile skeleton = tf;
  for (trace::RankStream& rs : skeleton.ranks) rs.events.clear();
  trace::RankStream scratch;
  return codec::compress_stream(
      skeleton,
      [&](int r) -> const trace::RankStream& {
        scratch = tf.ranks[static_cast<std::size_t>(r)];
        return scratch;
      },
      options);
}

TEST(Mpstz, ParallelCompressMatchesStreamingCompress) {
  const trace::TraceFile conv = record_convolution(64, 20);
  const trace::TraceFile lulesh = record_lulesh(64, 2);
  for (const trace::TraceFile* tf : {&conv, &lulesh}) {
    ASSERT_GE(tf->total_events(), support::kParallelMinWork)
        << "fixture too small to take the parallel path";
    for (const std::uint64_t chunk_events :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{64},
          std::uint64_t{16384}}) {
      const codec::CompressOptions options{.chunk_events = chunk_events};
      const std::vector<std::uint8_t> parallel = codec::compress(*tf, options);
      EXPECT_EQ(parallel, compress_streaming(*tf, options))
          << tf->header.app << " chunk_events=" << chunk_events;
      EXPECT_EQ(codec::decompress(parallel).encode(), tf->encode())
          << tf->header.app << " chunk_events=" << chunk_events;
    }
  }
  // Edge shapes: one rank, and a rank that recorded no events.
  trace::TraceFile one = conv;
  one.ranks.resize(1);
  one.header.nranks = 1;
  trace::TraceFile hole = conv;
  hole.ranks[5].events.clear();
  for (const trace::TraceFile* tf : {&one, &hole}) {
    const std::vector<std::uint8_t> parallel = codec::compress(*tf);
    EXPECT_EQ(parallel, compress_streaming(*tf, {}));
    EXPECT_EQ(codec::decompress(parallel).encode(), tf->encode());
  }
}

TEST(Mpstz, ParallelDecodeMatchesChunkByChunkDecode) {
  const trace::TraceFile tf = record_convolution(64, 20);
  const std::vector<std::uint8_t> bytes =
      codec::compress(tf, {.chunk_events = 64});
  codec::MpstzReader parallel(bytes);
  const trace::TraceFile all = parallel.all();
  codec::MpstzReader serial(bytes);
  std::vector<std::vector<trace::Event>> by_rank(tf.ranks.size());
  for (std::size_t c = 0; c < serial.chunks().size(); ++c) {
    const std::vector<trace::Event> events = serial.chunk_events(c);
    auto& dst = by_rank[static_cast<std::size_t>(serial.chunks()[c].rank)];
    dst.insert(dst.end(), events.begin(), events.end());
  }
  trace::TraceFile rebuilt = tf;
  for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
    rebuilt.ranks[r].events = by_rank[r];
  }
  EXPECT_EQ(all.encode(), tf.encode());
  EXPECT_EQ(rebuilt.encode(), tf.encode());
  EXPECT_EQ(parallel.bytes_decoded(), serial.bytes_decoded());
}

/// Byte offset of chunk `chunk`'s index CRC and of the `times_len` size
/// varint at the head of its payload blob.
struct ChunkSites {
  std::size_t crc = 0;
  std::size_t times_len = 0;
};

ChunkSites locate_chunk(const std::vector<std::uint8_t>& bytes,
                        std::size_t nranks, std::size_t chunk) {
  trace::ByteReader r(bytes);
  const auto pos = [&] { return bytes.size() - r.remaining(); };
  (void)r.u32le();
  (void)r.u32le();
  const std::uint64_t meta_size = r.varint();
  for (std::uint64_t i = 0; i < meta_size; ++i) (void)r.u8();
  (void)r.u32le();
  for (std::size_t i = 0; i < nranks; ++i) (void)r.varint();
  const std::uint64_t nchunks = r.varint();
  ChunkSites sites;
  std::uint64_t offset = 0;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    for (int v = 0; v < 3; ++v) (void)r.varint();
    (void)r.f64();
    (void)r.f64();
    const std::uint64_t off = r.varint();
    for (int v = 0; v < 2; ++v) (void)r.varint();
    if (i == chunk) {
      sites.crc = pos();
      offset = off;
    }
    (void)r.u32le();
  }
  (void)r.varint();
  trace::ByteReader blob(std::span<const std::uint8_t>(bytes).subspan(
      pos() + static_cast<std::size_t>(offset)));
  for (int v = 0; v < 4; ++v) (void)blob.varint();
  sites.times_len = bytes.size() - blob.remaining();
  return sites;
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const trace::TraceError& err) {
    return err.what();
  }
  return "";
}

TEST(Mpstz, ParallelDecodeReportsFirstCorruptChunk) {
  const trace::TraceFile tf = record_convolution(64, 20);
  const std::vector<std::uint8_t> bytes =
      codec::compress(tf, {.chunk_events = 64});
  ASSERT_GE(tf.total_events(), support::kParallelMinWork);
  ASSERT_GT(codec::MpstzReader(bytes).chunks().size(), 40u);
  const ChunkSites c3 = locate_chunk(bytes, tf.ranks.size(), 3);

  // Both chunks fail their CRC; one of them also fails its size check,
  // which runs before the decode, so the two errors read differently and
  // the test can tell which chunk decompress reported. Chunk 4 is claimed
  // alongside chunk 3 and, when it fails fast, fails first in wall time.
  for (const std::size_t later_index : {std::size_t{40}, std::size_t{4}}) {
    const ChunkSites later_sites =
        locate_chunk(bytes, tf.ranks.size(), later_index);
    for (const bool low_sizes : {false, true}) {
      std::vector<std::uint8_t> mutant = bytes;
      mutant[c3.crc] ^= 0xFF;
      mutant[later_sites.crc] ^= 0xFF;
      mutant[(low_sizes ? c3 : later_sites).times_len] ^= 0x01;
      codec::MpstzReader reader(mutant);
      const std::string first =
          error_of([&] { (void)reader.chunk_events(3); });
      const std::string later =
          error_of([&] { (void)reader.chunk_events(later_index); });
      ASSERT_FALSE(first.empty());
      ASSERT_FALSE(later.empty());
      ASSERT_NE(first, later);
      for (int rep = 0; rep < 50; ++rep) {
        EXPECT_EQ(error_of([&] { (void)codec::decompress(mutant); }), first)
            << "chunks 3 and " << later_index << ", repeat " << rep;
      }
    }
  }
}

// ---------------------------------------------------------- lag search --

/// The full O(4096 * n) scan the pruned search must reproduce exactly.
std::uint64_t reference_best_lag(std::span<const std::uint8_t> bytes) {
  std::uint64_t best = 0;
  std::size_t best_zeros = 0;
  for (const std::uint8_t b : bytes) {
    if (b == 0) ++best_zeros;
  }
  const std::size_t max_lag =
      bytes.empty() ? 0 : std::min<std::size_t>(4096, bytes.size() - 1);
  for (std::size_t lag = 1; lag <= max_lag; ++lag) {
    std::size_t zeros = 0;
    for (std::size_t i = lag; i < bytes.size(); ++i) {
      if (bytes[i] == bytes[i - lag]) ++zeros;
    }
    if (zeros > best_zeros) {
      best_zeros = zeros;
      best = lag;
    }
  }
  return best;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed,
                                       unsigned alphabet) {
  support::SequentialRng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() % alphabet);
  return out;
}

/// `period` random bytes repeated to length n, with every `flip_every`-th
/// byte perturbed so the stream is only near-periodic.
std::vector<std::uint8_t> periodic_bytes(std::size_t n, std::size_t period,
                                         std::size_t flip_every,
                                         std::uint64_t seed) {
  const std::vector<std::uint8_t> motif = random_bytes(period, seed, 256);
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = motif[i % period];
    if (flip_every != 0 && i % flip_every == flip_every - 1) out[i] ^= 0x5A;
  }
  return out;
}

void expect_exact(const std::vector<std::uint8_t>& bytes,
                  const std::string& what) {
  EXPECT_EQ(codec::detail::best_lag(bytes), reference_best_lag(bytes))
      << what << " (n=" << bytes.size() << ")";
}

TEST(MpstzLagSearch, MatchesFullScanAcrossBlockAndLagBoundaries) {
  // Around the 16-byte vector width, the 4080-byte count block and the
  // 4096 lag cap.
  for (const std::size_t n :
       {0, 1, 2, 15, 16, 17, 31, 4079, 4080, 4081, 4097, 4098, 8161, 12000}) {
    for (const unsigned alphabet : {2u, 4u, 256u}) {
      expect_exact(random_bytes(n, 0xB16 + n, alphabet),
                   "random alphabet " + std::to_string(alphabet));
    }
    expect_exact(periodic_bytes(n, 37, 0, n), "period 37");
    expect_exact(periodic_bytes(n, 100, 7, n), "noisy period 100");
  }
}

TEST(MpstzLagSearch, ConstantStreams) {
  for (const std::size_t n : {1, 16, 4081, 9000}) {
    const std::vector<std::uint8_t> zeros(n, 0);
    EXPECT_EQ(codec::detail::best_lag(zeros), 0u) << n;
    expect_exact(zeros, "all zero");
    const std::vector<std::uint8_t> ones(n, 1);
    EXPECT_EQ(codec::detail::best_lag(ones), n > 1 ? 1u : 0u) << n;
    expect_exact(ones, "all one");
  }
}

TEST(MpstzLagSearch, PeriodAboveTheLagCap) {
  // No searchable lag reaches the true period; the best partial match
  // must still be the one the full scan picks.
  for (const std::size_t period : {4097, 5000, 6007}) {
    expect_exact(periodic_bytes(3 * period, period, 0, period),
                 "period " + std::to_string(period));
    expect_exact(periodic_bytes(2 * period + 123, period, 11, period),
                 "noisy period " + std::to_string(period));
  }
}

TEST(MpstzLagSearch, TiesGoToTheSmallestLag) {
  // Period 3 over 61 bytes: lag 3 matches 58 pairs, lag 6 matches 55.
  // Overwriting s[3] breaks two lag-3 pairs but one lag-6 pair (there is
  // no s[-3]); overwriting s[30] and s[36] alike breaks four lag-3 pairs
  // but two lag-6 pairs. Both lags end at 52 and the smaller must win.
  std::vector<std::uint8_t> s;
  for (int i = 0; i < 61; ++i) {
    s.push_back(static_cast<std::uint8_t>(1 + i % 3));
  }
  s[3] = s[30] = s[36] = 9;
  std::vector<std::size_t> counts(7, 0);
  for (std::size_t lag = 1; lag <= 6; ++lag) {
    for (std::size_t i = lag; i < s.size(); ++i) {
      if (s[i] == s[i - lag]) ++counts[lag];
    }
  }
  ASSERT_EQ(counts[3], 52u);
  ASSERT_EQ(counts[6], 52u) << "fixture must force a tie";
  EXPECT_EQ(codec::detail::best_lag(s), 3u);
  expect_exact(s, "forced tie");

  // Random two-letter streams tie constantly; each must resolve the same
  // way the full scan resolves it.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_exact(random_bytes(8 + seed % 64, seed, 2), "binary");
  }
}

TEST(Mpstz, EveryTruncationIsRejected) {
  const trace::TraceFile tf = record_convolution(3, 6);
  const auto mpstz = codec::compress(tf, {.chunk_events = 16});
  support::SequentialRng rng(0x7A12);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 48 && n < mpstz.size(); ++n) lengths.push_back(n);
  for (std::size_t n = mpstz.size() - 48; n < mpstz.size(); ++n) {
    lengths.push_back(n);
  }
  for (int i = 0; i < 150; ++i) lengths.push_back(rng.next() % mpstz.size());
  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> prefix(mpstz.begin(),
                                           mpstz.begin() + n);
    EXPECT_THROW((void)codec::decompress(prefix), trace::TraceError)
        << "prefix length " << n;
  }
}

}  // namespace
