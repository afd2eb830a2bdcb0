// Trace-format corruption fuzzing (deterministic, seeded): random byte
// flips and truncations of a valid encoded trace must either decode
// successfully or throw trace::TraceError — never crash, never trip
// ASan/UBSan, never abort. Traces that *do* decode are then pushed
// through the offline analyzer, which must likewise either finish or
// reject with TraceError: corrupt backrefs, impossible clocks and
// truncated streams are all structural errors, not undefined behaviour.
//
// The same contract covers the compressed .mpstz container: flips in the
// chunk index, Huffman length tables and payloads, and truncations at
// every chunk boundary, all through both the eager (parallel)
// decompressor and a serial chunk-by-chunk reference, which must accept,
// reject and word their errors alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/message.hpp"
#include "mpisim/runtime.hpp"
#include "support/rng.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace {

using namespace mpisect;

/// A small but representative trace: wildcard receives (so the analyzer's
/// vector-clock and match-set paths run), sections, and a barrier-free
/// p2p mesh across 3 ranks.
trace::TraceFile record_fixture() {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(3, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "fuzz-fixture"});
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm world_comm = ctx.world_comm();
    sections::MPIX_Section_enter(world_comm, "FUZZ");
    char buf[4] = {};
    static const char payload[4] = {};
    switch (world_comm.rank()) {
      case 0:
        world_comm.recv(buf, sizeof buf, mpisim::kAnySource, 5);
        world_comm.recv(buf, sizeof buf, mpisim::kAnySource, 5);
        break;
      case 1:
        world_comm.send(payload, sizeof payload, 0, 5);
        world_comm.send(payload, sizeof payload, 2, 9);
        break;
      case 2:
        world_comm.recv(buf, sizeof buf, 1, 9);
        world_comm.send(payload, sizeof payload, 0, 5);
        break;
      default:
        break;
    }
    sections::MPIX_Section_exit(world_comm, "FUZZ");
  });
  return rec->finish();
}

/// Decode + analyze, accepting only clean success or TraceError.
/// Returns true if the mutant decoded (for coverage accounting).
bool exercise(std::span<const std::uint8_t> bytes) {
  trace::TraceFile tf;
  try {
    tf = trace::TraceFile::decode(bytes);
  } catch (const trace::TraceError&) {
    return false;  // rejected cleanly — the expected common case
  }
  try {
    (void)analysis::analyze(tf);
  } catch (const trace::TraceError&) {
    // Structurally inconsistent but decodable: also a clean rejection.
  }
  return true;
}

/// An 8-rank ring with one section per rank.
trace::TraceFile record_ring() {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(8, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "fuzz-ring"});
  world.run([](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    sections::MPIX_Section_enter(comm, "RING");
    char buf[8] = {};
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.sendrecv(buf, sizeof buf, next, 1, buf, sizeof buf, prev, 1);
    sections::MPIX_Section_exit(comm, "RING");
  });
  return rec->finish();
}

/// LEB128 varint at bytes[pos]: (value, encoded length).
std::pair<std::uint64_t, std::size_t> read_varint(
    const std::vector<std::uint8_t>& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::size_t len = 0;
  for (;; ++len) {
    v |= static_cast<std::uint64_t>(bytes.at(pos + len) & 0x7F) << (7 * len);
    if ((bytes[pos + len] & 0x80) == 0) return {v, len + 1};
  }
}

/// Replace the varint at bytes[pos] with `value`.
void patch_varint(std::vector<std::uint8_t>& bytes, std::size_t pos,
                  std::uint64_t value) {
  std::vector<std::uint8_t> enc;
  do {
    enc.push_back(static_cast<std::uint8_t>((value & 0x7F) |
                                            (value > 0x7F ? 0x80 : 0)));
    value >>= 7;
  } while (value != 0);
  const auto at = bytes.begin() + static_cast<std::ptrdiff_t>(pos);
  const auto len = static_cast<std::ptrdiff_t>(read_varint(bytes, pos).second);
  bytes.erase(at, at + len);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), enc.begin(),
               enc.end());
}

TEST(TraceFuzz, HugeEventCountIsRejectedBeforeAllocating) {
  const trace::TraceFile tf = record_ring();
  std::vector<std::uint8_t> bytes = tf.encode();
  // Rank 0's stream starts where the preamble (header, labels, stream
  // count) ends; its event count follows the rank id and two f64 clocks.
  trace::TraceFile preamble = tf;
  preamble.ranks.clear();
  const std::size_t at = preamble.encode().size() + 1 + 16;
  ASSERT_EQ(read_varint(bytes, at).first, tf.ranks[0].events.size());
  patch_varint(bytes, at, std::uint64_t{1} << 32);
  // A TraceError, not bad_alloc from reserving 2^32 events.
  EXPECT_THROW((void)trace::TraceFile::decode(bytes), trace::TraceError);
}

TEST(TraceFuzz, MpstzHugeChunkCountIsRejectedBeforeAllocating) {
  const trace::TraceFile tf = record_ring();
  std::vector<std::uint8_t> bytes = codec::compress(tf, {.chunk_events = 16});
  // magic, version, metadata blob + CRC, then one event count per rank
  // and the chunk count. The index is not CRC-protected: inflate rank 0's
  // count so "more chunks than events" still passes.
  const auto [meta_size, meta_len] = read_varint(bytes, 8);
  std::size_t pos = 8 + meta_len + static_cast<std::size_t>(meta_size) + 4;
  patch_varint(bytes, pos, std::uint64_t{1} << 40);
  for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
    pos += read_varint(bytes, pos).second;
  }
  ASSERT_LT(read_varint(bytes, pos).first, 1000u);
  patch_varint(bytes, pos, std::uint64_t{1} << 39);
  EXPECT_THROW((void)codec::MpstzReader(bytes), trace::TraceError);
  EXPECT_THROW((void)codec::decompress(bytes), trace::TraceError);
}

TEST(TraceFuzz, MpstzHugeChunkEventCountIsRejectedBeforeAllocating) {
  const trace::TraceFile tf = record_ring();
  std::vector<std::uint8_t> bytes = codec::compress(tf, {.chunk_events = 16});
  // Claim 2^40 events for rank 0 and for its first chunk, so the index
  // stays consistent: the per-rank count and the chunk cover each other.
  const auto [meta_size, meta_len] = read_varint(bytes, 8);
  std::size_t pos = 8 + meta_len + static_cast<std::size_t>(meta_size) + 4;
  const std::uint64_t rank0 = read_varint(bytes, pos).first;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  patch_varint(bytes, pos, huge);
  for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
    pos += read_varint(bytes, pos).second;
  }
  pos += read_varint(bytes, pos).second;  // chunk count
  ASSERT_EQ(read_varint(bytes, pos).first, 0u);  // rank 0 ...
  pos += read_varint(bytes, pos).second;
  ASSERT_EQ(read_varint(bytes, pos).first, 0u);  // ... from event 0 ...
  pos += read_varint(bytes, pos).second;
  ASSERT_EQ(read_varint(bytes, pos).first, rank0);  // ... is all of rank 0
  patch_varint(bytes, pos, huge);
  // A TraceError from the index, not bad_alloc from reserving 2^40 events.
  EXPECT_THROW((void)codec::MpstzReader(bytes), trace::TraceError);
  EXPECT_THROW((void)codec::decompress(bytes), trace::TraceError);
}

TEST(TraceFuzz, SingleByteFlipsNeverCrash) {
  const std::vector<std::uint8_t> bytes = record_fixture().encode();
  support::SequentialRng rng(0xF1E2);
  int decoded = 0;
  constexpr int kFlips = 400;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    const std::size_t pos = rng.next() % mutant.size();
    mutant[pos] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
    if (exercise(mutant)) ++decoded;
  }
  // Some flips land in slack bits and still decode; the point is that
  // every outcome was either success or TraceError.
  SUCCEED() << decoded << "/" << kFlips << " mutants decoded";
}

TEST(TraceFuzz, MultiByteCorruptionNeverCrashes) {
  const std::vector<std::uint8_t> bytes = record_fixture().encode();
  support::SequentialRng rng(0xBEEF);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    const int burst = 2 + static_cast<int>(rng.next() % 15);
    for (int b = 0; b < burst; ++b) {
      mutant[rng.next() % mutant.size()] =
          static_cast<std::uint8_t>(rng.next());
    }
    exercise(mutant);
  }
}

TEST(TraceFuzz, EveryTruncationLengthIsRejectedOrSafe) {
  const std::vector<std::uint8_t> bytes = record_fixture().encode();
  // Every prefix length: dense near the ends (header/footer), sampled in
  // the middle to keep the test fast.
  support::SequentialRng rng(0x7A11);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 64 && n < bytes.size(); ++n) lengths.push_back(n);
  for (std::size_t n = bytes.size() - 64; n < bytes.size(); ++n) {
    lengths.push_back(n);
  }
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.next() % bytes.size());
  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> mutant(bytes.begin(),
                                           bytes.begin() + n);
    // A strict prefix must never decode as a complete trace.
    EXPECT_THROW((void)trace::TraceFile::decode(mutant), trace::TraceError)
        << "prefix length " << n;
  }
}

TEST(TraceFuzz, AppendedGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = record_fixture().encode();
  bytes.push_back(0x42);
  EXPECT_THROW((void)trace::TraceFile::decode(bytes), trace::TraceError);
}

// ------------------------------------------------------ .mpstz container --

/// The serial reference decode: the reader's chunks one at a time in
/// index order, appended per rank. Returns the first error's text, or ""
/// with `events` holding every rank's stream.
std::string serial_decode(const std::vector<std::uint8_t>& bytes,
                          std::map<int, std::vector<trace::Event>>& events) {
  try {
    codec::MpstzReader reader(bytes);
    for (std::size_t c = 0; c < reader.chunks().size(); ++c) {
      const std::vector<trace::Event> chunk = reader.chunk_events(c);
      auto& dst = events[reader.chunks()[c].rank];
      dst.insert(dst.end(), chunk.begin(), chunk.end());
    }
  } catch (const trace::TraceError& err) {
    return err.what();
  }
  return "";
}

/// Decode a .mpstz mutant through the eager (parallel) decompressor and
/// the serial reference, accepting only success or TraceError. The two
/// must agree on acceptance, on the error text when both reject, and on
/// every event when both accept.
bool exercise_mpstz(const std::vector<std::uint8_t>& bytes) {
  std::string eager_error;
  trace::TraceFile tf;
  try {
    tf = codec::decompress(bytes);
  } catch (const trace::TraceError& err) {
    eager_error = err.what();
  }
  std::map<int, std::vector<trace::Event>> events;
  const std::string serial_error = serial_decode(bytes, events);
  EXPECT_EQ(eager_error, serial_error)
      << "eager and serial decode disagree on acceptance or error text";
  if (!eager_error.empty()) return false;
  if (serial_error.empty()) {
    trace::TraceFile serial = tf;
    for (trace::RankStream& rs : serial.ranks) {
      rs.events = std::move(events[rs.rank]);
    }
    EXPECT_EQ(serial.encode(), tf.encode())
        << "eager and serial decode produced different events";
  }
  try {
    (void)analysis::analyze(tf);
  } catch (const trace::TraceError&) {
  }
  return true;
}

TEST(TraceFuzz, MpstzSingleByteFlipsNeverCrash) {
  const std::vector<std::uint8_t> bytes =
      codec::compress(record_fixture(), {.chunk_events = 16});
  support::SequentialRng rng(0xC0DE);
  int decoded = 0;
  constexpr int kFlips = 400;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    const std::size_t pos = rng.next() % mutant.size();
    mutant[pos] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
    if (exercise_mpstz(mutant)) ++decoded;
  }
  // Chunk CRCs catch nearly every payload flip; index/metadata flips are
  // structural rejects. Either way, no UB.
  SUCCEED() << decoded << "/" << kFlips << " mutants decoded";
}

TEST(TraceFuzz, MpstzIndexAndTableCorruptionNeverCrashes) {
  // Bias the bursts toward the front of the container, where the
  // metadata blob, per-rank counts and chunk index live — the structures
  // most likely to send a naive decoder out of bounds.
  const std::vector<std::uint8_t> bytes =
      codec::compress(record_fixture(), {.chunk_events = 16});
  support::SequentialRng rng(0xAB1E);
  const std::size_t front = bytes.size() / 3 + 1;
  for (int i = 0; i < 150; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    const int burst = 1 + static_cast<int>(rng.next() % 8);
    for (int b = 0; b < burst; ++b) {
      mutant[rng.next() % front] = static_cast<std::uint8_t>(rng.next());
    }
    exercise_mpstz(mutant);
  }
}

TEST(TraceFuzz, MpstzEveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes =
      codec::compress(record_fixture(), {.chunk_events = 16});
  // Dense near both ends plus a sample of interior prefixes: every chunk
  // boundary lands in one of these ranges for the 16-event chunking.
  support::SequentialRng rng(0x7A12);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 96 && n < bytes.size(); ++n) lengths.push_back(n);
  for (std::size_t n = bytes.size() - 96; n < bytes.size(); ++n) {
    lengths.push_back(n);
  }
  for (int i = 0; i < 300; ++i) lengths.push_back(rng.next() % bytes.size());
  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> mutant(bytes.begin(), bytes.begin() + n);
    EXPECT_THROW((void)codec::decompress(mutant), trace::TraceError)
        << "prefix length " << n;
  }
}

TEST(TraceFuzz, MpstzTruncationAtEveryChunkBoundaryIsRejected) {
  const trace::TraceFile tf = record_fixture();
  const std::vector<std::uint8_t> bytes =
      codec::compress(tf, {.chunk_events = 8});
  // Recover each chunk's end offset within the payload section from the
  // reader's index, then truncate the container exactly there: the
  // payload-size check or a chunk bounds check must reject every one.
  codec::MpstzReader reader(bytes);
  ASSERT_GT(reader.chunks().size(), 1u);
  for (const codec::ChunkInfo& c : reader.chunks()) {
    const std::size_t payload_end_of_chunk =
        bytes.size() - reader.chunks().back().offset -
        reader.chunks().back().size + c.offset + c.size;
    // The last chunk's end is the full container — that's the valid file,
    // not a truncation.
    if (payload_end_of_chunk >= bytes.size()) continue;
    const std::vector<std::uint8_t> mutant(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(payload_end_of_chunk));
    EXPECT_THROW((void)codec::decompress(mutant), trace::TraceError)
        << "truncated after chunk at offset " << c.offset;
  }
}

TEST(TraceFuzz, MpstzReplayAndServeLoadAgreeOnMutantAcceptance) {
  // The serve daemon and the offline CLIs funnel through the same two
  // decode paths (decompress / MpstzReader); a mutant accepted by one
  // loader and rejected by the other would let a served answer diverge
  // from the CLI. exercise_mpstz asserts the agreement per mutant.
  const std::vector<std::uint8_t> bytes =
      codec::compress(record_fixture(), {.chunk_events = 16});
  support::SequentialRng rng(0xD1CF);
  for (int i = 0; i < 80; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    const int burst = 1 + static_cast<int>(rng.next() % 4);
    for (int b = 0; b < burst; ++b) {
      mutant[rng.next() % mutant.size()] ^=
          static_cast<std::uint8_t>(1u << (rng.next() % 8));
    }
    exercise_mpstz(mutant);
  }
}

TEST(TraceFuzz, ReplayAndAnalysisAgreeOnMutantAcceptance) {
  // Any mutant the analyzer accepts, the replayer also accepts, and the
  // other way round: both run the same trace::Walker over the recorded
  // frame, so a divergence would mean an observer rejects (or throws on)
  // something the shared walk accepted.
  const std::vector<std::uint8_t> bytes = record_fixture().encode();
  support::SequentialRng rng(0xD1CE);
  for (int i = 0; i < 60; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[rng.next() % mutant.size()] ^=
        static_cast<std::uint8_t>(1u << (rng.next() % 8));
    trace::TraceFile tf;
    try {
      tf = trace::TraceFile::decode(mutant);
    } catch (const trace::TraceError&) {
      continue;
    }
    bool analysis_ok = true;
    try {
      (void)analysis::analyze(tf);
    } catch (const trace::TraceError&) {
      analysis_ok = false;
    }
    bool replay_ok = true;
    try {
      (void)trace::replay(tf, tf.header.machine);
    } catch (const trace::TraceError&) {
      replay_ok = false;
    }
    EXPECT_EQ(analysis_ok, replay_ok) << "mutant " << i;
  }
}

}  // namespace
