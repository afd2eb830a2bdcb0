// Wire-format coverage for the .mpst container: primitive round-trips,
// property-style encode/decode equality on randomized event streams, and
// every corrupt-input error path (truncation at each byte offset, version
// skew, bad/byte-swapped magic, trailing garbage).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "trace/file.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect;
using trace::ByteReader;
using trace::ByteWriter;
using trace::Event;
using trace::EventKind;
using trace::TraceError;
using trace::TraceFile;

TEST(TraceWire, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0,  1,  -1, 2,  -2,  63, -64, 1000000,
                                -1000000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(trace::zigzag_decode(trace::zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the varint-size property).
  EXPECT_EQ(trace::zigzag_encode(0), 0u);
  EXPECT_EQ(trace::zigzag_encode(-1), 1u);
  EXPECT_EQ(trace::zigzag_encode(1), 2u);
}

TEST(TraceWire, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 std::uint64_t{1} << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) w.varint(v);
  ByteReader r(w.bytes());
  for (const std::uint64_t v : cases) EXPECT_EQ(r.varint(), v);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(TraceWire, F64RoundTripIsBitExact) {
  ByteWriter w;
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.5,
                          1e-308,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          0.1 + 0.2};
  for (const double v : cases) w.f64(v);
  ByteReader r(w.bytes());
  for (const double v : cases) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(TraceWire, ReaderThrowsOnOverrun) {
  ByteWriter w;
  w.varint(300);
  const auto bytes = w.bytes();
  ByteReader r{std::span(bytes).first(1)};
  EXPECT_THROW((void)r.varint(), TraceError);
  ByteReader r2(bytes);
  EXPECT_THROW((void)r2.f64(), TraceError);
}

TEST(TraceWire, OverlongVarintIsRejected) {
  std::vector<std::uint8_t> bytes(11, 0x80);
  ByteReader r(bytes);
  EXPECT_THROW((void)r.varint(), TraceError);
}

Event random_event(support::SequentialRng& rng) {
  Event ev;
  ev.kind = static_cast<EventKind>(rng.next() % trace::kEventKindCount);
  ev.has_time = rng.next() % 2 == 0;
  if (ev.has_time) ev.t_before = rng.uniform(0.0, 1e6);
  switch (ev.kind) {
    case EventKind::SendPost:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.peer = static_cast<int>(rng.next() % 1024);
      ev.tag = static_cast<int>(rng.next() % 2001) - 1000;
      ev.bytes = rng.next() % (std::uint64_t{1} << 30);
      ev.seq = rng.next();
      ev.op = rng.next();
      break;
    case EventKind::SendWait:
      ev.op = rng.next() % 100;  // backref
      break;
    case EventKind::RecvPost:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.peer = rng.next() % 8 == 0 ? Event::kUnmatched
                                    : static_cast<int>(rng.next() % 1024);
      ev.seq = rng.next();
      ev.post_src = rng.next() % 4 == 0 ? -1  // kAnySource
                                        : static_cast<int>(rng.next() % 1024);
      ev.tag = static_cast<int>(rng.next() % 2001) - 1000;
      break;
    case EventKind::RecvWait:
      ev.seq = rng.next() % 100;  // backref
      ev.op = rng.next();
      break;
    case EventKind::Probe:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.peer = static_cast<int>(rng.next() % 1024);
      ev.seq = rng.next();
      ev.post_src = rng.next() % 4 == 0 ? -1  // kAnySource
                                        : static_cast<int>(rng.next() % 1024);
      ev.tag = static_cast<int>(rng.next() % 2001) - 1000;
      break;
    case EventKind::CollBegin:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.label = static_cast<std::uint32_t>(rng.next() % 17);
      ev.peer = static_cast<int>(rng.next() % 10) - 1;
      ev.bytes = rng.next() % (std::uint64_t{1} << 24);
      ev.op = rng.next();
      break;
    case EventKind::CollEnd:
      break;
    case EventKind::SectionEnter:
    case EventKind::SectionExit:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.label = static_cast<std::uint32_t>(rng.next() % 5000);
      break;
    case EventKind::CommSync:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.peer = 1 + static_cast<int>(rng.next() % 512);
      ev.seq = rng.next() % 16;
      break;
    case EventKind::Pcontrol:
      ev.peer = static_cast<int>(rng.next() % 11) - 5;
      ev.label = static_cast<std::uint32_t>(rng.next() % 5000);
      break;
    case EventKind::NbcPost:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.label = static_cast<std::uint32_t>(rng.next() % 17);
      ev.peer = 1 + static_cast<int>(rng.next() % 512);
      ev.bytes = rng.next() % (std::uint64_t{1} << 24);
      ev.seq = rng.next() % 4096;
      ev.op = rng.next();
      break;
    case EventKind::NbcComplete:
      ev.comm = static_cast<int>(rng.next() % 64);
      ev.seq = rng.next() % 4096;
      break;
    case EventKind::Finalize:
      ev.has_time = true;
      ev.t_before = rng.uniform(0.0, 1e6);
      break;
  }
  return ev;
}

void expect_event_eq(const Event& a, const Event& b, std::size_t i) {
  EXPECT_EQ(a.kind, b.kind) << "event " << i;
  EXPECT_EQ(a.has_time, b.has_time) << "event " << i;
  if (a.has_time) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.t_before),
              std::bit_cast<std::uint64_t>(b.t_before))
        << "event " << i;
  }
  EXPECT_EQ(a.comm, b.comm) << "event " << i;
  EXPECT_EQ(a.peer, b.peer) << "event " << i;
  EXPECT_EQ(a.post_src, b.post_src) << "event " << i;
  EXPECT_EQ(a.tag, b.tag) << "event " << i;
  EXPECT_EQ(a.bytes, b.bytes) << "event " << i;
  EXPECT_EQ(a.seq, b.seq) << "event " << i;
  EXPECT_EQ(a.op, b.op) << "event " << i;
  EXPECT_EQ(a.label, b.label) << "event " << i;
}

TraceFile random_trace(std::uint64_t seed, int nranks, int events_per_rank) {
  support::SequentialRng rng(seed);
  TraceFile tf;
  tf.header.app = "random-app --seed " + std::to_string(seed);
  tf.header.seed = rng.next();
  tf.header.scatter_algo = 1;
  tf.header.gather_algo = 0;
  tf.header.start_skew_sigma = rng.uniform(0.0, 1e-3);
  tf.header.nranks = nranks;
  tf.header.machine = mpisim::MachineModel::nehalem_cluster();
  tf.labels = {"", "A \"quoted\" label", "HALO\n", "MPI_MAIN", "z\\path"};
  for (int r = 0; r < nranks; ++r) {
    trace::RankStream rs;
    rs.rank = r;
    rs.t0 = rng.uniform(0.0, 1e-3);
    rs.t_final = rng.uniform(1.0, 2.0);
    for (int e = 0; e < events_per_rank; ++e) {
      rs.events.push_back(random_event(rng));
    }
    rs.totals.push_back(
        {0, static_cast<std::uint32_t>(r % 5), rng.next() % 1000,
         rng.uniform(0.0, 10.0)});
    tf.ranks.push_back(std::move(rs));
  }
  return tf;
}

TEST(TraceFormat, RandomizedStreamsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TraceFile tf = random_trace(seed, 4, 200);
    const auto bytes = tf.encode();
    const TraceFile back = TraceFile::decode(bytes);
    EXPECT_EQ(back.header.app, tf.header.app);
    EXPECT_EQ(back.header.seed, tf.header.seed);
    EXPECT_EQ(back.header.scatter_algo, tf.header.scatter_algo);
    EXPECT_EQ(back.header.gather_algo, tf.header.gather_algo);
    EXPECT_EQ(back.header.nranks, tf.header.nranks);
    EXPECT_EQ(back.header.machine.name, tf.header.machine.name);
    EXPECT_EQ(back.header.machine.net.eager_threshold,
              tf.header.machine.net.eager_threshold);
    EXPECT_EQ(back.labels, tf.labels);
    ASSERT_EQ(back.ranks.size(), tf.ranks.size());
    for (std::size_t r = 0; r < tf.ranks.size(); ++r) {
      ASSERT_EQ(back.ranks[r].events.size(), tf.ranks[r].events.size());
      for (std::size_t e = 0; e < tf.ranks[r].events.size(); ++e) {
        expect_event_eq(back.ranks[r].events[e], tf.ranks[r].events[e], e);
      }
      ASSERT_EQ(back.ranks[r].totals.size(), tf.ranks[r].totals.size());
      for (std::size_t t = 0; t < tf.ranks[r].totals.size(); ++t) {
        EXPECT_EQ(back.ranks[r].totals[t].comm, tf.ranks[r].totals[t].comm);
        EXPECT_EQ(back.ranks[r].totals[t].label, tf.ranks[r].totals[t].label);
        EXPECT_EQ(back.ranks[r].totals[t].count, tf.ranks[r].totals[t].count);
        EXPECT_EQ(back.ranks[r].totals[t].inclusive,
                  tf.ranks[r].totals[t].inclusive);
      }
    }
  }
}

TEST(TraceFormat, EncodeIsDeterministic) {
  const TraceFile a = random_trace(42, 3, 100);
  const TraceFile b = random_trace(42, 3, 100);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(TraceFormat, MultiRankOrderIsPreserved) {
  const TraceFile tf = random_trace(7, 8, 20);
  const TraceFile back = TraceFile::decode(tf.encode());
  ASSERT_EQ(back.ranks.size(), 8u);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(back.ranks[static_cast<std::size_t>(r)].rank, r);
  }
}

TEST(TraceFormat, EveryTruncationThrowsTraceError) {
  const TraceFile tf = random_trace(3, 2, 25);
  const auto bytes = tf.encode();
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)TraceFile::decode(std::span(bytes).first(cut)),
                 TraceError)
        << "prefix of " << cut << " bytes decoded without error";
  }
}

TEST(TraceFormat, TrailingGarbageIsRejected) {
  auto bytes = random_trace(4, 2, 10).encode();
  bytes.push_back(0x00);
  EXPECT_THROW((void)TraceFile::decode(bytes), TraceError);
}

TEST(TraceFormat, VersionMismatchIsRejected) {
  auto bytes = random_trace(5, 1, 5).encode();
  bytes[4] = 99;  // version field, little-endian u32 at offset 4
  try {
    (void)TraceFile::decode(bytes);
    FAIL() << "decode accepted a future version";
  } catch (const TraceError& err) {
    EXPECT_NE(std::string(err.what()).find("version"), std::string::npos);
  }
}

TEST(TraceFormat, BadMagicIsRejected) {
  auto bytes = random_trace(6, 1, 5).encode();
  bytes[0] = 'X';
  EXPECT_THROW((void)TraceFile::decode(bytes), TraceError);
}

TEST(TraceFormat, ByteSwappedMagicGetsEndianDiagnostic) {
  auto bytes = random_trace(8, 1, 5).encode();
  std::swap(bytes[0], bytes[3]);
  std::swap(bytes[1], bytes[2]);
  try {
    (void)TraceFile::decode(bytes);
    FAIL() << "decode accepted a byte-swapped magic";
  } catch (const TraceError& err) {
    EXPECT_NE(std::string(err.what()).find("byte order"), std::string::npos);
  }
}

TEST(TraceFormat, SaveLoadRoundTrip) {
  const TraceFile tf = random_trace(11, 2, 30);
  const std::string path =
      testutil::unique_temp_path("mpisect_format_roundtrip", ".mpst");
  tf.save(path);
  const TraceFile back = TraceFile::load(path);
  EXPECT_EQ(back.encode(), tf.encode());
  std::remove(path.c_str());
}

TEST(TraceFormat, LoadMissingFileThrows) {
  EXPECT_THROW((void)TraceFile::load("/nonexistent/definitely_missing.mpst"),
               TraceError);
}

}  // namespace
