// Codec acceptance bench — the .mpstz compression ratio and decode
// throughput on the two paper workloads (64-rank convolution, 64-rank
// Lulesh), plus the random-access contract: decoding a seeked virtual-time
// window must touch only that window's chunks, not the whole payload.
//
// Emits BENCH_codec.json via --json_out. In full mode the 3x ratio bar and
// the compress-throughput floor are enforced on conv64 and lulesh64
// (nonzero exit on regression), and lulesh512 is reported only; --quick
// shrinks the workloads for smoke testing and reports without enforcing.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "codec/mpstz.hpp"
#include "common.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "support/cli.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace mpisect;

/// Full-mode floor on compress throughput, in flat trace MB/s. On a 4-core
/// x86-64 host the full 1..4096 XOR-lag scan ran at 0.5 (conv64) and 0.4
/// (lulesh64) MB/s, the exact pruned search at 30–47 and 10–16 MB/s on one
/// thread, and at 98–127 and 42–48 MB/s with ranks encoded on all 4 cores
/// (lulesh512: 32–40 MB/s); the floor fails the full scan and leaves 2x
/// headroom for slower single-core runners.
constexpr double kCompressFloorMBps = 4.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

trace::TraceFile record_convolution(int ranks, int steps) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  const auto world_ptr =
      mpisim::Session(ranks, opts).world_builder().build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "bench-codec-conv"});
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

trace::TraceFile record_lulesh(int ranks, int steps, int edge) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::knl();
  opts.seed = 0x5EED;
  const auto world_ptr2 =
      mpisim::Session(ranks, opts).world_builder().build();
  mpisim::World& world = *world_ptr2;
  sections::SectionRuntime::install(world);
  auto rec =
      trace::TraceRecorder::install(world, {.app = "bench-codec-lulesh"});
  apps::lulesh::LuleshConfig cfg;
  cfg.steps = steps;
  cfg.s = edge;
  cfg.full_fidelity = false;
  apps::lulesh::LuleshApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

struct CodecPoint {
  double ratio = 0.0;
  double compress_mb_s = 0.0;
  double decode_gb_s = 0.0;       ///< flat bytes reproduced per second
  double window_byte_frac = 0.0;  ///< payload fraction a 10% window costs
};

CodecPoint measure(const trace::TraceFile& tf) {
  CodecPoint p;
  const std::vector<std::uint8_t> flat = tf.encode();

  const double t0 = now_s();
  const std::vector<std::uint8_t> packed = codec::compress(tf);
  const double t1 = now_s();
  const trace::TraceFile back = codec::decompress(packed);
  const double t2 = now_s();
  if (back.encode() != flat) {
    std::fprintf(stderr, "bench_codec: roundtrip is not bit-exact!\n");
    std::exit(1);
  }

  p.ratio = static_cast<double>(flat.size()) /
            static_cast<double>(packed.size());
  p.compress_mb_s =
      static_cast<double>(flat.size()) / 1e6 / std::max(t1 - t0, 1e-9);
  p.decode_gb_s =
      static_cast<double>(flat.size()) / 1e9 / std::max(t2 - t1, 1e-9);

  // Seek a 10% virtual-time window on rank 0: the bytes-decoded counter
  // must stay well below the full payload.
  codec::MpstzReader reader(packed);
  std::uint64_t payload = 0;
  for (const auto& c : reader.chunks()) payload += c.size;
  const double t_begin = tf.ranks.front().t0;
  const double t_end = tf.ranks.front().t_final;
  const double w0 = t_begin + 0.45 * (t_end - t_begin);
  const double w1 = t_begin + 0.55 * (t_end - t_begin);
  (void)reader.window(0, w0, w1);
  p.window_byte_frac = payload > 0 ? static_cast<double>(
                                         reader.bytes_decoded()) /
                                         static_cast<double>(payload)
                                   : 0.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("bench_codec",
                          ".mpstz compression ratio / decode throughput on "
                          "the paper workloads");
  args.add_flag("quick", "reduced run for smoke testing (bar not enforced)");
  args.add_string("json_out", "", "write BENCH_codec.json here");
  if (!args.parse(argc, argv)) return 1;
  const bool quick = args.get_flag("quick");

  bench::print_banner("codec", "sec. 4 (trace container)",
                      quick ? "quick: conv 16r/60s, lulesh 27r/4s"
                            : "conv 64r/200s, lulesh 64r/10s; 3x bar, "
                              "compress floor; lulesh 512r/2s reported");

  struct Case {
    const char* name;
    trace::TraceFile tf;
    bool gated = true;  ///< full mode enforces the bars on this case
  };
  std::vector<Case> cases;
  if (quick) {
    cases.push_back({"conv16", record_convolution(16, 60)});
    cases.push_back({"lulesh27", record_lulesh(27, 4, 4)});
  } else {
    cases.push_back({"conv64", record_convolution(64, 200)});
    cases.push_back({"lulesh64", record_lulesh(64, 10, 4)});
    // The trace_pipeline benchmark's shape: 512 ranks of one chunk each,
    // too short (2 steps) for the lag search to find a period, so ~1.6x.
    // Reported for the codec's speed, not held to the ratio bar.
    cases.push_back({"lulesh512", record_lulesh(512, 2, 6), false});
  }

  bench::BenchJson json("recorded", 0x5EED);
  bool ok = true;
  for (const Case& c : cases) {
    const CodecPoint p = measure(c.tf);
    std::printf(
        "%-10s ratio %.2fx  compress %.1f MB/s  decode %.2f GB/s  "
        "10%%-window cost %.1f%% of payload\n",
        c.name, p.ratio, p.compress_mb_s, p.decode_gb_s,
        100.0 * p.window_byte_frac);
    json.add(std::string("codec/") + c.name, 0.0,
             {{"ratio", p.ratio},
              {"compress_MBps", p.compress_mb_s},
              {"decode_GBps", p.decode_gb_s},
              {"window_byte_frac", p.window_byte_frac}});
    if (quick || !c.gated) continue;
    if (p.ratio < 3.0) {
      std::fprintf(stderr, "bench_codec: %s ratio %.2fx is below the 3x bar\n",
                   c.name, p.ratio);
      ok = false;
    }
    if (p.compress_mb_s < kCompressFloorMBps) {
      std::fprintf(stderr,
                   "bench_codec: %s compress %.1f MB/s is below the %.1f MB/s "
                   "floor\n",
                   c.name, p.compress_mb_s, kCompressFloorMBps);
      ok = false;
    }
    if (p.window_byte_frac > 0.5) {
      std::fprintf(stderr,
                   "bench_codec: %s window decode read %.0f%% of the payload "
                   "(seek is not selective)\n",
                   c.name, 100.0 * p.window_byte_frac);
      ok = false;
    }
  }
  if (!json.write(args.get_string("json_out"))) return 1;
  return ok ? 0 : 1;
}
