// Serve-daemon latency bench — cold (engine run) vs warm (cache hit)
// latency of served replay and sweep queries, through the same Service
// dispatcher the TCP daemon uses. The acceptance bar: a cached answer is
// at least 10x faster than the cold one (enforced in full mode).
//
// Emits BENCH_serve.json via --json_out.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/convolution/convolution.hpp"
#include "codec/mpstz.hpp"
#include "common.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace mpisect;

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
  auto rec = trace::TraceRecorder::install(world, {.app = "bench-serve"});
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

/// One timed request; returns (seconds, cached flag from the response).
std::pair<double, bool> timed(serve::Service& svc, const std::string& line) {
  const double t0 = now_s();
  const std::string resp = svc.handle_line(line);
  const double dt = now_s() - t0;
  const support::JsonValue v = support::json_parse(resp);
  const support::JsonValue* ok = v.find("ok");
  if (ok == nullptr || !ok->boolean) {
    std::fprintf(stderr, "bench_serve: request failed: %s\n", resp.c_str());
    std::exit(1);
  }
  const support::JsonValue* cached = v.find("cached");
  return {dt, cached != nullptr && cached->boolean};
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("bench_serve",
                          "cold vs warm latency of served what-if queries");
  args.add_flag("quick", "reduced run for smoke testing (bar not enforced)");
  args.add_string("json_out", "", "write BENCH_serve.json here");
  if (!args.parse(argc, argv)) return 1;
  const bool quick = args.get_flag("quick");

  bench::print_banner("serve", "cached what-if query daemon",
                      quick ? "quick: conv 8r/30s; 10x bar not enforced"
                            : "conv 64r/200s; warm >= 10x faster than cold");

  const trace::TraceFile tf =
      quick ? record_convolution(8, 30) : record_convolution(64, 200);
  // Under the temp directory with the pid in the name: concurrent runs
  // never share the file, and nothing lands in the working directory.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_serve_trace." + std::to_string(::getpid()) + ".mpstz"))
          .string();
  {
    const std::vector<std::uint8_t> packed = codec::compress(tf);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(packed.data()),
              static_cast<std::streamsize>(packed.size()));
    if (!out) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  struct Query {
    const char* name;
    std::string line;
  };
  const std::vector<Query> queries = {
      {"replay",
       "{\"id\":1,\"op\":\"replay\",\"trace\":\"" + path +
           "\",\"params\":{\"model\":\"knl\",\"format\":\"csv\"}}"},
      {"sweep",
       "{\"id\":2,\"op\":\"sweep\",\"trace\":\"" + path +
           "\",\"params\":{\"latency_scales\":[1,2,4]}}"},
      {"analyze", "{\"id\":3,\"op\":\"analyze\",\"trace\":\"" + path + "\"}"},
  };

  bench::BenchJson json("recorded", 0x5EED);
  bool ok = true;
  for (const Query& q : queries) {
    serve::Service svc;  // fresh service per query: cold includes the load
    const auto [cold_s, cold_cached] = timed(svc, q.line);
    // Median-of-5 warm samples — single warm hits are timer-noise bound.
    double warm_s = 0.0;
    for (int i = 0; i < 5; ++i) {
      const auto [w, warm_cached] = timed(svc, q.line);
      if (!warm_cached || cold_cached) {
        std::fprintf(stderr, "bench_serve: cache contract violated\n");
        return 1;
      }
      warm_s += w;
    }
    warm_s /= 5.0;
    const double speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
    std::printf("%-8s cold %8.3f ms   warm %8.4f ms   speedup %8.1fx\n",
                q.name, cold_s * 1e3, warm_s * 1e3, speedup);
    json.add(std::string("serve/") + q.name, cold_s,
             {{"cold_ms", cold_s * 1e3},
              {"warm_ms", warm_s * 1e3},
              {"warm_speedup", speedup}});
    if (!quick && speedup < 10.0) {
      std::fprintf(stderr,
                   "bench_serve: %s cached speedup %.1fx is below the 10x "
                   "bar\n",
                   q.name, speedup);
      ok = false;
    }
  }
  std::remove(path.c_str());
  if (!json.write(args.get_string("json_out"))) return 1;
  return ok ? 0 : 1;
}
