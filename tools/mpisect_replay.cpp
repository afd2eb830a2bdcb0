// mpisect-replay — record an instrumented run into a .mpst trace, then
// answer what-if questions offline by replaying the skeleton under other
// machine models:
//
//   mpisect-replay record --app convolution --ranks 64 --steps 200
//                         --model nehalem-cluster --out conv.mpst
//   mpisect-replay record --app lulesh --ranks 64 --steps 10 --compress
//                         --out lulesh.mpstz
//   mpisect-replay info   --trace conv.mpst [--digest]
//   mpisect-replay replay --trace conv.mpst --model knl
//                         --compute-scale auto --tseq 12.5
//   mpisect-replay replay --trace conv.mpst --latency-scale 4 --no-jitter
//   mpisect-replay replay --trace conv.mpst --faults "drop:p=0.05"
//   mpisect-replay sweep  --trace conv.mpst --latency-scales 1,2,4,8
//                         --bandwidth-scales 0.5,1,2 --out sweep.csv
//   mpisect-replay sweep  --trace conv.mpst --drop-rates 0,0.01,0.05
//                         --out faults.csv
//   mpisect-replay compress   --in conv.mpst  --out conv.mpstz
//   mpisect-replay decompress --in conv.mpstz --out conv.mpst
//
// Every trace-reading subcommand accepts .mpst and .mpstz transparently.
// The what-if queries run on the shared serve engine (serve/queries.hpp),
// so their output is byte-identical to mpisect-serve's responses.
//
// Exit status: 0 = ok, 1 = usage/file error (one-line diagnostic),
// 3 = --verify mismatch.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"
#include "serve/queries.hpp"
#include "support/cli.hpp"
#include "support/digest.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace {

using namespace mpisect;

bool emit(const std::string& text, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "mpisect-replay: cannot write %s\n",
                 out_path.c_str());
    return false;
  }
  out << text;
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), text.size());
  return true;
}

/// Write `bytes` to `<path>.tmp.<pid>`, then rename that over `path`: a
/// failed or interrupted write never leaves a truncated file at `path`
/// (which mpisect-serve would otherwise load and pin).
void save_bytes(const std::vector<std::uint8_t>& bytes,
                const std::string& path) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) throw trace::TraceError("cannot write '" + path + "'");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      throw trace::TraceError("write error on '" + path + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw trace::TraceError("cannot write '" + path + "'");
  }
}

std::string preset_list() {
  std::string out;
  for (const auto& n : mpisim::MachineModel::preset_names()) {
    if (!out.empty()) out += "|";
    out += n;
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<double> parse_grid(const std::string& csv) {
  std::vector<double> out;
  for (const auto& item : split_csv(csv)) {
    out.push_back(std::strtod(item.c_str(), nullptr));
  }
  return out;
}

void add_whatif_options(support::ArgParser& args) {
  args.add_string("trace", "trace.mpst", "input trace file (.mpst | .mpstz)");
  args.add_string("model", "recorded", serve::model_choices());
  args.add_alias("machine", "model");
  args.add_string("faults", "",
                  "fault plan re-costed onto the what-if frame, e.g. "
                  "'drop:p=0.05' ('' = none; kill rules not replayable)");
  args.add_int("fault-seed", 0,
               "seed for the fault draws (0 = the trace header's seed)");
  args.add_double("latency", 0.0, "absolute link latency override (s)");
  args.add_double("bandwidth", 0.0, "absolute link bandwidth override (B/s)");
  args.add_double("latency-scale", 1.0, "multiply link latencies");
  args.add_double("bandwidth-scale", 1.0, "multiply link bandwidths");
  args.add_double("jitter-scale", 1.0, "multiply jitter sigmas");
  args.add_flag("no-jitter", "disable network jitter entirely");
  args.add_int("eager", 0, "eager/rendezvous threshold override (bytes)");
  args.add_string("compute-scale", "1",
                  "multiply recorded compute gaps; 'auto' = recorded flops "
                  "/ replay flops");
  args.add_string("progress", "recorded",
                  "progress model for the what-if frame: recorded | " +
                      mpisim::ProgressModel::choices());
}

serve::ModelParams model_params(const support::ArgParser& args) {
  serve::ModelParams p;
  p.model = args.get_string("model");
  p.latency = args.get_double("latency");
  p.bandwidth = args.get_double("bandwidth");
  p.latency_scale = args.get_double("latency-scale");
  p.bandwidth_scale = args.get_double("bandwidth-scale");
  p.jitter_scale = args.get_double("jitter-scale");
  p.no_jitter = args.get_flag("no-jitter");
  p.eager = static_cast<std::uint64_t>(args.get_int("eager"));
  p.compute_scale = args.get_string("compute-scale");
  p.progress = args.get_string("progress");
  return p;
}

/// Shared tail of every subcommand's arg setup: register the unified
/// --self-trace flag, parse, and arm the span tracer when requested
/// (MPISECT_SELF_TRACE is the env equivalent).
bool parse_with_self_trace(support::ArgParser& args, int argc,
                           const char* const* argv) {
  args.add_string("self-trace", "",
                  "wall-clock self-trace of the simulator itself "
                  "(.json = chrome://tracing, else CSV)");
  if (!args.parse(argc, argv)) return false;
  if (const auto& p = args.get_string("self-trace"); !p.empty()) {
    obs::enable_self_trace(p);
  }
  return true;
}

int cmd_record(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-replay record",
                          "Run an instrumented app and capture a .mpst trace");
  args.add_string("app", "convolution", "convolution | lulesh");
  args.add_string("model", "nehalem-cluster", preset_list());
  args.add_alias("machine", "model");
  args.add_int("ranks", 8, "MPI processes (lulesh: perfect cube)");
  args.add_int("threads", 1, "MiniOMP threads per rank (lulesh)");
  args.add_int("steps", 100, "time-steps");
  args.add_int("size", 0, "problem size (0 = default)");
  args.add_int("seed", 0x5EED, "world seed");
  args.add_string("progress", "blocking-only",
                  "progress model for the live run: " +
                      mpisim::ProgressModel::choices());
  support::add_world_flags(args);
  args.add_string("out", "trace.mpst", "output trace file");
  args.add_flag("compress", "write a compressed .mpstz container instead "
                            "of the flat .mpst encoding");
  args.add_double("telemetry-dt", 0.0,
                  "telemetry sampling interval to stamp into the trace "
                  "header (0 = none); consumed by the timeline subcommand");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const std::string app_name = args.get_string("app");
  const int ranks = static_cast<int>(args.get_int("ranks"));
  mpisim::WorldOptions opts;
  auto preset = mpisim::MachineModel::preset(args.get_string("model"));
  if (!preset) {
    throw trace::TraceError("unknown model '" + args.get_string("model") +
                            "' (" + preset_list() + ")");
  }
  opts.machine = *preset;
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  opts.progress = mpisim::ProgressModel::parse(args.get_string("progress"));
  const auto world_ptr = mpisim::Session(ranks, opts)
                             .world_builder()
                             .exec_spec(args.get_string("exec"))
                             .match_spec(args.get_string("match"))
                             .build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);

  std::string provenance = app_name + " --ranks " + std::to_string(ranks) +
                           " --steps " + std::to_string(args.get_int("steps"));
  auto rec = trace::TraceRecorder::install(
      world,
      {.app = provenance, .telemetry_dt = args.get_double("telemetry-dt")});

  if (app_name == "convolution") {
    apps::conv::ConvolutionConfig cfg;
    cfg.steps = static_cast<int>(args.get_int("steps"));
    if (args.get_int("size") > 0) {
      cfg.width = static_cast<int>(args.get_int("size")) * 100;
      cfg.height = static_cast<int>(args.get_int("size")) * 75;
    }
    cfg.full_fidelity = false;
    apps::conv::ConvolutionApp app(cfg);
    world.run(std::ref(app));
  } else if (app_name == "lulesh") {
    apps::lulesh::LuleshConfig cfg;
    cfg.steps = static_cast<int>(args.get_int("steps"));
    cfg.omp_threads = static_cast<int>(args.get_int("threads"));
    if (args.get_int("size") > 0) {
      cfg.s = static_cast<int>(args.get_int("size"));
    }
    cfg.full_fidelity = false;
    apps::lulesh::LuleshApp app(cfg);
    world.run(std::ref(app));
  } else {
    std::fprintf(stderr, "mpisect-replay: unknown app '%s'\n",
                 app_name.c_str());
    return 1;
  }

  // Both output paths stream rank by rank off the recorder; the full
  // TraceFile is never materialized (the difference between "fits in RAM"
  // and "doesn't" at extreme rank counts).
  if (args.get_flag("compress")) {
    trace::RankStream scratch;
    const std::vector<std::uint8_t> packed = codec::compress_stream(
        rec->skeleton(),
        [&](int r) -> const trace::RankStream& {
          scratch = rec->finish_rank(r);
          return scratch;
        });
    save_bytes(packed, args.get_string("out"));
    std::printf("recorded %llu events on %d ranks -> %s (%zu bytes)\n",
                static_cast<unsigned long long>(rec->total_events()), ranks,
                args.get_string("out").c_str(), packed.size());
  } else {
    rec->save(args.get_string("out"));
    std::printf("recorded %llu events on %d ranks -> %s\n",
                static_cast<unsigned long long>(rec->total_events()), ranks,
                args.get_string("out").c_str());
  }
  return 0;
}

int cmd_replay(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-replay replay",
                          "Replay a trace under a what-if machine model");
  add_whatif_options(args);
  args.add_string("export", "text", "text | csv | json | chrome");
  args.add_alias("format", "export");
  args.add_flag("json", "shorthand for --export json");
  args.add_string("out", "", "output file ('' = stdout)");
  args.add_flag("verify",
                "same-model integrity check against the recorded footer");
  args.add_double("tseq", 0.0,
                  "sequential reference time: emit Eq. 6 partial bounds");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const trace::TraceFile tf = codec::load_trace(args.get_string("trace"));
  if (args.get_flag("verify")) {
    const trace::VerifyResult v = trace::verify_roundtrip(tf);
    if (!v.ok) {
      std::fprintf(stderr, "mpisect-replay: verify FAILED: %s\n",
                   v.detail.c_str());
      return 3;
    }
    std::printf("verify OK: same-model replay matches the recorded footer\n");
  }

  serve::ReplayQuery q;
  q.model = model_params(args);
  q.faults = args.get_string("faults");
  q.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  q.format = support::unified_export(args);
  q.tseq = args.get_double("tseq");
  return emit(serve::run_replay(tf, q), args.get_string("out")) ? 0 : 1;
}

int cmd_timeline(int argc, const char* const* argv) {
  support::ArgParser args(
      "mpisect-replay timeline",
      "Re-bin a trace's section timeline into telemetry windows (Eq. 6 "
      "attribution per interval)");
  add_whatif_options(args);
  args.add_double("dt", 0.0,
                  "window width in virtual seconds (0 = the trace header's "
                  "telemetry-dt, else makespan/100)");
  args.add_string("export", "csv", "csv | json | chrome");
  args.add_alias("format", "export");
  args.add_flag("json", "shorthand for --export json");
  args.add_string("out", "", "output file ('' = stdout)");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const trace::TraceFile tf = codec::load_trace(args.get_string("trace"));
  serve::TimelineQuery q;
  q.model = model_params(args);
  q.faults = args.get_string("faults");
  q.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  q.dt = args.get_double("dt");
  q.format = support::unified_export(args);
  return emit(serve::run_timeline(tf, q), args.get_string("out")) ? 0 : 1;
}

int cmd_info(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-replay info",
                          "Describe a trace file without replaying it");
  args.add_string("trace", "trace.mpst", "input trace file (.mpst | .mpstz)");
  args.add_flag("digest",
                "print only the stable content digest (identical for .mpst "
                "and .mpstz encodings of the same trace)");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const trace::TraceFile tf = codec::load_trace(args.get_string("trace"));
  if (args.get_flag("digest")) {
    std::printf("%s\n",
                support::format_digest(codec::trace_digest(tf)).c_str());
    return 0;
  }
  std::fputs(serve::run_info(tf).c_str(), stdout);
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-replay sweep",
                          "Replay across a parameter grid, emit long CSV");
  args.add_string("trace", "trace.mpst", "input trace file (.mpst | .mpstz)");
  args.add_string("models", "recorded",
                  "comma list: " + serve::model_choices());
  args.add_alias("machines", "models");
  args.add_string("latency-scales", "1", "comma list of latency multipliers");
  args.add_string("bandwidth-scales", "1",
                  "comma list of bandwidth multipliers");
  args.add_string("compute-scales", "1",
                  "comma list of compute multipliers ('auto' = recorded "
                  "flops / machine flops)");
  args.add_string("drop-rates", "0",
                  "comma list of message drop probabilities (re-costed with "
                  "retransmits onto the what-if frame)");
  args.add_string("progress", "recorded",
                  "comma list of progress models: recorded | " +
                      mpisim::ProgressModel::choices());
  args.add_int("fault-seed", 0,
               "seed for the fault draws (0 = the trace header's seed)");
  args.add_double("tseq", 0.0, "sequential reference time for Eq. 6 bounds");
  args.add_string("out", "", "output CSV ('' = stdout)");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const trace::TraceFile tf = codec::load_trace(args.get_string("trace"));
  serve::SweepQuery q;
  q.models = split_csv(args.get_string("models"));
  q.latency_scales = parse_grid(args.get_string("latency-scales"));
  q.bandwidth_scales = parse_grid(args.get_string("bandwidth-scales"));
  q.compute_scales = split_csv(args.get_string("compute-scales"));
  q.drop_rates = parse_grid(args.get_string("drop-rates"));
  q.progress = split_csv(args.get_string("progress"));
  q.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  q.tseq = args.get_double("tseq");
  return emit(serve::run_sweep(tf, q), args.get_string("out")) ? 0 : 1;
}

int cmd_compress(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-replay compress",
                          "Re-encode a trace as a compressed .mpstz container");
  args.add_string("in", "trace.mpst", "input trace (.mpst | .mpstz)");
  args.add_string("out", "trace.mpstz", "output .mpstz container");
  args.add_int("chunk-events", 16384, "events per chunk (seek granularity)");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const trace::TraceFile tf = codec::load_trace(args.get_string("in"));
  codec::CompressOptions opts;
  if (args.get_int("chunk-events") > 0) {
    opts.chunk_events = static_cast<std::uint64_t>(args.get_int("chunk-events"));
  }
  const std::size_t flat = tf.encode().size();
  const std::vector<std::uint8_t> packed = codec::compress(tf, opts);
  save_bytes(packed, args.get_string("out"));
  std::printf("%s: %zu -> %zu bytes (%.2fx), digest %s\n",
              args.get_string("out").c_str(), flat, packed.size(),
              packed.empty() ? 0.0
                             : static_cast<double>(flat) /
                                   static_cast<double>(packed.size()),
              support::format_digest(codec::trace_digest(tf)).c_str());
  return 0;
}

int cmd_decompress(int argc, const char* const* argv) {
  support::ArgParser args("mpisect-replay decompress",
                          "Expand a .mpstz container back to flat .mpst");
  args.add_string("in", "trace.mpstz", "input .mpstz container");
  args.add_string("out", "trace.mpst", "output .mpst trace");
  if (!parse_with_self_trace(args, argc, argv)) return 1;

  const trace::TraceFile tf = codec::load_trace(args.get_string("in"));
  save_bytes(tf.encode(), args.get_string("out"));
  std::printf("%s: %llu events, digest %s\n", args.get_string("out").c_str(),
              static_cast<unsigned long long>(tf.total_events()),
              support::format_digest(codec::trace_digest(tf)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "record") return cmd_record(argc - 1, argv + 1);
    if (cmd == "replay") return cmd_replay(argc - 1, argv + 1);
    if (cmd == "info") return cmd_info(argc - 1, argv + 1);
    if (cmd == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (cmd == "timeline") return cmd_timeline(argc - 1, argv + 1);
    if (cmd == "compress") return cmd_compress(argc - 1, argv + 1);
    if (cmd == "decompress") return cmd_decompress(argc - 1, argv + 1);
  } catch (const trace::TraceError& err) {
    std::fprintf(stderr, "mpisect-replay: %s\n", err.what());
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mpisect-replay: %s\n", err.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: mpisect-replay "
               "<record|replay|info|sweep|timeline|compress|decompress> "
               "[options]\n"
               "       mpisect-replay <subcommand> --help\n");
  return 1;
}
