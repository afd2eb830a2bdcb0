// mpisect-report — run an instrumented application on a machine model and
// emit every report the toolchain produces, from one command line:
//
//   mpisect-report --app convolution --ranks 64 --steps 200
//                  --model nehalem --export text
//   mpisect-report --app lulesh --ranks 8 --threads 16 --model knl
//                  --export tree
//   mpisect-report --app lulesh --export chrome --out trace.json
//   mpisect-report --app convolution --export snapshot --out before.csv
//
// Formats: text (per-section table), csv, json, tree (phase call-tree),
// balance (load-balance triage), chrome (chrome://tracing JSON),
// snapshot (ProfileSnapshot CSV for mpisect-diff).
#include <cstdio>
#include <memory>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "profiler/balance.hpp"
#include "profiler/diff.hpp"
#include "profiler/report.hpp"
#include "profiler/section_profiler.hpp"
#include "profiler/tree.hpp"
#include "obs/spans.hpp"
#include "support/cli.hpp"
#include "support/file.hpp"
#include "support/strings.hpp"

namespace {

using namespace mpisect;

std::string preset_list() {
  std::string out;
  for (const auto& n : mpisim::MachineModel::preset_names()) {
    if (!out.empty()) out += "|";
    out += n;
  }
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  support::ArgParser args("mpisect-report",
                          "Run an instrumented app and emit section reports");
  args.add_string("app", "convolution", "convolution | lulesh");
  support::add_unified_flags(args, /*model_default=*/"nehalem",
                             /*export_default=*/"text",
                             /*seed_default=*/0x5EED);
  args.add_int("ranks", 8, "MPI processes (lulesh: perfect cube)");
  support::add_world_flags(args);
  args.add_int("threads", 1, "MiniOMP threads per rank (lulesh)");
  args.add_int("steps", 100, "time-steps");
  args.add_int("size", 0,
               "problem size (convolution: image height scale x100; lulesh: "
               "per-rank edge; 0 = default)");
  args.add_string("out", "", "output file ('' = stdout)");
  args.add_flag("validate", "enable section validation mode");
  if (!args.parse(argc, argv)) return 1;
  if (const auto& st = args.get_string("self-trace"); !st.empty()) {
    obs::enable_self_trace(st);
  }

  const std::string app_name = args.get_string("app");
  const std::string format = support::unified_export(args);
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const bool keep_instances =
      format == "tree" || format == "chrome";

  mpisim::WorldOptions opts;
  const auto preset = mpisim::MachineModel::preset(args.get_string("model"));
  if (!preset) {
    std::fprintf(stderr, "unknown model '%s' (%s)\n",
                 args.get_string("model").c_str(), preset_list().c_str());
    return 1;
  }
  opts.machine = *preset;
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  opts.validate_sections = args.get_flag("validate");
  const auto world_ptr = mpisim::Session(ranks, opts)
                             .world_builder()
                             .exec_spec(args.get_string("exec"))
                             .build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world, {.keep_instances = keep_instances});

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
    std::fprintf(stderr, "unknown app '%s' (convolution|lulesh)\n",
                 app_name.c_str());
    return 1;
  }

  std::string text;
  if (format == "text") {
    text = profiler::render_text(prof);
    text += "virtual walltime: " + support::fmt_seconds(world.elapsed()) +
            " on " + std::to_string(ranks) + " ranks (" +
            opts.machine.name + ")\n";
  } else if (format == "csv") {
    text = profiler::render_csv(prof);
  } else if (format == "json") {
    text = profiler::render_json(prof);
  } else if (format == "tree") {
    text = profiler::render_tree(profiler::build_section_tree(prof));
  } else if (format == "balance") {
    text = profiler::render_balance(profiler::balance_report(prof));
  } else if (format == "chrome") {
    text = profiler::render_chrome_trace(prof);
  } else if (format == "snapshot") {
    text = profiler::ProfileSnapshot::capture(prof, app_name).to_csv();
  } else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 1;
  }
  return support::write_output("mpisect-report", text, args.get_string("out"))
             ? 0
             : 1;
}

int main(int argc, char** argv) {
  // Usage errors (bad --exec specs and friends) must surface as a
  // one-line diagnostic with exit 1, never an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mpisect-report: %s\n", err.what());
    return 1;
  }
}
