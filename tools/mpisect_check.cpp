// mpisect-check — run an application (or a violation scenario) under the
// mpicheck correctness analyzer and report the findings:
//
//   mpisect-check --app convolution --ranks 8 --steps 20      # clean run
//   mpisect-check --scenario deadlock                          # seeded bug
//   mpisect-check --app lulesh --json --out findings.json
//   mpisect-check --app convolution --faults "kill:rank=1,at=0.001"
//
// Scenarios (always 2 ranks) seed one violation class each:
//   deadlock            cross receive with no matching sends
//   leak                pending isend + never-freed duplicated communicator
//   collective-mismatch ranks disagree on the bcast root
//   p2p-mismatch        8-byte message into a 4-byte receive buffer
//   section-misuse      ranks exit different section labels
//
// --faults runs the app under a deterministic fault plan; injected stalls
// and kills are classified as INJECTED_FAULT, never as native deadlocks.
//
// Exit status: 0 = no findings, 2 = findings reported, 1 = usage error.
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "checker/checker.hpp"
#include "checker/report.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/faults/injector.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"
#include "support/cli.hpp"
#include "support/file.hpp"

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

void scenario_deadlock(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  char buf[4] = {};
  // Both ranks receive first; nobody ever sends.
  world.recv(buf, sizeof buf, 1 - world.rank(), /*tag=*/0);
}

void scenario_leak(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  mpisim::Comm dup = world.dup();  // never freed: leaked on every rank
  (void)dup;
  if (world.rank() == 0) {
    static const char payload[8] = {};
    // Pending at finalize: never waited, never received.
    auto req = world.isend(payload, sizeof payload, 1, /*tag=*/99);
    (void)req;
  }
}

void scenario_collective_mismatch(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  // Zero-byte broadcast so the mismatched roots cannot block each other.
  world.bcast(nullptr, 0, /*root=*/world.rank() == 0 ? 0 : 1);
}

void scenario_p2p_mismatch(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  if (world.rank() == 0) {
    static const char payload[8] = {};
    world.send(payload, sizeof payload, 1, /*tag=*/7);
  } else {
    char buf[4] = {};
    world.recv(buf, sizeof buf, 0, /*tag=*/7);  // throws Err::Truncate
  }
}

void scenario_section_misuse(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  sections::MPIX_Section_enter(world, "COMPUTE");
  // Rank 1 exits a label it never entered; its "COMPUTE" section leaks.
  sections::MPIX_Section_exit(world,
                              world.rank() == 0 ? "COMPUTE" : "EXCHANGE");
}

int run(int argc, char** argv) {
  support::ArgParser args("mpisect-check",
                          "Run an app under the mpicheck correctness analyzer");
  args.add_string("app", "convolution", "convolution | lulesh");
  args.add_string("scenario", "clean",
                  "clean | deadlock | leak | collective-mismatch | "
                  "p2p-mismatch | section-misuse");
  support::add_unified_flags(args, /*model_default=*/"ideal",
                             /*export_default=*/"text",
                             /*seed_default=*/0x5EED);
  args.add_int("ranks", 8, "MPI processes (clean runs; scenarios use 2)");
  support::add_world_flags(args);
  args.add_int("threads", 1, "MiniOMP threads per rank (lulesh)");
  args.add_int("steps", 10, "time-steps (clean runs)");
  args.add_string("faults", "",
                  "fault plan spec, e.g. 'drop:p=0.05; kill:rank=1,at=1e-3' "
                  "('' = none)");
  args.add_string("out", "", "output file ('' = stdout)");
  if (!args.parse(argc, argv)) return 1;
  if (const auto& st = args.get_string("self-trace"); !st.empty()) {
    obs::enable_self_trace(st);
  }

  const std::string scenario = args.get_string("scenario");
  const std::string format = support::unified_export(args);
  if (format != "text" && format != "csv" && format != "json") {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 1;
  }

  std::function<void(mpisim::Ctx&)> body;
  int ranks = static_cast<int>(args.get_int("ranks"));
  if (scenario == "deadlock") {
    body = scenario_deadlock;
  } else if (scenario == "leak") {
    body = scenario_leak;
  } else if (scenario == "collective-mismatch") {
    body = scenario_collective_mismatch;
  } else if (scenario == "p2p-mismatch") {
    body = scenario_p2p_mismatch;
  } else if (scenario == "section-misuse") {
    body = scenario_section_misuse;
  } else if (scenario != "clean") {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return 1;
  }
  if (body) ranks = 2;

  mpisim::WorldOptions opts;
  const auto preset = mpisim::MachineModel::preset(args.get_string("model"));
  if (!preset) {
    std::fprintf(stderr, "unknown model '%s' (%s)\n",
                 args.get_string("model").c_str(), preset_list().c_str());
    return 1;
  }
  opts.machine = *preset;
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  if (!args.get_string("faults").empty()) {
    try {
      opts.faults = mpisim::faults::FaultPlan::parse(args.get_string("faults"));
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "mpisect-check: %s\n", err.what());
      return 1;
    }
  }
  const auto world_ptr = mpisim::Session(ranks, opts)
                             .world_builder()
                             .exec_spec(args.get_string("exec"))
                             .build();
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);

  auto check = checker::MpiChecker::install(world);
  std::shared_ptr<mpisim::faults::FaultInjector> injector;
  if (!opts.faults.empty()) {
    injector = mpisim::faults::FaultInjector::install(world);
  }

  if (!body) {
    const std::string app_name = args.get_string("app");
    if (app_name == "convolution") {
      apps::conv::ConvolutionConfig cfg;
      cfg.steps = static_cast<int>(args.get_int("steps"));
      cfg.full_fidelity = false;
      apps::conv::ConvolutionApp app(cfg);
      body = std::ref(app);
      try {
        world.run(body);
      } catch (const mpisim::MpiError& err) {
        std::fprintf(stderr, "run terminated: %s\n", err.what());
      }
    } else if (app_name == "lulesh") {
      apps::lulesh::LuleshConfig cfg;
      cfg.steps = static_cast<int>(args.get_int("steps"));
      cfg.omp_threads = static_cast<int>(args.get_int("threads"));
      cfg.full_fidelity = false;
      apps::lulesh::LuleshApp app(cfg);
      body = std::ref(app);
      try {
        world.run(body);
      } catch (const mpisim::MpiError& err) {
        std::fprintf(stderr, "run terminated: %s\n", err.what());
      }
    } else {
      std::fprintf(stderr, "unknown app '%s' (convolution|lulesh)\n",
                   app_name.c_str());
      return 1;
    }
  } else {
    try {
      world.run(body);
    } catch (const mpisim::MpiError& err) {
      // Expected for seeded scenarios: the checker aborts a deadlocked
      // world, truncation throws on the receiver.
      std::fprintf(stderr, "run terminated: %s\n", err.what());
    }
  }

  check->analyze();
  const auto diags = check->diagnostics();
  if (injector) {
    std::fprintf(stderr, "fault plan: %s\ninjected: %s\n",
                 opts.faults.describe().c_str(),
                 injector->summary().c_str());
  }

  std::string text;
  if (format == "text") {
    text = diags.empty() ? "" : checker::render_text(diags);
    text += checker::render_summary(diags);
    text += "\n";
  } else if (format == "csv") {
    text = checker::render_csv(diags);
  } else {
    text = checker::render_json(diags);
  }
  if (!support::write_output("mpisect-check", text, args.get_string("out"))) {
    return 1;
  }

  std::size_t errors = 0;
  for (const auto& d : diags) {
    if (d.severity == checker::Severity::Error) ++errors;
  }
  return errors > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Corrupt input or an internal failure must surface as a one-line
  // diagnostic with a nonzero exit, never an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mpisect-check: %s\n", err.what());
    return 1;
  }
}
