// The one way the mpisect-* tools parse their flags and launch an app.
// A world-building tool (report, check, top, analyze, replay record)
// declares its own flags and defaults, then:
//
//   if (!launch::parse(args, argc, argv)) return 1;
//   const int ranks = launch::int_flag(args, "ranks");
//   const launch::Body body = launch::app(args.get_string("app"),
//                                         {steps, size, threads}, ranks);
//   const auto world = launch::world(args, ranks, opts);
//   // attach the tool's recorder / checker / sampler / injector here
//   world->run(body);
//
// Errors are exceptions with a one-line message; guarded_main prints them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mpisim/runtime.hpp"
#include "support/cli.hpp"

namespace mpisect::launch {

/// A rank body that owns its configured app.
using Body = std::function<void(mpisim::Ctx&)>;

/// A tool's main: `run`, with any exception printed as `<tool>: <message>`
/// and exit 1, never an uncaught-exception abort.
int guarded_main(const char* tool, int (*run)(int, char**), int argc,
                 char** argv);

/// Declare `--self-trace`, parse argv, and arm the span tracer when the
/// flag is set. False on --help or a bad argument.
[[nodiscard]] bool parse(support::ArgParser& args, int argc,
                         const char* const* argv);

/// "nehalem-cluster|knl|broadwell-2s|ideal": the --model choices.
[[nodiscard]] std::string presets();

/// --ranks, --steps, --size or --threads, checked to fit in int and to lie
/// within its bound (launch.cpp); the error names the flag.
[[nodiscard]] int int_flag(const support::ArgParser& args,
                           const std::string& name);

/// An unsigned integer flag (a seed, a count) checked by support::check_int
/// to lie in [lo, hi]; the error names the flag.
[[nodiscard]] std::uint64_t uint_flag(const support::ArgParser& args,
                                      const std::string& name, std::int64_t lo,
                                      std::int64_t hi);

/// A seed flag: an integer in [0, 2^53] (support::kMaxExactInt), the
/// daemon's seed bound.
[[nodiscard]] std::uint64_t seed_flag(const support::ArgParser& args,
                                      const std::string& name);

/// What sizes an app run. A tool without --size/--threads passes 0/1.
struct AppSize {
  int steps = 0;
  int size = 0;  ///< 0 = the app's default problem size
  int threads = 1;
};

/// The modeled convolution or lulesh app, sized by `sz`. Throws for an
/// unknown app, for lulesh on a non-cube `ranks` and for convolution on
/// more ranks than image rows, before any world.
[[nodiscard]] Body app(const std::string& name, const AppSize& sz, int ranks);

/// Session -> exec_spec(--exec) -> build -> SectionRuntime::install, with
/// the --model preset (an unknown name throws) and --seed (seed_flag)
/// filled into
/// `opts`; the caller sets any other field.
[[nodiscard]] std::unique_ptr<mpisim::World> world(
    const support::ArgParser& args, int ranks, mpisim::WorldOptions opts = {});

}  // namespace mpisect::launch
