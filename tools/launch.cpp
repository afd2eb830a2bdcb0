#include "launch.hpp"

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/comm.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"
#include "support/strings.hpp"

namespace mpisect::launch {
namespace {

// Bounds of the flags int_flag reads, so no cast to int truncates.
constexpr int kMaxRanks = 1 << 20;
constexpr int kMaxSteps = 10'000'000;
// Convolution's image is size*100 x size*75 pixels: both stay in int.
constexpr int kMaxSize = std::numeric_limits<int>::max() / 100;
constexpr int kMaxThreads = 1024;  // minomp::Team's own clamp

struct IntBound {
  const char* name;
  int lo;
  int hi;
};

constexpr IntBound kIntBounds[] = {
    {"ranks", 1, kMaxRanks},
    {"steps", 0, kMaxSteps},
    {"size", 0, kMaxSize},
    {"threads", 1, kMaxThreads},
};

mpisim::MachineModel model(const std::string& name) {
  const auto preset = mpisim::MachineModel::preset(name);
  if (!preset) {
    throw std::invalid_argument("unknown model '" + name + "' (" + presets() +
                                ")");
  }
  return *preset;
}

}  // namespace

int guarded_main(const char* tool, int (*run)(int, char**), int argc,
                 char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s: %s\n", tool, err.what());
    return 1;
  }
}

bool parse(support::ArgParser& args, int argc, const char* const* argv) {
  args.add_string("self-trace", "",
                  "wall-clock self-trace of the simulator itself "
                  "(.json = chrome://tracing, else CSV)");
  if (!args.parse(argc, argv)) return false;
  if (const auto& path = args.get_string("self-trace"); !path.empty()) {
    obs::enable_self_trace(path);
  }
  return true;
}

std::string presets() {
  return support::join(mpisim::MachineModel::preset_names(), "|");
}

int int_flag(const support::ArgParser& args, const std::string& name) {
  for (const IntBound& b : kIntBounds) {
    if (name != b.name) continue;
    const long long v = args.get_int(name);
    if (v < b.lo || v > b.hi) {
      throw std::invalid_argument("--" + name + " " + std::to_string(v) +
                                  " is outside [" + std::to_string(b.lo) +
                                  ", " + std::to_string(b.hi) + "]");
    }
    return static_cast<int>(v);
  }
  throw std::logic_error("launch::int_flag: no bound for --" + name);
}

std::uint64_t uint_flag(const support::ArgParser& args,
                        const std::string& name, std::int64_t lo,
                        std::int64_t hi) {
  const long long v = args.get_int(name);
  // Past 2^53 a long long rounds on its way to double, possibly onto the
  // bound: such a value is out of range however it rounds.
  const double d = v > hi ? std::numeric_limits<double>::infinity()
                          : static_cast<double>(v);
  return static_cast<std::uint64_t>(
      support::check_int(name.c_str(), d, lo, hi));
}

std::uint64_t seed_flag(const support::ArgParser& args,
                        const std::string& name) {
  return uint_flag(args, name, 0, support::kMaxExactInt);
}

Body app(const std::string& name, const AppSize& sz, int ranks) {
  if (name == "convolution") {
    apps::conv::ConvolutionConfig cfg;
    cfg.steps = sz.steps;
    if (sz.size > 0) {
      cfg.width = sz.size * 100;
      cfg.height = sz.size * 75;
    }
    // The row decomposition's own rule, checked before any world exists
    // (inside it, every rank would raise it).
    if (ranks > cfg.height) {
      throw std::invalid_argument(
          "convolution needs at most one rank per image row: --ranks " +
          std::to_string(ranks) + " exceeds the " + std::to_string(cfg.height) +
          " rows");
    }
    cfg.full_fidelity = false;
    return [app = std::make_shared<apps::conv::ConvolutionApp>(cfg)](
               mpisim::Ctx& ctx) { (*app)(ctx); };
  }
  if (name == "lulesh") {
    if (!apps::lulesh::CubeDecomposition::is_cube(ranks)) {
      throw std::invalid_argument(
          "lulesh requires a perfect-cube rank count (1, 8, 27, 64, ...), "
          "got --ranks " +
          std::to_string(ranks));
    }
    apps::lulesh::LuleshConfig cfg;
    cfg.steps = sz.steps;
    cfg.omp_threads = sz.threads;
    if (sz.size > 0) cfg.s = sz.size;
    cfg.full_fidelity = false;
    return [app = std::make_shared<apps::lulesh::LuleshApp>(cfg)](
               mpisim::Ctx& ctx) { (*app)(ctx); };
  }
  throw std::invalid_argument("unknown app '" + name +
                              "' (convolution|lulesh)");
}

std::unique_ptr<mpisim::World> world(const support::ArgParser& args,
                                     int ranks, mpisim::WorldOptions opts) {
  opts.machine = model(args.get_string("model"));
  opts.seed = seed_flag(args, "seed");
  auto w = mpisim::Session(ranks, std::move(opts))
               .world_builder()
               .exec_spec(args.get_string("exec"))
               .build();
  sections::SectionRuntime::install(*w);
  return w;
}

}  // namespace mpisect::launch
