// mpisect-top — live terminal telemetry for an instrumented run.
//
// Runs an app with the TelemetrySampler attached and renders, at a fixed
// wall-clock refresh, the top-N sections ranked by Eq. 6 bound tightness
// (lowest speedup bound first — the section currently capping the app),
// with a sparkline of each section's recent per-window imbalance and a
// counter footer (messages, bytes, eager share, MiniOMP charges).
//
//   mpisect-top --app lulesh --ranks 8 --threads 4 --steps 50 --model knl
//   mpisect-top --app convolution --ranks 16 --steps 200 --dt 0.005
//   mpisect-top --post telemetry.csv          # re-render a saved series
//   mpisect-top --app lulesh --no-live --export csv --out telemetry.csv
//
// The live view reads sampler ring snapshots while ranks run; the final
// render (and every --export) is the deterministic post-run reduction.
// Exit status: 0 = ok, 1 = usage/app error.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/sections/runtime.hpp"
#include "core/speedup/partial_bound.hpp"
#include "mpisim/faults/injector.hpp"
#include "mpisim/session.hpp"
#include "obs/memory.hpp"
#include "obs/spans.hpp"
#include "support/cli.hpp"
#include "support/file.hpp"
#include "support/strings.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeline.hpp"

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

/// Unicode block sparkline of the series tail (empty series -> spaces).
std::string sparkline(const std::vector<double>& xs, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  const std::size_t n = xs.size() > width ? width : xs.size();
  double hi = 0.0;
  for (std::size_t i = xs.size() - n; i < xs.size(); ++i) {
    hi = std::max(hi, xs[i]);
  }
  std::string out;
  for (std::size_t i = 0; i < width - n; ++i) out += " ";
  for (std::size_t i = xs.size() - n; i < xs.size(); ++i) {
    const int level =
        hi > 0.0 ? std::min(7, static_cast<int>(xs[i] / hi * 7.999)) : 0;
    out += kBlocks[level];
  }
  return out;
}

struct RenderOptions {
  int top = 10;
  std::size_t spark_width = 24;
  bool clear_screen = false;
  std::string status;
};

/// The top view: sections ranked by bound tightness over the series so far.
std::string render(const telemetry::Timeline& tl, const RenderOptions& ro) {
  std::string out;
  if (ro.clear_screen) out += "\x1b[2J\x1b[H";
  out += support::provenance_banner("mpisect-top") + "\n";
  double t_end = 0.0;
  for (const auto& w : tl.windows) t_end = std::max(t_end, w.t_end);
  out += support::fmt_double(tl.dt * 1e3, 3) + " ms/window  " +
         std::to_string(tl.windows.size()) + " windows  " +
         std::to_string(tl.nranks) + " ranks  t=" +
         support::fmt_seconds(t_end) + "  " + ro.status;
  if (tl.dropped > 0) {
    out += "  [" + std::to_string(tl.dropped) + " samples dropped]";
  }
  out += "\n\n";

  double busy_sum = 0.0;
  for (const auto& t : tl.section_totals) busy_sum += t.total;

  // Rank sections by Eq. 6 bound (ascending: tightest cap first).
  struct Row {
    const telemetry::Timeline::SectionTotal* tot;
    double bound;
  };
  std::vector<Row> rows;
  for (const auto& t : tl.section_totals) {
    if (t.label == "MPI_MAIN") continue;
    rows.push_back({&t, speedup::partial_bound(busy_sum, t.per_process)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.bound < b.bound; });

  out += support::pad_right("SECTION", 28) + support::pad_left("BOUND", 9) +
         support::pad_left("PER-PROC", 11) + support::pad_left("TOTAL", 11) +
         support::pad_left("IMB", 11) + "  IMBALANCE TREND\n";
  int shown = 0;
  for (const Row& r : rows) {
    if (shown++ >= ro.top) break;
    std::vector<double> imb_series;
    for (const auto& w : tl.windows) {
      double v = 0.0;
      for (const auto& s : w.sections) {
        if (s.label == r.tot->label) v = s.imbalance;
      }
      imb_series.push_back(v);
    }
    const std::string bound_str = std::isfinite(r.bound)
                                      ? support::fmt_double(r.bound, 1) + "x"
                                      : "inf";
    out += support::pad_right(r.tot->label, 28) +
           support::pad_left(bound_str, 9) +
           support::pad_left(support::fmt_seconds(r.tot->per_process), 11) +
           support::pad_left(support::fmt_seconds(r.tot->total), 11) +
           support::pad_left(
               support::fmt_seconds(r.tot->max_window_imbalance), 11) +
           "  " + sparkline(imb_series, ro.spark_width) + "\n";
  }
  if (!tl.binding.empty()) {
    const std::string b =
        std::isfinite(tl.bound) ? support::fmt_double(tl.bound, 2) : "inf";
    out += "\nEq. 6 binding section: " + tl.binding + "  (speedup bound " +
           b + ")\n";
  }
  return out;
}

std::string counters_footer(const telemetry::Registry& reg,
                            const telemetry::StandardInstruments& ins) {
  const double msgs = reg.total(ins.msgs_sent);
  const double eager = reg.total(ins.msgs_eager);
  std::string out = "msgs=" + support::fmt_double(msgs, 0) +
                    " bytes=" + support::fmt_bytes(reg.total(ins.bytes_sent));
  if (msgs > 0) {
    out += " eager=" + support::fmt_double(eager / msgs * 100.0, 1) + "%";
  }
  out += " colls=" + support::fmt_double(reg.total(ins.coll_entries), 0) +
         " mpi_calls=" + support::fmt_double(reg.total(ins.mpi_calls), 0) +
         " omp_regions=" + support::fmt_double(reg.total(ins.omp_regions), 0);
  return out + "\n";
}

/// The --self pane: how the *simulator* is doing, next to how the
/// simulated app is doing. Scheduler wall-time split and park/wake rates
/// come from ExecStats (busy/idle need obs::set_timing — armed in main
/// when --self is passed); bytes/rank from the channel/stack accountant;
/// progress.* from the sampler registry (PR 8 counters, otherwise only
/// visible via --export prom).
std::string self_pane(const mpisim::ExecStats& st, const obs::MemAccount& mem,
                      const telemetry::Registry& reg) {
  const auto u64 = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::string out = "\nsimulator:\n";
  const double busy_s = static_cast<double>(u64(st.busy_ns)) * 1e-9;
  const double idle_s = static_cast<double>(u64(st.idle_ns)) * 1e-9;
  const double wall = busy_s + idle_s;
  out += "  workers busy=" + support::fmt_seconds(busy_s) +
         " idle=" + support::fmt_seconds(idle_s);
  if (wall > 0.0) {
    out += " (" + support::fmt_double(busy_s / wall * 100.0, 1) + "% busy)";
  }
  out += "\n  parks=" + std::to_string(u64(st.parks)) +
         " wakes=" + std::to_string(u64(st.wakes)) +
         " switches=" + std::to_string(u64(st.switches));
  if (const auto n = u64(st.switch_latency_samples); n > 0) {
    out += " wake-to-resume=" +
           support::fmt_double(
               static_cast<double>(u64(st.switch_latency_ns)) /
                   static_cast<double>(n) * 1e-3,
               1) +
           "us";
  }
  if (const auto n = u64(st.ready_depth_samples); n > 0) {
    out += " ready-depth=" +
           support::fmt_double(static_cast<double>(u64(st.ready_depth_sum)) /
                                   static_cast<double>(n),
                               1);
  }
  out += "\n  mem channels=" +
         support::fmt_bytes(static_cast<double>(mem.total_hwm())) + " hwm (" +
         support::fmt_bytes(mem.bytes_per_rank()) + "/rank, peak rank " +
         support::fmt_bytes(static_cast<double>(mem.peak_rank_hwm())) +
         ")  stacks=" +
         support::fmt_bytes(static_cast<double>(u64(st.stack_bytes))) + "\n";
  std::string prog;
  for (const char* name :
       {"progress.nbc_posted", "progress.nbc_completed",
        "progress.test_calls"}) {
    if (const auto id = reg.find(name)) {
      if (!prog.empty()) prog += " ";
      const char* short_name = name + sizeof("progress.") - 1;
      prog += std::string(short_name) + "=" +
              support::fmt_double(reg.total(*id), 0);
    }
  }
  if (!prog.empty()) out += "  progress " + prog + "\n";
  return out;
}

int run_post(const std::string& path, const RenderOptions& ro) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mpisect-top: cannot read %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const telemetry::Timeline tl = telemetry::timeline_from_csv(ss.str());
  std::fputs(render(tl, ro).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("mpisect-top",
                          "Live telemetry view of an instrumented run");
  args.add_string("app", "lulesh", "lulesh | convolution");
  support::add_unified_flags(args, /*model_default=*/"knl",
                             /*export_default=*/"",
                             /*seed_default=*/0x5EED);
  args.add_int("ranks", 8, "MPI processes (lulesh: perfect cube)");
  args.add_int("threads", 2, "MiniOMP threads per rank (lulesh)");
  args.add_int("steps", 30, "time-steps");
  args.add_int("size", 0, "problem size (0 = default)");
  support::add_world_flags(args);
  args.add_double("dt", 0.05, "sampling interval, virtual seconds");
  args.add_int("depth", 0,
               "attribution depth: 0 = leaf sections, k = roll busy time up "
               "into the depth-k ancestor (2 = Lulesh phase view)");
  args.add_int("top", 10, "sections shown");
  args.add_int("refresh-ms", 250, "live refresh period");
  args.add_flag("no-live", "skip live rendering (CI/batch)");
  args.add_flag("self",
                "show a simulator self-observability pane (worker busy/idle, "
                "park/wake, bytes/rank, progress counters)");
  args.add_string("post", "", "render a saved timeline CSV instead of running");
  args.add_string("faults", "",
                  "fault plan spec, e.g. 'drop:p=0.05; stall:rank=0,at=0.01,"
                  "for=0.1' ('' = none)");
  args.add_string("out", "", "output file for --export ('' = stdout)");
  if (!args.parse(argc, argv)) return 1;
  if (const auto& st = args.get_string("self-trace"); !st.empty()) {
    obs::enable_self_trace(st);
  }
  const bool self_pane_on = args.get_flag("self");
  // busy/idle and wake-to-resume latency cost clock reads the scheduler
  // only pays when asked; virtual time is unaffected either way.
  if (self_pane_on) obs::set_timing(true);

  RenderOptions ro;
  ro.top = static_cast<int>(args.get_int("top"));

  try {
    if (!args.get_string("post").empty()) {
      ro.status = "[post]";
      return run_post(args.get_string("post"), ro);
    }

    const auto preset =
        mpisim::MachineModel::preset(args.get_string("model"));
    if (!preset) {
      std::fprintf(stderr, "mpisect-top: unknown model '%s' (%s)\n",
                   args.get_string("model").c_str(), preset_list().c_str());
      return 1;
    }
    const int ranks = static_cast<int>(args.get_int("ranks"));
    mpisim::WorldOptions opts;
    opts.machine = *preset;
    opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    if (!args.get_string("faults").empty()) {
      opts.faults =
          mpisim::faults::FaultPlan::parse(args.get_string("faults"));
    }
    const auto world_ptr = mpisim::Session(ranks, opts)
                               .world_builder()
                               .exec_spec(args.get_string("exec"))
                               .build();
    mpisim::World& world = *world_ptr;
    sections::SectionRuntime::install(world);
    telemetry::SamplerOptions sopts;
    sopts.dt = args.get_double("dt");
    sopts.phase_depth = static_cast<int>(args.get_int("depth"));
    auto sampler = telemetry::TelemetrySampler::install(world, sopts);
    std::shared_ptr<mpisim::faults::FaultInjector> injector;
    if (!opts.faults.empty()) {
      injector = mpisim::faults::FaultInjector::install(world);
    }

    std::function<void(mpisim::Ctx&)> body;
    const std::string app_name = args.get_string("app");
    std::shared_ptr<apps::conv::ConvolutionApp> conv;
    std::shared_ptr<apps::lulesh::LuleshApp> lulesh;
    if (app_name == "convolution") {
      apps::conv::ConvolutionConfig cfg;
      cfg.steps = static_cast<int>(args.get_int("steps"));
      if (args.get_int("size") > 0) {
        cfg.width = static_cast<int>(args.get_int("size")) * 100;
        cfg.height = static_cast<int>(args.get_int("size")) * 75;
      }
      cfg.full_fidelity = false;
      conv = std::make_shared<apps::conv::ConvolutionApp>(cfg);
      body = [conv](mpisim::Ctx& ctx) { (*conv)(ctx); };
    } else if (app_name == "lulesh") {
      apps::lulesh::LuleshConfig cfg;
      cfg.steps = static_cast<int>(args.get_int("steps"));
      cfg.omp_threads = static_cast<int>(args.get_int("threads"));
      if (args.get_int("size") > 0) {
        cfg.s = static_cast<int>(args.get_int("size"));
      }
      cfg.full_fidelity = false;
      lulesh = std::make_shared<apps::lulesh::LuleshApp>(cfg);
      body = [lulesh](mpisim::Ctx& ctx) { (*lulesh)(ctx); };
    } else {
      std::fprintf(stderr, "mpisect-top: unknown app '%s'\n",
                   app_name.c_str());
      return 1;
    }

    std::atomic<bool> done{false};
    std::exception_ptr run_error;
    std::thread runner([&] {
      try {
        world.run(body);
      } catch (...) {
        run_error = std::current_exception();
      }
      done.store(true);
    });

    const bool live = !args.get_flag("no-live") && isatty(1) != 0;
    while (!done.load()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.get_int("refresh-ms")));
      if (!live) continue;
      telemetry::Timeline tl = telemetry::build_timeline(*sampler);
      RenderOptions live_ro = ro;
      live_ro.clear_screen = true;
      live_ro.status = "[running]";
      std::string frame = render(tl, live_ro);
      frame += counters_footer(sampler->registry(), sampler->instruments());
      if (self_pane_on) {
        frame += self_pane(world.executor().stats(), world.mem_account(),
                           sampler->registry());
      }
      std::fputs(frame.c_str(), stdout);
      std::fflush(stdout);
    }
    runner.join();
    if (run_error) std::rethrow_exception(run_error);

    const telemetry::Timeline tl = telemetry::build_timeline(*sampler);

    support::Provenance prov = support::build_provenance();
    prov.machine = opts.machine.name;
    prov.seed = std::to_string(opts.seed);

    const std::string fmt_name = support::unified_export(args);
    if (!fmt_name.empty()) {
      std::string text;
      if (fmt_name == "csv") {
        text = telemetry::timeline_csv(tl, prov);
      } else if (fmt_name == "counters") {
        text = telemetry::counters_csv(tl, prov);
      } else if (fmt_name == "json") {
        text = telemetry::timeline_json(tl, prov);
      } else if (fmt_name == "chrome") {
        text = telemetry::chrome_counters(tl, prov);
      } else if (fmt_name == "prom") {
        text = telemetry::metrics_page(sampler->registry(), prov);
      } else {
        std::fprintf(stderr, "mpisect-top: unknown export '%s'\n",
                     fmt_name.c_str());
        return 1;
      }
      return support::write_output("mpisect-top", text, args.get_string("out"),
                                   fmt_name) ? 0 : 1;
    }

    ro.status = "[done]";
    std::string out = render(tl, ro);
    out += counters_footer(sampler->registry(), sampler->instruments());
    if (self_pane_on) {
      out += self_pane(world.executor().stats(), world.mem_account(),
                       sampler->registry());
    }
    if (injector) {
      out += "faults: " + injector->summary() + "\n";
    }
    std::fputs(out.c_str(), stdout);
    return 0;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mpisect-top: %s\n", err.what());
    return 1;
  }
}
