#include "serve/queries.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "support/provenance.hpp"
#include "telemetry/export.hpp"
#include "telemetry/timeline.hpp"
#include "trace/replay.hpp"
#include "trace/report.hpp"

namespace mpisect::serve {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

/// Shortest decimal rendering that round-trips a double — canonical forms
/// must not depend on printf defaults.
std::string canon_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = std::strtod(buf, nullptr);
  for (int prec = 1; prec <= 16; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == back) return probe;
  }
  return buf;
}

std::string join_csv(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ",";
    out += item;
  }
  return out;
}

std::string join_csv(const std::vector<double>& items) {
  std::string out;
  for (const double item : items) {
    if (!out.empty()) out += ",";
    out += canon_double(item);
  }
  return out;
}

double parse_compute_scale(const trace::TraceFile& tf,
                           const mpisim::MachineModel& machine,
                           const std::string& spec) {
  if (spec == "auto") {
    return machine.flops_per_core > 0
               ? tf.header.machine.flops_per_core / machine.flops_per_core
               : 1.0;
  }
  const double cs = std::strtod(spec.c_str(), nullptr);
  if (cs <= 0) {
    throw trace::TraceError("bad compute-scale '" + spec +
                            "' (positive float or 'auto')");
  }
  return cs;
}

mpisim::MachineModel base_model(const trace::TraceFile& tf,
                                const std::string& name) {
  if (name == "recorded") return tf.header.machine;
  if (auto preset = mpisim::MachineModel::preset(name)) return *preset;
  throw trace::TraceError("unknown model '" + name + "' (" + model_choices() +
                          ")");
}

mpisim::ProgressModel resolve_progress(const trace::TraceFile& tf,
                                       const std::string& spec) {
  if (spec.empty() || spec == "recorded") return tf.header.progress;
  return mpisim::ProgressModel::parse(spec);
}

trace::ReplayOptions replay_options(const trace::TraceFile& tf,
                                    double compute_scale,
                                    const std::string& faults,
                                    std::uint64_t fault_seed, bool timeline) {
  trace::ReplayOptions ropts;
  ropts.compute_scale = compute_scale;
  ropts.timeline = timeline;
  if (!faults.empty()) {
    ropts.faults = mpisim::faults::FaultPlan::parse(faults);
    ropts.fault_seed = fault_seed;
  }
  (void)tf;
  return ropts;
}

/// The key columns of one sweep point's CSV rows.
struct SweepKey {
  std::string machine;
  double latency_scale = 1.0;
  double bandwidth_scale = 1.0;
  double compute_scale = 1.0;
  double drop_rate = 0.0;
  std::string progress;
};

/// Resolve the sweep grid point by point in loop order and hand each to
/// `fn(key, point)`; throws at the first bad grid entry.
template <class Fn>
void for_each_sweep_point(const trace::TraceFile& tf, const SweepQuery& q,
                          Fn&& fn) {
  for (const auto& mname : q.models) {
    const mpisim::MachineModel base = base_model(tf, mname);
    for (const double ls : q.latency_scales) {
      for (const double bs : q.bandwidth_scales) {
        for (const std::string& citem : q.compute_scales) {
          const double cs = parse_compute_scale(tf, base, citem);
          mpisim::MachineModel m = base;
          m.net.intra_node.latency *= ls;
          m.net.inter_node.latency *= ls;
          m.net.intra_node.bandwidth *= bs;
          m.net.inter_node.bandwidth *= bs;
          for (const std::string& pitem : q.progress) {
            const mpisim::ProgressModel pm = resolve_progress(tf, pitem);
            const mpisim::MachineModel mp = trace::fold_progress(
                m, tf.header.progress, pm,
                /*machine_is_recorded=*/mname == "recorded");
            for (const double dr : q.drop_rates) {
              if (dr < 0.0 || dr >= 1.0) {
                throw trace::TraceError(
                    "bad drop-rates entry (need 0 <= p < 1)");
              }
              trace::ReplayOptions ropts;
              ropts.compute_scale = cs;
              ropts.progress = pm;
              if (dr > 0.0) {
                char spec[48];
                std::snprintf(spec, sizeof spec, "drop:p=%.9g", dr);
                ropts.faults = mpisim::faults::FaultPlan::parse(spec);
                ropts.fault_seed = q.fault_seed;
              }
              fn(SweepKey{mname, ls, bs, cs, dr, pm.spec()},
                 trace::WhatIfPoint{mp, std::move(ropts)});
            }
          }
        }
      }
    }
  }
}

}  // namespace

std::string model_choices() {
  std::string out = "recorded";
  for (const auto& n : mpisim::MachineModel::preset_names()) {
    out += "|";
    out += n;
  }
  return out;
}

ResolvedModel resolve_model(const trace::TraceFile& tf,
                            const ModelParams& p) {
  ResolvedModel r;
  r.machine = base_model(tf, p.model);
  mpisim::NetworkModel& net = r.machine.net;
  if (p.latency > 0) {
    net.intra_node.latency = p.latency;
    net.inter_node.latency = p.latency;
  }
  if (p.bandwidth > 0) {
    net.intra_node.bandwidth = p.bandwidth;
    net.inter_node.bandwidth = p.bandwidth;
  }
  net.intra_node.latency *= p.latency_scale;
  net.inter_node.latency *= p.latency_scale;
  net.intra_node.bandwidth *= p.bandwidth_scale;
  net.inter_node.bandwidth *= p.bandwidth_scale;
  net.jitter.rel_sigma *= p.jitter_scale;
  net.jitter.add_sigma *= p.jitter_scale;
  net.jitter.spike_mean *= p.jitter_scale;
  if (p.no_jitter) {
    net.jitter = mpisim::JitterModel{};
  }
  if (p.eager > 0) {
    net.eager_threshold = static_cast<std::size_t>(p.eager);
  }
  r.compute_scale = parse_compute_scale(tf, r.machine, p.compute_scale);
  // A recorded-header machine already carries the recorded model's
  // opportunistic entry-poll fold; presets are pristine.
  r.progress = resolve_progress(tf, p.progress);
  r.machine = trace::fold_progress(r.machine, tf.header.progress, r.progress,
                                   /*machine_is_recorded=*/p.model ==
                                       "recorded");
  return r;
}

std::string run_info(const trace::TraceFile& tf) {
  std::string out;
  out += fmt("app:    %s\n", tf.header.app.c_str());
  out += fmt("seed:   0x%llx  start-skew sigma %.3g\n",
             static_cast<unsigned long long>(tf.header.seed),
             tf.header.start_skew_sigma);
  out += fmt("ranks:  %d   events: %llu\n", tf.header.nranks,
             static_cast<unsigned long long>(tf.total_events()));
  out += tf.header.machine.describe();
  out += fmt("labels: %zu\n", tf.labels.size());
  for (std::size_t i = 0; i < tf.labels.size(); ++i) {
    out += fmt("  [%zu] %s\n", i, tf.labels[i].c_str());
  }
  for (const auto& r : tf.ranks) {
    out += fmt("rank %3d: %zu events, t0 %.6f, t_final %.6f\n", r.rank,
               r.events.size(), r.t0, r.t_final);
    if (tf.ranks.size() > 8 && r.rank == 3) {
      out += fmt("  ... (%zu more ranks)\n", tf.ranks.size() - 4);
      break;
    }
  }
  return out;
}

std::string run_replay(const trace::TraceFile& tf, const ReplayQuery& q) {
  const ResolvedModel w = resolve_model(tf, q.model);
  trace::ReplayOptions ropts =
      replay_options(tf, w.compute_scale, q.faults, q.fault_seed,
                     q.format == "chrome");
  ropts.progress = w.progress;
  const trace::ReplayResult res = trace::replay(tf, w.machine, ropts);
  std::optional<double> t_seq;
  if (q.tseq > 0) t_seq = q.tseq;
  if (q.format == "text") {
    return "machine: " + w.machine.name + "  compute-scale: " +
           std::to_string(w.compute_scale) + "\n" +
           trace::render_text(res, t_seq);
  }
  if (q.format == "csv") return trace::render_csv(res, t_seq);
  if (q.format == "json") return trace::render_json(res, t_seq);
  if (q.format == "chrome") return trace::render_chrome(res);
  throw trace::TraceError("unknown format '" + q.format +
                          "' (text|csv|json|chrome)");
}

std::string run_timeline(const trace::TraceFile& tf, const TimelineQuery& q) {
  const ResolvedModel w = resolve_model(tf, q.model);
  trace::ReplayOptions ropts = replay_options(
      tf, w.compute_scale, q.faults, q.fault_seed, /*timeline=*/true);
  ropts.progress = w.progress;
  const trace::ReplayResult res = trace::replay(tf, w.machine, ropts);

  double dt = q.dt;
  if (dt <= 0) dt = tf.header.telemetry_dt;
  if (dt <= 0) dt = res.makespan / 100.0;
  if (dt <= 0) {
    throw trace::TraceError("empty trace, nothing to bin");
  }
  const telemetry::Timeline tl = telemetry::timeline_from_replay(res, dt);

  support::Provenance prov = support::build_provenance();
  prov.machine = w.machine.name;
  prov.seed = std::to_string(tf.header.seed);

  if (q.format == "csv") return telemetry::timeline_csv(tl, prov);
  if (q.format == "json") return telemetry::timeline_json(tl, prov);
  if (q.format == "chrome") return telemetry::chrome_counters(tl, prov);
  throw trace::TraceError("unknown format '" + q.format +
                          "' (csv|json|chrome)");
}

std::string run_sweep(const trace::TraceFile& tf, const SweepQuery& q) {
  std::optional<double> t_seq;
  if (q.tseq > 0) t_seq = q.tseq;
  const auto rows = [&](const trace::ReplayResult& res, const SweepKey& k) {
    return trace::sweep_csv_rows(res, k.machine, k.latency_scale,
                                 k.bandwidth_scale, k.compute_scale,
                                 k.drop_rate, k.progress, t_seq);
  };

  std::string out = trace::sweep_csv_header();
  try {
    std::vector<SweepKey> keys;
    std::vector<trace::WhatIfPoint> points;
    for_each_sweep_point(tf, q, [&](SweepKey key, trace::WhatIfPoint point) {
      keys.push_back(std::move(key));
      points.push_back(std::move(point));
    });
    const std::vector<trace::ReplayResult> results = trace::replay(tf, points);
    for (std::size_t i = 0; i < results.size(); ++i) {
      out += rows(results[i], keys[i]);
    }
    return out;
  } catch (const std::exception&) {
    // Error path only: which point fails first, and its message, are those
    // of resolving and replaying one point at a time in grid order.
  }
  out = trace::sweep_csv_header();
  for_each_sweep_point(tf, q, [&](const SweepKey& key,
                                  const trace::WhatIfPoint& point) {
    out += rows(trace::replay(tf, point.machine, point.options), key);
  });
  return out;
}

std::string run_analyze(const trace::TraceFile& tf, const AnalyzeQuery& q,
                        std::size_t* findings) {
  const analysis::AnalysisResult res = analysis::analyze(tf);
  if (findings != nullptr) *findings = res.finding_count();
  if (q.format == "text") return analysis::render_text(res);
  if (q.format == "csv") return analysis::render_csv(res);
  if (q.format == "json") return analysis::render_json(res);
  throw trace::TraceError("unknown format '" + q.format +
                          "' (text|csv|json)");
}

std::string canonical(const ModelParams& p) {
  return "model=" + p.model + ";lat=" + canon_double(p.latency) +
         ";bw=" + canon_double(p.bandwidth) +
         ";ls=" + canon_double(p.latency_scale) +
         ";bs=" + canon_double(p.bandwidth_scale) +
         ";js=" + canon_double(p.jitter_scale) +
         ";nj=" + (p.no_jitter ? "1" : "0") +
         ";eager=" + std::to_string(p.eager) + ";cs=" + p.compute_scale +
         ";prog=" + p.progress;
}

std::string canonical(const ReplayQuery& q) {
  return "replay{" + canonical(q.model) + ";faults=" + q.faults +
         ";fseed=" + std::to_string(q.fault_seed) + ";fmt=" + q.format +
         ";tseq=" + canon_double(q.tseq) + "}";
}

std::string canonical(const TimelineQuery& q) {
  return "timeline{" + canonical(q.model) + ";faults=" + q.faults +
         ";fseed=" + std::to_string(q.fault_seed) +
         ";dt=" + canon_double(q.dt) + ";fmt=" + q.format + "}";
}

std::string canonical(const SweepQuery& q) {
  std::vector<std::string> models = q.models;
  return "sweep{models=" + join_csv(models) +
         ";ls=" + join_csv(q.latency_scales) +
         ";bs=" + join_csv(q.bandwidth_scales) +
         ";cs=" + join_csv(q.compute_scales) +
         ";drops=" + join_csv(q.drop_rates) +
         ";progress=" + join_csv(q.progress) +
         ";fseed=" + std::to_string(q.fault_seed) +
         ";tseq=" + canon_double(q.tseq) + "}";
}

std::string canonical(const AnalyzeQuery& q) {
  return "analyze{fmt=" + q.format + "}";
}

}  // namespace mpisect::serve
