#include "trace/report.hpp"

#include <string>

#include "core/speedup/partial_bound.hpp"
#include "support/provenance.hpp"
#include "support/strings.hpp"

namespace mpisect::trace {

namespace {

using support::format;

double mean_span(const ReplaySectionStat& s) {
  return s.agg.instances > 0 ? s.agg.total_span / s.agg.instances : 0.0;
}

double bound_for(const ReplayResult& res, const ReplaySectionStat& s,
                 double t_seq) {
  (void)res;
  return speedup::partial_bound(t_seq, s.mean_per_process);
}

}  // namespace

std::string render_text(const ReplayResult& res,
                        std::optional<double> t_seq) {
  std::string out;
  out += format("replay: %d ranks, makespan %.6f s\n", res.nranks,
                res.makespan);
  out += format("events %llu  messages %llu  collectives %llu  bytes %llu\n\n",
                static_cast<unsigned long long>(res.events),
                static_cast<unsigned long long>(res.messages),
                static_cast<unsigned long long>(res.collectives),
                static_cast<unsigned long long>(res.bytes_sent));
  out += format("%-16s %4s %8s %12s %12s %12s %12s", "section", "comm", "inst",
                "mean/proc", "total", "span", "imbalance");
  if (t_seq) out += format(" %10s", "bound");
  out += "\n";
  for (const auto& s : res.sections) {
    out += format("%-16s %4d %8llu %12.6f %12.6f %12.6f %12.6f",
                  s.label.c_str(), s.comm,
                  static_cast<unsigned long long>(s.instances),
                  s.mean_per_process, s.total_inclusive, s.agg.total_span,
                  s.agg.total_imbalance);
    if (t_seq) out += format(" %10.3f", bound_for(res, s, *t_seq));
    out += "\n";
  }
  return out;
}

std::string render_csv(const ReplayResult& res, std::optional<double> t_seq) {
  std::string out = support::provenance_csv_comment();
  out +=
      "section,comm,ranks,instances,mean_per_process,total_inclusive,"
      "total_span,mean_span,total_imbalance,max_entry_imb,bound\n";
  for (const auto& s : res.sections) {
    out += s.label + "," + std::to_string(s.comm) + "," +
           std::to_string(s.ranks) + "," + std::to_string(s.instances) + ",";
    out += format("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,", s.mean_per_process,
                  s.total_inclusive, s.agg.total_span, mean_span(s),
                  s.agg.total_imbalance, s.agg.max_entry_imb);
    out += t_seq ? format("%.9g", bound_for(res, s, *t_seq)) : "";
    out += "\n";
  }
  return out;
}

std::string render_json(const ReplayResult& res,
                        std::optional<double> t_seq) {
  std::string out = "{\n";
  out += "  \"provenance\": " + support::provenance_json() + ",\n";
  out += format("  \"nranks\": %d,\n  \"makespan\": %.9g,\n", res.nranks,
                res.makespan);
  out += format("  \"events\": %llu,\n  \"messages\": %llu,\n"
                "  \"collectives\": %llu,\n  \"bytes_sent\": %llu,\n",
                static_cast<unsigned long long>(res.events),
                static_cast<unsigned long long>(res.messages),
                static_cast<unsigned long long>(res.collectives),
                static_cast<unsigned long long>(res.bytes_sent));
  if (t_seq) out += format("  \"t_seq\": %.9g,\n", *t_seq);
  out += "  \"sections\": [\n";
  for (std::size_t i = 0; i < res.sections.size(); ++i) {
    const auto& s = res.sections[i];
    out += "    {\"section\": \"" + support::json_escape(s.label) + "\"";
    out += format(", \"comm\": %d, \"ranks\": %d, \"instances\": %llu", s.comm,
                  s.ranks, static_cast<unsigned long long>(s.instances));
    out += format(", \"mean_per_process\": %.9g, \"total_inclusive\": %.9g",
                  s.mean_per_process, s.total_inclusive);
    out += format(", \"total_span\": %.9g, \"total_imbalance\": %.9g",
                  s.agg.total_span, s.agg.total_imbalance);
    if (t_seq) out += format(", \"bound\": %.9g", bound_for(res, s, *t_seq));
    out += "}";
    out += i + 1 < res.sections.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string render_chrome(const ReplayResult& res) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& e : res.timeline) {
    const std::string name = e.label < res.labels.size()
                                 ? support::json_escape(res.labels[e.label])
                                 : "label#" + std::to_string(e.label);
    if (!first) out += ",\n";
    first = false;
    out += format("{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, "
                  "\"pid\": 0, \"tid\": %d}",
                  name.c_str(), e.enter ? "B" : "E", e.t * 1e6, e.rank);
  }
  out += "\n]}\n";
  return out;
}

std::string sweep_csv_header() {
  return support::provenance_csv_comment() +
         "machine,latency_scale,bandwidth_scale,compute_scale,drop_rate,"
         "progress,makespan,section,comm,instances,mean_per_process,"
         "total_inclusive,total_span,total_imbalance,bound\n";
}

std::string sweep_csv_rows(const ReplayResult& res, const std::string& machine,
                           double latency_scale, double bandwidth_scale,
                           double compute_scale, double drop_rate,
                           const std::string& progress,
                           std::optional<double> t_seq) {
  std::string out;
  const std::string prefix =
      machine + "," + format("%.9g,%.9g,%.9g,%.9g,", latency_scale,
                             bandwidth_scale, compute_scale, drop_rate) +
      progress + format(",%.9g,", res.makespan);
  for (const auto& s : res.sections) {
    out += prefix + s.label + "," + std::to_string(s.comm) + "," +
           std::to_string(s.instances) + ",";
    out += format("%.9g,%.9g,%.9g,%.9g,", s.mean_per_process, s.total_inclusive,
                  s.agg.total_span, s.agg.total_imbalance);
    out += t_seq ? format("%.9g", bound_for(res, s, *t_seq)) : "";
    out += "\n";
  }
  return out;
}

}  // namespace mpisect::trace
