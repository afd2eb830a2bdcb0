#include "telemetry/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/spans.hpp"
#include "support/strings.hpp"

namespace mpisect::telemetry {
namespace {

using support::format;

/// Shortest exact double rendering ("%.17g" round-trips; prefer the
/// shorter "%.15g" when it already does).
std::string num(double v) {
  std::string s = format("%.15g", v);
  if (std::strtod(s.c_str(), nullptr) != v) s = format("%.17g", v);
  return s;
}

std::string prom_name(std::string_view name) {
  std::string out = "mpisect_";
  for (char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

/// The one writer of Prometheus exposition lines: a family's `# HELP`
/// (with the unit, if any, in parentheses) and `# TYPE` lines, then one
/// `<name><suffix> <value>` line per call `samples` makes to the callback
/// it is given. The suffix carries labels or a `_bucket`/`_count` tail.
template <class Samples>
void prom_family(std::string& out, std::string_view name,
                 std::string_view help, std::string_view unit,
                 std::string_view type, Samples&& samples) {
  out.append("# HELP ").append(name).append(" ").append(help);
  if (!unit.empty()) out.append(" (").append(unit).append(")");
  out.append("\n# TYPE ").append(name).append(" ").append(type);
  out += '\n';
  samples([&out, name](std::string_view suffix, std::string_view value) {
    out.append(name).append(suffix).append(" ").append(value);
    out += '\n';
  });
}

}  // namespace

std::string timeline_csv(const Timeline& tl, const support::Provenance& p) {
  std::string out = support::provenance_csv_comment(p);
  out += format("# dt=%s nranks=%d dropped=%" PRIu64 "\n", num(tl.dt).c_str(),
                tl.nranks, tl.dropped);
  out +=
      "interval,t_start,t_end,section,ranks,total,per_process,max_rank,"
      "min_rank,imbalance,binding,bound\n";
  for (const Window& w : tl.windows) {
    for (const SectionWindow& s : w.sections) {
      out += format("%" PRIu64 ",%s,%s,%s,%d,%s,%s,%s,%s,%s,%s,%s\n",
                    w.interval, num(w.t_start).c_str(), num(w.t_end).c_str(),
                    s.label.c_str(), s.ranks, num(s.total).c_str(),
                    num(s.per_process).c_str(), num(s.max_rank).c_str(),
                    num(s.min_rank).c_str(), num(s.imbalance).c_str(),
                    w.binding.c_str(), num(w.bound).c_str());
    }
  }
  return out;
}

std::string counters_csv(const Timeline& tl, const support::Provenance& p) {
  std::string out = support::provenance_csv_comment(p);
  out += format("# dt=%s nranks=%d\n", num(tl.dt).c_str(), tl.nranks);
  out += "interval,t_start,counter,value\n";
  for (const Window& w : tl.windows) {
    out += format("%" PRIu64 ",%s,mpi.seconds,%s\n", w.interval,
                  num(w.t_start).c_str(), num(w.mpi_total).c_str());
    for (std::size_t i = 0; i < w.counters.size(); ++i) {
      if (w.counters[i] == 0.0) continue;
      out += format("%" PRIu64 ",%s,%s,%s\n", w.interval,
                    num(w.t_start).c_str(), tl.counter_names[i].c_str(),
                    num(w.counters[i]).c_str());
    }
  }
  return out;
}

std::string timeline_json(const Timeline& tl, const support::Provenance& p) {
  std::string out = "{\n  \"provenance\": " + support::provenance_json(p);
  out += format(",\n  \"dt\": %s, \"nranks\": %d, \"dropped\": %" PRIu64,
                num(tl.dt).c_str(), tl.nranks, tl.dropped);
  out += ",\n  \"binding\": \"" + support::json_escape(tl.binding) + "\"";
  out += ",\n  \"bound\": " +
         (std::isfinite(tl.bound) ? num(tl.bound) : std::string("null"));
  out += ",\n  \"section_totals\": [";
  for (std::size_t i = 0; i < tl.section_totals.size(); ++i) {
    const auto& t = tl.section_totals[i];
    out += format("%s\n    {\"section\": \"%s\", \"total\": %s, "
                  "\"per_process\": %s, \"max_window_imbalance\": %s}",
                  i ? "," : "", support::json_escape(t.label).c_str(),
                  num(t.total).c_str(), num(t.per_process).c_str(),
                  num(t.max_window_imbalance).c_str());
  }
  out += "\n  ],\n  \"windows\": [";
  for (std::size_t wi = 0; wi < tl.windows.size(); ++wi) {
    const Window& w = tl.windows[wi];
    out += format("%s\n    {\"interval\": %" PRIu64
                  ", \"t_start\": %s, \"t_end\": %s, \"mpi\": %s, "
                  "\"binding\": \"%s\", \"bound\": %s, \"sections\": [",
                  wi ? "," : "", w.interval, num(w.t_start).c_str(),
                  num(w.t_end).c_str(), num(w.mpi_total).c_str(),
                  support::json_escape(w.binding).c_str(),
                  std::isfinite(w.bound) ? num(w.bound).c_str() : "null");
    for (std::size_t si = 0; si < w.sections.size(); ++si) {
      const SectionWindow& s = w.sections[si];
      out += format("%s{\"section\": \"%s\", \"ranks\": %d, \"total\": %s, "
                    "\"per_process\": %s, \"max\": %s, \"min\": %s, "
                    "\"imbalance\": %s}",
                    si ? ", " : "", support::json_escape(s.label).c_str(),
                    s.ranks, num(s.total).c_str(), num(s.per_process).c_str(),
                    num(s.max_rank).c_str(), num(s.min_rank).c_str(),
                    num(s.imbalance).c_str());
    }
    out += "], \"counters\": {";
    bool first = true;
    for (std::size_t i = 0; i < w.counters.size(); ++i) {
      if (w.counters[i] == 0.0) continue;
      out += format("%s\"%s\": %s", first ? "" : ", ",
                    tl.counter_names[i].c_str(), num(w.counters[i]).c_str());
      first = false;
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string chrome_counters(const Timeline& tl,
                            const support::Provenance& p) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const char* name, double ts, const std::string& args) {
    out += format("%s{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %.3f, "
                  "\"pid\": 0, \"args\": {%s}}",
                  first ? "" : ",\n", name, ts * 1e6, args.c_str());
    first = false;
  };
  for (const Window& w : tl.windows) {
    for (const SectionWindow& s : w.sections) {
      emit(("section " + s.label).c_str(), w.t_start,
           "\"seconds\": " + num(s.total));
    }
    emit("mpi", w.t_start, "\"seconds\": " + num(w.mpi_total));
    if (std::isfinite(w.bound)) {
      emit("eq6 bound", w.t_start, "\"bound\": " + num(w.bound));
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"provenance\": " +
         support::provenance_json(p) + "}}\n";
  return out;
}

std::string prometheus_text(const Registry& reg,
                            const support::Provenance& p) {
  std::string out = support::provenance_csv_comment(p);
  for (InstrumentId id = 0; id < reg.size(); ++id) {
    const InstrumentDesc& d = reg.desc(id);
    if (d.kind == Kind::Distribution) {
      const support::Histogram& h = *reg.histogram(id);
      prom_family(out, prom_name(d.name), d.help, d.unit, "histogram",
                  [&h](const auto& sample) {
                    long cum = 0;
                    for (int b = 0, n = h.bins(); b < n; ++b) {
                      cum += h.bin_count(b);
                      sample("_bucket{le=\"" + num(h.bin_hi(b)) + "\"}",
                             std::to_string(cum));
                    }
                    sample("_count", std::to_string(h.count()));
                  });
      continue;
    }
    prom_family(out, prom_name(d.name), d.help, d.unit,
                d.kind == Kind::Counter ? "counter" : "gauge",
                [&reg, &d, id](const auto& sample) {
                  if (d.scope == Scope::Rank) {
                    for (int r = 0; r < reg.nranks(); ++r) {
                      sample("{rank=\"" + std::to_string(r) + "\"}",
                             num(reg.value(id, r)));
                    }
                  }
                  sample("", num(reg.total(id)));
                });
  }
  return out;
}

std::string metrics_page(const Registry& reg, const support::Provenance& p) {
  std::string out = prometheus_text(reg, p);
  const auto one = [&out](const char* name, const char* help,
                          const char* type, std::string_view value) {
    prom_family(out, name, help, "", type,
                [value](const auto& sample) { sample("", value); });
  };
  const auto gauge = [&one](const char* name, const char* help, double v) {
    one(name, help, "gauge", format("%.6g", v));
  };
  one("obs_spans_recorded", "self-trace spans recorded", "counter",
      std::to_string(obs::spans_recorded()));
  one("obs_spans_dropped", "self-trace spans dropped on ring overflow",
      "counter", std::to_string(obs::spans_dropped()));
  one("obs_self_trace_enabled", "1 while the self-trace records", "gauge",
      obs::self_trace_enabled() ? "1" : "0");
  const obs::Counters& c = obs::counters();
  const auto ld = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  for (const obs::CounterDesc& d : obs::kCounterTable) {
    one(d.name, d.help, d.type, std::to_string(ld(c.*d.field)));
  }
  // Derived gauges: B/ns is GB/s.
  const auto rate = [](std::uint64_t bytes, std::uint64_t ns) {
    return ns == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(ns);
  };
  gauge("obs_codec_compress_gbps", "codec compress input GB/s",
        rate(ld(c.codec_compress_bytes_in), ld(c.codec_compress_ns)));
  gauge("obs_codec_decompress_gbps", "codec decompress output GB/s",
        rate(ld(c.codec_decompress_bytes_out), ld(c.codec_decompress_ns)));
  const std::uint64_t ranks = ld(c.mem_ranks);
  gauge("obs_mem_bytes_per_rank", "peak channel and stack bytes per rank",
        ranks == 0 ? 0.0
                   : static_cast<double>(ld(c.mem_channel_bytes_hwm) +
                                         ld(c.mem_stack_bytes_hwm)) /
                         static_cast<double>(ranks));
  return out;
}

Timeline timeline_from_csv(std::string_view csv) {
  Timeline tl;
  bool saw_header = false;
  std::map<std::uint64_t, Window> windows;
  for (std::string_view line : support::split(csv, '\n')) {
    line = support::trim(line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Recover the meta comment: "# dt=<v> nranks=<d> dropped=<u>".
      const auto fields = support::split(line.substr(1), ' ');
      for (const std::string& f : fields) {
        if (support::starts_with(f, "dt=")) {
          tl.dt = std::strtod(f.c_str() + 3, nullptr);
        } else if (support::starts_with(f, "nranks=")) {
          tl.nranks = static_cast<int>(std::strtol(f.c_str() + 7, nullptr, 10));
        } else if (support::starts_with(f, "dropped=")) {
          tl.dropped = std::strtoull(f.c_str() + 8, nullptr, 10);
        }
      }
      continue;
    }
    if (!saw_header) {
      if (!support::starts_with(line, "interval,")) {
        throw std::runtime_error(
            "timeline_from_csv: expected 'interval,...' header, got '" +
            std::string(line.substr(0, 40)) + "'");
      }
      saw_header = true;
      continue;
    }
    const auto cols = support::split(line, ',');
    if (cols.size() != 12) {
      throw std::runtime_error("timeline_from_csv: expected 12 columns, got " +
                               std::to_string(cols.size()));
    }
    const auto interval = std::strtoull(cols[0].c_str(), nullptr, 10);
    Window& w = windows[interval];
    w.interval = interval;
    w.t_start = std::strtod(cols[1].c_str(), nullptr);
    w.t_end = std::strtod(cols[2].c_str(), nullptr);
    SectionWindow s;
    s.label = cols[3];
    s.ranks = static_cast<int>(std::strtol(cols[4].c_str(), nullptr, 10));
    s.total = std::strtod(cols[5].c_str(), nullptr);
    s.per_process = std::strtod(cols[6].c_str(), nullptr);
    s.max_rank = std::strtod(cols[7].c_str(), nullptr);
    s.min_rank = std::strtod(cols[8].c_str(), nullptr);
    s.imbalance = std::strtod(cols[9].c_str(), nullptr);
    w.busy_total += s.total;
    w.sections.push_back(std::move(s));
    w.binding = cols[10];
    w.bound = std::strtod(cols[11].c_str(), nullptr);
  }
  if (!saw_header) {
    throw std::runtime_error("timeline_from_csv: no header found");
  }

  std::map<std::string, Timeline::SectionTotal> totals;
  double busy_sum = 0.0;
  double max_per_process = 0.0;
  for (auto& [interval, w] : windows) {
    (void)interval;
    for (const SectionWindow& s : w.sections) {
      auto& tot = totals[s.label];
      tot.label = s.label;
      tot.total += s.total;
      tot.per_process += s.per_process;
      tot.max_window_imbalance =
          std::max(tot.max_window_imbalance, s.imbalance);
    }
    busy_sum += w.busy_total;
    tl.windows.push_back(std::move(w));
  }
  for (auto& [label, tot] : totals) {
    // "MPI_MAIN" stays excluded from attribution, matching build defaults.
    if (label != "MPI_MAIN" && tot.per_process > max_per_process) {
      max_per_process = tot.per_process;
      tl.binding = label;
    }
    tl.section_totals.push_back(std::move(tot));
  }
  if (!tl.binding.empty() && max_per_process > 0.0) {
    tl.bound = busy_sum / max_per_process;
  }
  return tl;
}

}  // namespace mpisect::telemetry
