#include "serve/service.hpp"

#include <sys/stat.h>

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "codec/mpstz.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "support/digest.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "telemetry/export.hpp"

namespace mpisect::serve {

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw trace::TraceError("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) throw trace::TraceError("read error on '" + path + "'");
  return bytes;
}

const support::JsonValue* require_object(const support::JsonValue& req,
                                         const char* key) {
  const support::JsonValue* v = req.find(key);
  if (v != nullptr && !v->is_object()) {
    throw trace::TraceError(std::string("'") + key + "' must be an object");
  }
  return v;
}

std::string str_field(const support::JsonValue* params, const char* key,
                      const std::string& dflt) {
  if (params == nullptr) return dflt;
  const support::JsonValue* v = params->find(key);
  if (v == nullptr) return dflt;
  if (!v->is_string()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must be a string");
  }
  return v->string;
}

double num_field(const support::JsonValue* params, const char* key,
                 double dflt) {
  if (params == nullptr) return dflt;
  const support::JsonValue* v = params->find(key);
  if (v == nullptr) return dflt;
  if (!v->is_number()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must be a number");
  }
  return v->number;
}

bool bool_field(const support::JsonValue* params, const char* key,
                bool dflt) {
  if (params == nullptr) return dflt;
  const support::JsonValue* v = params->find(key);
  if (v == nullptr) return dflt;
  if (!v->is_bool()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must be a boolean");
  }
  return v->boolean;
}

std::vector<double> num_list_field(const support::JsonValue* params,
                                   const char* key,
                                   std::vector<double> dflt) {
  if (params == nullptr) return dflt;
  const support::JsonValue* v = params->find(key);
  if (v == nullptr) return dflt;
  if (!v->is_array()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must be an array of numbers");
  }
  std::vector<double> out;
  for (const auto& item : v->array) {
    if (!item.is_number()) {
      throw trace::TraceError(std::string("param '") + key +
                              "' must be an array of numbers");
    }
    out.push_back(item.number);
  }
  if (out.empty()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must not be empty");
  }
  return out;
}

std::vector<std::string> str_list_field(const support::JsonValue* params,
                                        const char* key,
                                        std::vector<std::string> dflt) {
  if (params == nullptr) return dflt;
  const support::JsonValue* v = params->find(key);
  if (v == nullptr) return dflt;
  if (!v->is_array()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must be an array of strings");
  }
  std::vector<std::string> out;
  for (const auto& item : v->array) {
    if (!item.is_string()) {
      throw trace::TraceError(std::string("param '") + key +
                              "' must be an array of strings");
    }
    out.push_back(item.string);
  }
  if (out.empty()) {
    throw trace::TraceError(std::string("param '") + key +
                            "' must not be empty");
  }
  return out;
}

void check_keys(const support::JsonValue* params,
                const std::vector<const char*>& allowed) {
  if (params == nullptr) return;
  for (const auto& [key, value] : params->object) {
    bool ok = false;
    for (const char* a : allowed) {
      if (key == a) {
        ok = true;
        break;
      }
    }
    if (!ok) throw trace::TraceError("unknown param '" + key + "'");
  }
}

const std::vector<const char*> kModelKeys = {
    "model",         "latency",         "bandwidth",
    "latency_scale", "bandwidth_scale", "jitter_scale",
    "no_jitter",     "eager",           "compute_scale",
    "progress"};

ModelParams model_params(const support::JsonValue* params) {
  ModelParams p;
  p.model = str_field(params, "model", p.model);
  p.latency = num_field(params, "latency", p.latency);
  p.bandwidth = num_field(params, "bandwidth", p.bandwidth);
  p.latency_scale = num_field(params, "latency_scale", p.latency_scale);
  p.bandwidth_scale = num_field(params, "bandwidth_scale", p.bandwidth_scale);
  p.jitter_scale = num_field(params, "jitter_scale", p.jitter_scale);
  p.no_jitter = bool_field(params, "no_jitter", p.no_jitter);
  p.eager = static_cast<std::uint64_t>(num_field(params, "eager", 0.0));
  p.compute_scale = str_field(params, "compute_scale", p.compute_scale);
  p.progress = str_field(params, "progress", p.progress);
  return p;
}

template <typename... Extra>
void check_model_keys(const support::JsonValue* params, Extra... extra_keys) {
  std::vector<const char*> allowed = kModelKeys;
  (allowed.push_back(extra_keys), ...);
  check_keys(params, allowed);
}

std::string render_id(const support::JsonValue& req) {
  const support::JsonValue* v = req.find("id");
  if (v == nullptr || !v->is_number()) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld",
                static_cast<long long>(v->number));
  return buf;
}

}  // namespace

int shard_for(const std::string& path, int workers) noexcept {
  if (workers <= 1) return 0;
  const std::uint64_t h = support::fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(path.data()), path.size()));
  return static_cast<int>(h % static_cast<std::uint64_t>(workers));
}

Service::Service(std::size_t cache_entries, std::size_t cache_bytes)
    : cache_(cache_entries, cache_bytes), reg_(/*nranks=*/1) {
  using telemetry::Scope;
  id_requests_ = reg_.add_counter("serve.requests", Scope::Process,
                                  "query requests received", "requests");
  id_hits_ = reg_.add_counter("serve.cache_hits", Scope::Process,
                              "requests answered from the result cache",
                              "requests");
  id_misses_ = reg_.add_counter("serve.cache_misses", Scope::Process,
                                "requests that ran the query engine",
                                "requests");
  id_errors_ = reg_.add_counter("serve.errors", Scope::Process,
                                "requests rejected with an error", "requests");
  id_traces_ = reg_.add_counter("serve.traces_loaded", Scope::Process,
                                "distinct traces decoded and pinned",
                                "traces");
  id_bytes_decoded_ =
      reg_.add_counter("serve.bytes_decoded", Scope::Process,
                       "container bytes read while loading traces", "bytes");
  id_lat_cold_ = reg_.add_distribution(
      "serve.latency_cold", Scope::Process, 0.0, 10.0, 50,
      "wall seconds per cache-missing request", "seconds");
  id_lat_warm_ = reg_.add_distribution(
      "serve.latency_warm", Scope::Process, 0.0, 10.0, 50,
      "wall seconds per cache-hit request", "seconds");
}

std::shared_ptr<const LoadedTrace> Service::trace(const std::string& path) {
  // Stamp before reading: a rewrite that lands mid-read leaves the entry
  // under the older stamp, so the next request decodes again.
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    throw trace::TraceError("cannot open '" + path + "'");
  }
  const FileStamp stamp{
      static_cast<std::uint64_t>(st.st_size),
      static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
          st.st_mtim.tv_nsec,
      static_cast<std::uint64_t>(st.st_ino)};
  {
    std::lock_guard<std::mutex> lock(traces_mu_);
    auto it = traces_.find(path);
    if (it != traces_.end() && it->second.stamp == stamp) {
      return it->second.trace;
    }
  }
  // Decode outside the lock: loading is the expensive part and two
  // different traces should not serialize against each other.
  auto lt = std::make_shared<LoadedTrace>();
  std::vector<std::uint8_t> bytes = read_file(path);
  lt->file_bytes = bytes.size();
  if (codec::is_mpstz(bytes)) {
    lt->tf = codec::decompress(bytes);
  } else {
    lt->tf = trace::TraceFile::decode(bytes);
  }
  lt->digest = codec::trace_digest(lt->tf);
  lt->digest_str = support::format_digest(lt->digest);
  std::lock_guard<std::mutex> lock(traces_mu_);
  Pinned& pinned = traces_[path];
  if (pinned.trace == nullptr || pinned.stamp != stamp) {
    // First load, or the file changed: the stale decode is dropped.
    reg_.inc(id_traces_, 0);
    reg_.inc(id_bytes_decoded_, 0, static_cast<double>(lt->file_bytes));
    pinned = {stamp, std::move(lt)};
  }
  return pinned.trace;
}

std::string Service::handle_line(const std::string& line) {
  const obs::Span request_span("serve.request");
  std::string id = "0";
  try {
    const support::JsonValue req = support::json_parse(line);
    if (!req.is_object()) {
      throw trace::TraceError("request must be a JSON object");
    }
    id = render_id(req);
    reg_.inc(id_requests_, 0);

    const std::string op = str_field(&req, "op", "");
    if (op.empty()) throw trace::TraceError("missing 'op'");

    if (op == "stats") {
      return "{\"id\":" + id + ",\"ok\":true,\"result\":\"" +
             support::json_escape(stats_text()) + "\"}";
    }
    if (op == "metrics") {
      // Scrape surface for a long-lived daemon: serve.* request metrics
      // plus the obs.* self-observability counters in one Prometheus page.
      return "{\"id\":" + id + ",\"ok\":true,\"result\":\"" +
             support::json_escape(metrics_text()) + "\"}";
    }

    const std::string path = str_field(&req, "trace", "");
    if (path.empty()) throw trace::TraceError("missing 'trace'");
    const support::JsonValue* params = require_object(req, "params");

    std::string canon;
    if (op == "info") {
      check_keys(params, {});
      canon = "info{}";
    } else if (op == "replay") {
      check_model_keys(params, "faults", "fault_seed", "format", "tseq");
    } else if (op == "timeline") {
      check_model_keys(params, "faults", "fault_seed", "dt", "format");
    } else if (op == "sweep") {
      check_keys(params,
                 {"models", "latency_scales", "bandwidth_scales",
                  "compute_scales", "drop_rates", "progress", "fault_seed",
                  "tseq"});
    } else if (op == "analyze") {
      check_keys(params, {"format"});
    } else {
      throw trace::TraceError(
          "unknown op '" + op +
          "' (info|replay|sweep|timeline|analyze|stats|metrics)");
    }

    const auto t_start = std::chrono::steady_clock::now();
    const std::shared_ptr<const LoadedTrace> lt = [&] {
      const obs::Span load_span("serve.load");
      return trace(path);
    }();

    std::string result;
    bool cached = false;
    auto run_cached = [&](const std::string& canonical_form,
                          auto&& compute) {
      const std::string key = lt->digest_str + "|" + canonical_form;
      if (auto hit = cache_.get(key)) {
        cached = true;
        reg_.inc(id_hits_, 0);
        result = std::move(*hit);
        return;
      }
      reg_.inc(id_misses_, 0);
      {
        const obs::Span compute_span("serve.compute");
        result = compute();
      }
      cache_.put(key, result);
    };

    if (op == "info") {
      run_cached(canon, [&] { return run_info(lt->tf); });
    } else if (op == "replay") {
      ReplayQuery q;
      q.model = model_params(params);
      q.faults = str_field(params, "faults", "");
      q.fault_seed =
          static_cast<std::uint64_t>(num_field(params, "fault_seed", 0.0));
      q.format = str_field(params, "format", q.format);
      q.tseq = num_field(params, "tseq", 0.0);
      run_cached(canonical(q), [&] { return run_replay(lt->tf, q); });
    } else if (op == "timeline") {
      TimelineQuery q;
      q.model = model_params(params);
      q.faults = str_field(params, "faults", "");
      q.fault_seed =
          static_cast<std::uint64_t>(num_field(params, "fault_seed", 0.0));
      q.dt = num_field(params, "dt", 0.0);
      q.format = str_field(params, "format", q.format);
      run_cached(canonical(q), [&] { return run_timeline(lt->tf, q); });
    } else if (op == "sweep") {
      SweepQuery q;
      q.models = str_list_field(params, "models", q.models);
      q.latency_scales =
          num_list_field(params, "latency_scales", q.latency_scales);
      q.bandwidth_scales =
          num_list_field(params, "bandwidth_scales", q.bandwidth_scales);
      q.compute_scales =
          str_list_field(params, "compute_scales", q.compute_scales);
      q.drop_rates = num_list_field(params, "drop_rates", q.drop_rates);
      q.progress = str_list_field(params, "progress", q.progress);
      q.fault_seed =
          static_cast<std::uint64_t>(num_field(params, "fault_seed", 0.0));
      q.tseq = num_field(params, "tseq", 0.0);
      run_cached(canonical(q), [&] { return run_sweep(lt->tf, q); });
    } else {  // analyze
      AnalyzeQuery q;
      q.format = str_field(params, "format", q.format);
      run_cached(canonical(q), [&] { return run_analyze(lt->tf, q); });
    }

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();
    reg_.observe(cached ? id_lat_warm_ : id_lat_cold_, 0, secs);

    return "{\"id\":" + id + ",\"ok\":true,\"digest\":\"" + lt->digest_str +
           "\",\"cached\":" + (cached ? "true" : "false") + ",\"result\":\"" +
           support::json_escape(result) + "\"}";
  } catch (const std::exception& e) {
    return error_reply(id, e.what());
  }
}

std::string Service::error_reply(const std::string& id,
                                 const std::string& what) {
  reg_.inc(id_errors_, 0);
  return "{\"id\":" + id + ",\"ok\":false,\"error\":\"" +
         support::json_escape(what) + "\"}";
}

std::string Service::stats_text() const {
  return telemetry::prometheus_text(reg_);
}

std::string Service::metrics_text() const {
  return stats_text() + obs::prometheus_text();
}

}  // namespace mpisect::serve
