// LDJSON protocol fuzzing for serve::Service::handle_line (deterministic,
// seeded). The documented request scripts (README, EXPERIMENTS.md, the
// mpisect-serve header) are mutated — byte flips, truncations, type swaps,
// huge and negative numbers, deep nesting, long arrays — and every reply
// must be exactly one line that json_parse accepts, an object carrying a
// boolean `ok`. No mutant may crash the daemon, trip ASan/UBSan, or leave
// state behind: after each batch, the clean script gets the same bytes
// from the fuzzed Service as from a fresh one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "serve/service.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace/recorder.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect;
using support::JsonValue;

/// A small convolution trace on disk, recorded once per process.
const std::string& fixture_path() {
  static const std::string path = [] {
    mpisim::WorldOptions opts;
    opts.machine = mpisim::MachineModel::nehalem_cluster();
    opts.seed = 0xF0220;
    mpisim::World world(2, opts);
    sections::SectionRuntime::install(world);
    auto rec = trace::TraceRecorder::install(world, {.app = "serve-fuzz"});
    apps::conv::ConvolutionConfig cfg;
    cfg.width = 64;
    cfg.height = 32;
    cfg.steps = 3;
    cfg.full_fidelity = false;
    apps::conv::ConvolutionApp app(cfg);
    world.run(std::ref(app));
    const std::string p = testutil::unique_temp_path("serve_fuzz", ".mpst");
    rec->save(p);
    return p;
  }();
  return path;
}

struct RemoveFixture : ::testing::Environment {
  void TearDown() override { std::remove(fixture_path().c_str()); }
};
const auto* const kRemoveFixture =
    ::testing::AddGlobalTestEnvironment(new RemoveFixture);

/// The documented requests, plus one timeline and one analyze request so
/// every op is covered, against the fixture.
std::vector<std::string> documented_script() {
  const std::vector<std::string> lines = {
      R"({"id":1,"op":"info","trace":"@"})",
      R"({"id":2,"op":"replay","trace":"@","params":{"model":"knl","format":"csv"}})",
      R"({"id":3,"op":"replay","trace":"@","params":{"model":"knl","format":"csv"}})",
      R"({"id":4,"op":"sweep","trace":"@","params":{"latency_scales":[1,2,4]}})",
      R"({"id":5,"op":"sweep","trace":"@","params":{"drop_rates":[0,0.01,0.02,0.05,0.1]}})",
      R"({"id":6,"op":"sweep","trace":"@","params":{"progress":["recorded","opportunistic","progress-thread:tax=0.1"]}})",
      R"({"id":7,"op":"timeline","trace":"@","params":{"dt":0.001,"format":"json"}})",
      R"({"id":8,"op":"analyze","trace":"@","params":{"format":"text"}})",
      R"({"id":9,"op":"stats"})",
  };
  std::vector<std::string> out;
  for (const std::string& l : lines) {
    std::string s = l;
    if (const auto at = s.find('@'); at != std::string::npos) {
      s.replace(at, 1, fixture_path());
    }
    out.push_back(s);
  }
  return out;
}

/// The documented script without `stats`, whose counters legitimately
/// differ between a fuzzed and a fresh Service.
std::vector<std::string> clean_script() {
  std::vector<std::string> s = documented_script();
  s.pop_back();
  return s;
}

// --- a minimal JSON writer for tree-level mutations -------------------------

std::string write_json(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::Number: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      return buf;
    }
    case JsonValue::Kind::String:
      return "\"" + support::json_escape(v.string) + "\"";
    case JsonValue::Kind::Array: {
      std::string s = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) s += ",";
        s += write_json(v.array[i]);
      }
      return s + "]";
    }
    case JsonValue::Kind::Object: {
      std::string s = "{";
      bool first = true;
      for (const auto& [k, member] : v.object) {
        if (!first) s += ",";
        first = false;
        s += "\"" + support::json_escape(k) + "\":" + write_json(member);
      }
      return s + "}";
    }
  }
  return "null";
}

/// Every node of the tree, parents before children.
void collect(JsonValue& v, std::vector<JsonValue*>& out) {
  out.push_back(&v);
  for (JsonValue& e : v.array) collect(e, out);
  for (auto& [k, member] : v.object) collect(member, out);
}

JsonValue number(double x) {
  JsonValue v;
  v.kind = JsonValue::Kind::Number;
  v.number = x;
  return v;
}

/// Seeded draws: one counter-based stream per test.
struct Draws {
  support::CounterRng rng;
  std::uint64_t ctr = 0;
  std::uint64_t below(std::uint64_t n) { return rng.below(0, ctr++, n); }
  template <class T>
  const T& pick(const std::vector<T>& v) {
    return v[below(v.size())];
  }
};

/// A type swap: replace one node with a value of another kind.
std::string swap_type(const std::string& line, Draws& d) {
  JsonValue root = support::json_parse(line);
  std::vector<JsonValue*> nodes;
  collect(root, nodes);
  JsonValue* n = nodes[1 + d.below(nodes.size() - 1)];
  JsonValue repl;
  switch (d.below(6)) {
    case 0: break;  // null
    case 1:
      repl.kind = JsonValue::Kind::Bool;
      repl.boolean = true;
      break;
    case 2: repl = number(7); break;
    case 3:
      repl.kind = JsonValue::Kind::String;
      repl.string = "x";
      break;
    case 4:
      repl.kind = JsonValue::Kind::Array;
      repl.array.push_back(number(1));
      break;
    default:
      repl.kind = JsonValue::Kind::Object;
      repl.object["k"] = number(1);
      break;
  }
  *n = repl;
  return write_json(root);
}

/// Replace one node (numbers preferred) with an extreme number.
std::string extreme_number(const std::string& line, Draws& d) {
  static const std::vector<double> kExtremes = {
      1e300, -1e300, -5e19, 1e19, 9007199254740993.0, -1, -0.5, 0.5, 0,
      2147483648.0, -2147483649.0, 1e-300, 4294967296.0, 1e6};
  JsonValue root = support::json_parse(line);
  std::vector<JsonValue*> nodes;
  collect(root, nodes);
  std::vector<JsonValue*> numbers;
  for (JsonValue* n : nodes) {
    if (n->is_number()) numbers.push_back(n);
  }
  JsonValue* target = !numbers.empty() && d.below(4) != 0
                          ? d.pick(numbers)
                          : nodes[1 + d.below(nodes.size() - 1)];
  *target = number(d.pick(kExtremes));
  return write_json(root);
}

/// Wrap one node in many arrays, around json_parse's depth limit.
std::string deep_nesting(const std::string& line, Draws& d) {
  JsonValue root = support::json_parse(line);
  std::vector<JsonValue*> nodes;
  collect(root, nodes);
  JsonValue* target = nodes[1 + d.below(nodes.size() - 1)];
  const std::size_t depth = support::kJsonMaxDepth - 8 + d.below(16);
  JsonValue v = *target;
  for (std::size_t i = 0; i < depth; ++i) {
    JsonValue outer;
    outer.kind = JsonValue::Kind::Array;
    outer.array.push_back(std::move(v));
    v = std::move(outer);
  }
  *target = std::move(v);
  return write_json(root);
}

/// Replace one array (or any node) with a long array of mixed values, or
/// add a long list param.
std::string long_array(const std::string& line, Draws& d) {
  JsonValue root = support::json_parse(line);
  JsonValue arr;
  arr.kind = JsonValue::Kind::Array;
  const std::size_t n = 1000 + d.below(4000);
  const bool mixed = d.below(2) == 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mixed && i % 97 == 96) {
      JsonValue s;
      s.kind = JsonValue::Kind::String;
      s.string = "recorded";
      arr.array.push_back(s);
    } else {
      arr.array.push_back(number(1.0 + static_cast<double>(i % 5)));
    }
  }
  static const std::vector<std::string> kListKeys = {
      "models", "latency_scales", "bandwidth_scales", "compute_scales",
      "drop_rates", "progress"};
  if (d.below(2) == 0) {
    std::vector<JsonValue*> nodes;
    collect(root, nodes);
    *nodes[1 + d.below(nodes.size() - 1)] = std::move(arr);
  } else {
    JsonValue& params = root.object["params"];
    if (!params.is_object()) {
      params = JsonValue{};
      params.kind = JsonValue::Kind::Object;
    }
    params.object[d.pick(kListKeys)] = std::move(arr);
  }
  return write_json(root);
}

std::string flip_bytes(const std::string& line, Draws& d) {
  std::string s = line;
  const std::uint64_t flips = 1 + d.below(3);
  for (std::uint64_t i = 0; i < flips; ++i) {
    s[d.below(s.size())] ^= static_cast<char>(1 + d.below(255));
  }
  return s;
}

std::string truncate(const std::string& line, Draws& d) {
  return line.substr(0, d.below(line.size()));
}

/// The reply contract: one line, valid JSON, an object with boolean `ok`.
void expect_well_formed(const std::string& request,
                        const std::string& reply) {
  ASSERT_EQ(reply.find('\n'), std::string::npos) << request;
  JsonValue v;
  try {
    v = support::json_parse(reply);
  } catch (const std::exception& e) {
    FAIL() << "unparseable reply to " << request << ": " << e.what()
           << "\n" << reply;
  }
  ASSERT_TRUE(v.is_object()) << request;
  const JsonValue* ok = v.find("ok");
  ASSERT_NE(ok, nullptr) << request;
  ASSERT_TRUE(ok->is_bool()) << request;
}

/// The clean script's replies, run twice (cold, then warm).
std::vector<std::string> clean_replies(serve::Service& svc) {
  std::vector<std::string> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& line : clean_script()) {
      out.push_back(svc.handle_line(line));
    }
  }
  return out;
}

using Mutator = std::function<std::string(const std::string&, Draws&)>;

/// Feed `mutants` mutations of the documented script to one Service, then
/// check the clean script against a fresh Service. A mutant that happens to
/// equal a clean request may have warmed the cache, so the first (cold)
/// pass compares with `cached` masked; the warm pass must match exactly.
void fuzz(const Mutator& mutate, std::uint64_t seed, int mutants) {
  const std::vector<std::string> script = documented_script();
  Draws d{support::CounterRng(seed)};
  serve::Service fuzzed;
  for (int i = 0; i < mutants; ++i) {
    const std::string request = mutate(d.pick(script), d);
    const std::string reply = fuzzed.handle_line(request);
    expect_well_formed(request, reply);
    if (::testing::Test::HasFatalFailure()) return;
  }
  serve::Service fresh;
  const std::vector<std::string> want = clean_replies(fresh);
  const std::vector<std::string> got = clean_replies(fuzzed);
  ASSERT_EQ(got.size(), want.size());
  const std::size_t cold = want.size() / 2;
  const auto mask_cached = [](std::string r) {
    const std::string hit = "\"cached\":true";
    if (const auto at = r.find(hit); at != std::string::npos) {
      r.replace(at, hit.size(), "\"cached\":false");
    }
    return r;
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i < cold) {
      EXPECT_EQ(mask_cached(got[i]), mask_cached(want[i]))
          << "cold clean request " << i;
    } else {
      EXPECT_EQ(got[i], want[i]) << "warm clean request " << i - cold;
    }
  }
}

TEST(ServeFuzz, DocumentedScriptIsAnsweredOk) {
  serve::Service svc;
  for (const std::string& line : documented_script()) {
    const std::string reply = svc.handle_line(line);
    expect_well_formed(line, reply);
    EXPECT_TRUE(support::json_parse(reply).find("ok")->boolean) << reply;
  }
}

TEST(ServeFuzz, ByteFlipsGetWellFormedReplies) {
  fuzz(flip_bytes, 0xF11B, 300);
}

TEST(ServeFuzz, TruncationsGetWellFormedReplies) {
  fuzz(truncate, 0x7256, 200);
}

TEST(ServeFuzz, TypeSwapsGetWellFormedReplies) {
  fuzz(swap_type, 0x5A9E, 300);
}

TEST(ServeFuzz, ExtremeNumbersGetWellFormedReplies) {
  fuzz(extreme_number, 0xB16, 300);
}

TEST(ServeFuzz, DeepNestingGetsWellFormedReplies) {
  fuzz(deep_nesting, 0xDEE9, 60);
}

TEST(ServeFuzz, LongArraysGetWellFormedReplies) {
  fuzz(long_array, 0x10A6, 60);
}

}  // namespace
