// mpisect-serve subsystem tests: the LRU result cache, the deterministic
// trace-path sharding, the shared query engine's canonical cache keys,
// the JSON-over-lines Service dispatcher (including its error contract),
// and the localhost TCP server — scripted sessions must be byte-identical
// across worker-pool sizes, and served results byte-identical to the
// offline engine output.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "apps/convolution/convolution.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/runtime.hpp"
#include "serve/cache.hpp"
#include "serve/queries.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/digest.hpp"
#include "support/json.hpp"
#include "telemetry/export.hpp"
#include "trace/recorder.hpp"

#include "temp_path.hpp"

namespace {

using namespace mpisect;

trace::TraceFile record_fixture(int ranks = 4, int steps = 10) {
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(ranks, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "serve-fixture"});
  apps::conv::ConvolutionConfig cfg;
  cfg.steps = steps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  world.run(std::ref(app));
  return rec->finish();
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The fixture saved in both container formats; recorded once per binary.
struct Fixture {
  trace::TraceFile tf;
  std::string mpst_path;
  std::string mpstz_path;
};

const Fixture& fixture() {
  static const Fixture* fx = [] {
    auto* f = new Fixture;
    f->tf = record_fixture();
    f->mpst_path = testutil::unique_temp_path("serve_fixture", ".mpst");
    f->mpstz_path = testutil::unique_temp_path("serve_fixture", ".mpstz");
    write_bytes(f->mpst_path, f->tf.encode());
    write_bytes(f->mpstz_path, codec::compress(f->tf));
    return f;
  }();
  // Every test process writes its own pair of files; remove them at exit.
  static const struct Cleanup {
    ~Cleanup() {
      std::remove(fx->mpst_path.c_str());
      std::remove(fx->mpstz_path.c_str());
    }
  } cleanup;
  return *fx;
}

support::JsonValue parse_response(const std::string& line) {
  return support::json_parse(line);
}

// ---------------------------------------------------------------- cache --

TEST(LruCache, GetReturnsPutValueAndRefreshesRecency) {
  serve::LruCache cache(/*max_entries=*/2, /*max_bytes=*/0);
  cache.put("a", "1");
  cache.put("b", "2");
  EXPECT_EQ(cache.get("a").value_or(""), "1");  // "a" now most recent
  cache.put("c", "3");                          // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
}

TEST(LruCache, EvictsInLruOrder) {
  serve::LruCache cache(2, 0);
  cache.put("a", "1");
  cache.put("b", "2");
  cache.put("c", "3");  // "a" is the least recent
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(LruCache, ByteBudgetEvicts) {
  serve::LruCache cache(/*max_entries=*/100, /*max_bytes=*/10);
  cache.put("a", "12345");
  cache.put("b", "12345");
  EXPECT_EQ(cache.bytes(), 10u);
  cache.put("c", "12345");  // pushes "a" out
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_LE(cache.bytes(), 10u);
}

TEST(LruCache, OversizedValueIsNotCached) {
  serve::LruCache cache(100, 4);
  cache.put("big", "123456789");
  EXPECT_FALSE(cache.get("big").has_value());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(LruCache, PutSameKeyReplacesValue) {
  serve::LruCache cache(4, 0);
  cache.put("k", "old");
  cache.put("k", "new");
  EXPECT_EQ(cache.get("k").value_or(""), "new");
  EXPECT_EQ(cache.entries(), 1u);
}

// ------------------------------------------------------------- sharding --

TEST(ShardFor, DeterministicAndInRange) {
  for (const char* path : {"a.mpst", "b.mpstz", "/tmp/x/y.mpst", ""}) {
    const int s = serve::shard_for(path, 4);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    EXPECT_EQ(s, serve::shard_for(path, 4)) << path;
  }
  EXPECT_EQ(serve::shard_for("anything", 1), 0);
  EXPECT_EQ(serve::shard_for("anything", 0), 0);
}

TEST(ShardFor, SpreadsDistinctPaths) {
  // Not a distribution test, just "not everything lands on one shard".
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 64; ++i) {
    ++hits[static_cast<std::size_t>(
        serve::shard_for("trace_" + std::to_string(i) + ".mpst", 4))];
  }
  int used = 0;
  for (const int h : hits) used += h > 0 ? 1 : 0;
  EXPECT_GE(used, 2);
}

// ------------------------------------------------------- canonical keys --

TEST(CanonicalKeys, DistinguishEveryParameter) {
  serve::ReplayQuery a;
  serve::ReplayQuery b = a;
  EXPECT_EQ(canonical(a), canonical(b));
  b.model.latency_scale = 2.0;
  EXPECT_NE(canonical(a), canonical(b));
  b = a;
  b.faults = "drop:p=0.05";
  EXPECT_NE(canonical(a), canonical(b));
  b = a;
  b.format = "csv";
  EXPECT_NE(canonical(a), canonical(b));

  serve::SweepQuery s1, s2;
  s2.drop_rates = {0.0, 0.01};
  EXPECT_NE(canonical(s1), canonical(s2));

  // Replay and timeline queries with identical models must not collide.
  serve::TimelineQuery t;
  EXPECT_NE(canonical(a), canonical(t));
}

TEST(CanonicalKeys, DoubleRenderingRoundTrips) {
  serve::ModelParams p;
  p.latency_scale = 0.1;  // not exactly representable: rendering must
                          // still be stable and exact-match on re-render
  const std::string once = canonical(p);
  p.latency_scale = 0.1;
  EXPECT_EQ(once, canonical(p));
  p.latency_scale = 0.1 + 1e-12;
  EXPECT_NE(once, canonical(p));
}

// --------------------------------------------------------------- engine --

TEST(QueryEngine, InfoMatchesDigestAcrossFormats) {
  const Fixture& fx = fixture();
  const trace::TraceFile from_mpst = codec::load_trace(fx.mpst_path);
  const trace::TraceFile from_mpstz = codec::load_trace(fx.mpstz_path);
  EXPECT_EQ(serve::run_info(from_mpst), serve::run_info(from_mpstz));
  EXPECT_EQ(codec::trace_digest(from_mpst), codec::trace_digest(from_mpstz));
}

TEST(QueryEngine, ReplayIdenticalAcrossContainerFormats) {
  const Fixture& fx = fixture();
  serve::ReplayQuery q;
  q.model.model = "knl";
  q.format = "csv";
  EXPECT_EQ(serve::run_replay(codec::load_trace(fx.mpst_path), q),
            serve::run_replay(codec::load_trace(fx.mpstz_path), q));
}

TEST(QueryEngine, UnknownModelThrowsTraceError) {
  serve::ReplayQuery q;
  q.model.model = "not-a-machine";
  EXPECT_THROW((void)serve::run_replay(fixture().tf, q), trace::TraceError);
}

TEST(QueryEngine, BadComputeScaleThrows) {
  serve::ReplayQuery q;
  q.model.compute_scale = "-3";
  EXPECT_THROW((void)serve::run_replay(fixture().tf, q), trace::TraceError);
}

// -------------------------------------------------------------- service --

// Section labels come from outside input and have no length bound: every
// render carries a 300-character label whole, and every JSON render parses.
TEST(QueryEngine, LongSectionLabelSurvivesEveryRender) {
  std::string label;
  while (label.size() < 300) {
    label += "long_label_" + std::to_string(label.size());
  }
  label.resize(300);
  mpisim::WorldOptions opts;
  opts.machine = mpisim::MachineModel::nehalem_cluster();
  opts.seed = 0x5EED;
  mpisim::World world(2, opts);
  sections::SectionRuntime::install(world);
  auto rec = trace::TraceRecorder::install(world, {.app = "long-label"});
  world.run([&label](mpisim::Ctx& ctx) {
    mpisim::Comm comm = ctx.world_comm();
    sections::MPIX_Section_enter(comm, label.c_str());
    ctx.compute(1e-3 * (ctx.rank() + 1));
    comm.barrier();
    sections::MPIX_Section_exit(comm, label.c_str());
  });
  const trace::TraceFile tf = rec->finish();

  EXPECT_NE(serve::run_info(tf).find("] " + label + "\n"), std::string::npos);
  for (const char* format : {"text", "json", "chrome"}) {
    serve::ReplayQuery q;
    q.format = format;
    const std::string out = serve::run_replay(tf, q);
    EXPECT_NE(out.find(label), std::string::npos) << format;
    if (q.format != "text") {
      EXPECT_NO_THROW((void)support::json_parse(out)) << format;
    }
  }
  for (const char* format : {"csv", "json", "chrome"}) {
    serve::TimelineQuery q;
    q.format = format;
    const std::string out = serve::run_timeline(tf, q);
    EXPECT_NE(out.find(label), std::string::npos) << format;
    if (q.format == "csv") {
      const telemetry::Timeline tl = telemetry::timeline_from_csv(out);
      ASSERT_FALSE(tl.section_totals.empty());
      EXPECT_EQ(tl.binding, label);
    } else {
      EXPECT_NO_THROW((void)support::json_parse(out)) << format;
    }
  }
}

TEST(Service, InfoResponseCarriesDigestAndEngineBytes) {
  const Fixture& fx = fixture();
  serve::Service svc;
  const std::string resp = svc.handle_line(
      "{\"id\":7,\"op\":\"info\",\"trace\":\"" + fx.mpst_path + "\"}");
  const support::JsonValue v = parse_response(resp);
  ASSERT_TRUE(v.find("ok") != nullptr && v.find("ok")->boolean);
  EXPECT_EQ(v.find("id")->number, 7.0);
  EXPECT_EQ(v.find("digest")->string,
            support::format_digest(codec::trace_digest(fx.tf)));
  EXPECT_EQ(v.find("result")->string, serve::run_info(fx.tf));
}

TEST(Service, SecondIdenticalQueryIsCachedAndByteIdentical) {
  const Fixture& fx = fixture();
  serve::Service svc;
  const std::string req =
      "{\"id\":1,\"op\":\"replay\",\"trace\":\"" + fx.mpstz_path +
      "\",\"params\":{\"model\":\"knl\",\"format\":\"csv\"}}";
  const support::JsonValue cold = parse_response(svc.handle_line(req));
  const support::JsonValue warm = parse_response(svc.handle_line(req));
  ASSERT_TRUE(cold.find("ok")->boolean);
  ASSERT_TRUE(warm.find("ok")->boolean);
  EXPECT_FALSE(cold.find("cached")->boolean);
  EXPECT_TRUE(warm.find("cached")->boolean);
  EXPECT_EQ(cold.find("result")->string, warm.find("result")->string);
}

TEST(Service, CacheIsKeyedByContentDigestNotPath) {
  // The same trace under both container formats: the second path's first
  // query must already hit the cache (same digest, same canonical form).
  const Fixture& fx = fixture();
  serve::Service svc;
  const std::string params =
      "\"params\":{\"model\":\"knl\",\"format\":\"csv\"}}";
  const support::JsonValue first = parse_response(svc.handle_line(
      "{\"id\":1,\"op\":\"replay\",\"trace\":\"" + fx.mpst_path + "\"," +
      params));
  const support::JsonValue second = parse_response(svc.handle_line(
      "{\"id\":2,\"op\":\"replay\",\"trace\":\"" + fx.mpstz_path + "\"," +
      params));
  ASSERT_TRUE(first.find("ok")->boolean);
  ASSERT_TRUE(second.find("ok")->boolean);
  EXPECT_FALSE(first.find("cached")->boolean);
  EXPECT_TRUE(second.find("cached")->boolean);
  EXPECT_EQ(first.find("digest")->string, second.find("digest")->string);
}

TEST(Service, SweepAndAnalyzeAndTimelineMatchEngine) {
  const Fixture& fx = fixture();
  serve::Service svc;

  serve::SweepQuery sq;
  sq.drop_rates = {0.0, 0.01};
  const support::JsonValue sweep = parse_response(svc.handle_line(
      "{\"id\":1,\"op\":\"sweep\",\"trace\":\"" + fx.mpstz_path +
      "\",\"params\":{\"drop_rates\":[0,0.01]}}"));
  ASSERT_TRUE(sweep.find("ok")->boolean);
  EXPECT_EQ(sweep.find("result")->string, serve::run_sweep(fx.tf, sq));

  const support::JsonValue an = parse_response(
      svc.handle_line("{\"id\":2,\"op\":\"analyze\",\"trace\":\"" +
                      fx.mpstz_path + "\",\"params\":{\"format\":\"json\"}}"));
  ASSERT_TRUE(an.find("ok")->boolean);
  serve::AnalyzeQuery aq;
  aq.format = "json";
  EXPECT_EQ(an.find("result")->string, serve::run_analyze(fx.tf, aq));

  const support::JsonValue tl = parse_response(
      svc.handle_line("{\"id\":3,\"op\":\"timeline\",\"trace\":\"" +
                      fx.mpstz_path + "\"}"));
  ASSERT_TRUE(tl.find("ok")->boolean);
  serve::TimelineQuery tq;
  EXPECT_EQ(tl.find("result")->string, serve::run_timeline(fx.tf, tq));
}

TEST(Service, ErrorContract) {
  const Fixture& fx = fixture();
  serve::Service svc;
  const auto expect_error = [&](const std::string& line,
                                const std::string& needle) {
    const support::JsonValue v = parse_response(svc.handle_line(line));
    ASSERT_TRUE(v.find("ok") != nullptr) << line;
    EXPECT_FALSE(v.find("ok")->boolean) << line;
    EXPECT_NE(v.find("error")->string.find(needle), std::string::npos)
        << line << " -> " << v.find("error")->string;
  };
  expect_error("this is not json", "");
  expect_error("{\"id\":1}", "missing 'op'");
  expect_error("{\"id\":1,\"op\":\"frobnicate\",\"trace\":\"x\"}",
               "unknown op");
  expect_error("{\"id\":1,\"op\":\"replay\"}", "missing 'trace'");
  expect_error("{\"id\":1,\"op\":\"replay\",\"trace\":\"/no/such/file\"}",
               "cannot open");
  expect_error("{\"id\":1,\"op\":\"replay\",\"trace\":\"" + fx.mpst_path +
                   "\",\"params\":{\"typo_key\":1}}",
               "unknown param");
  expect_error("{\"id\":1,\"op\":\"replay\",\"trace\":\"" + fx.mpst_path +
                   "\",\"params\":{\"model\":\"bogus\"}}",
               "unknown model");
}

TEST(Service, DeeplyNestedRequestIsAnErrorReply) {
  // A request line of 200,000 '[' used to overflow the parser's stack.
  serve::Service svc;
  const support::JsonValue v =
      parse_response(svc.handle_line(std::string(200000, '[')));
  ASSERT_TRUE(v.find("ok") != nullptr);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_NE(v.find("error")->string.find("nesting"), std::string::npos)
      << v.find("error")->string;
}

/// The error text of an `ok:false` reply ("" for any other reply).
std::string error_of(const support::JsonValue& reply) {
  const support::JsonValue* ok = reply.find("ok");
  const support::JsonValue* err = reply.find("error");
  if (ok == nullptr || ok->boolean || err == nullptr) return "";
  return err->string;
}

// Integer params are read as integers in range, never cast from an
// arbitrary double (which is undefined behaviour past the target range).
TEST(Service, OutOfRangeIntegerParamsAreErrorsNamingTheParam) {
  const Fixture& fx = fixture();
  serve::Service svc;
  const auto reply = [&](const std::string& op, const std::string& params) {
    return parse_response(svc.handle_line(
        "{\"id\":1,\"op\":\"" + op + "\",\"trace\":\"" + fx.mpst_path +
        "\",\"params\":{" + params + "}}"));
  };
  for (const char* bad : {"-1", "1e300", "-1e300", "1.5", "9007199254740994"}) {
    for (const char* op : {"replay", "timeline", "sweep"}) {
      const support::JsonValue v =
          reply(op, std::string("\"fault_seed\":") + bad);
      EXPECT_NE(error_of(v).find("param 'fault_seed'"), std::string::npos)
          << op << " fault_seed " << bad << ": " << error_of(v);
    }
    for (const char* op : {"replay", "timeline"}) {
      const support::JsonValue v = reply(op, std::string("\"eager\":") + bad);
      EXPECT_NE(error_of(v).find("param 'eager'"), std::string::npos)
          << op << " eager " << bad << ": " << error_of(v);
    }
  }
  EXPECT_TRUE(reply("replay", "\"fault_seed\":7,\"eager\":4096")
                  .find("ok")
                  ->boolean);
  EXPECT_TRUE(
      reply("replay", "\"fault_seed\":9007199254740992").find("ok")->boolean);
}

TEST(Service, OutOfRangeDoubleParamsAreErrorsNamingTheParam) {
  const Fixture& fx = fixture();
  serve::Service svc;
  const auto reply = [&](const std::string& op, const std::string& params) {
    return parse_response(svc.handle_line(
        "{\"id\":1,\"op\":\"" + op + "\",\"trace\":\"" + fx.mpst_path +
        "\",\"params\":{" + params + "}}"));
  };
  const auto expect_named = [&](const std::string& op, const std::string& key,
                                const char* value) {
    const support::JsonValue v =
        reply(op, "\"" + key + "\":" + std::string(value));
    EXPECT_NE(error_of(v).find("param '" + key + "'"), std::string::npos)
        << op << " " << key << "=" << value << ": " << error_of(v);
  };
  for (const char* op : {"replay", "timeline"}) {
    for (const char* key : {"latency_scale", "bandwidth_scale",
                            "jitter_scale"}) {
      for (const char* bad : {"0", "-1", "-1e300"}) expect_named(op, key, bad);
    }
    for (const char* key : {"latency", "bandwidth"}) {
      for (const char* bad : {"-1e-6", "-1e300"}) expect_named(op, key, bad);
    }
  }
  for (const char* bad : {"-1", "-1e300"}) {
    expect_named("replay", "tseq", bad);
    expect_named("sweep", "tseq", bad);
    expect_named("timeline", "dt", bad);
  }
  // In range (0 = no override for latency and bandwidth) is still fine.
  EXPECT_TRUE(reply("replay",
                    "\"latency_scale\":2,\"bandwidth_scale\":0.5,"
                    "\"jitter_scale\":1e-3,\"latency\":0,\"bandwidth\":1e9,"
                    "\"tseq\":0")
                  .find("ok")
                  ->boolean);
}

// The CLI flags fill the same ModelParams; they get the same check.
TEST(QueryEngine, ModelParamCheckNamesTheParam) {
  serve::ModelParams ok;
  EXPECT_NO_THROW(serve::check_model_params(ok));
  serve::ModelParams bad = ok;
  bad.latency_scale = -1e300;
  try {
    serve::check_model_params(bad);
    ADD_FAILURE() << "latency_scale=-1e300 accepted";
  } catch (const trace::TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("param 'latency_scale'"),
              std::string::npos)
        << e.what();
  }
  bad = ok;
  bad.bandwidth = std::numeric_limits<double>::infinity();
  EXPECT_THROW(serve::check_model_params(bad), trace::TraceError);
  EXPECT_THROW((void)serve::check_num("dt", std::nan(""),
                                      serve::NumRange::NonNegative),
               trace::TraceError);
}

TEST(Service, IdOutsideTheExactIntegerRangeEchoesZero) {
  serve::Service svc;
  const auto id_of = [&](const std::string& id) {
    const std::string line =
        svc.handle_line("{\"id\":" + id + ",\"op\":\"stats\"}");
    return line.substr(0, line.find(','));
  };
  EXPECT_EQ(id_of("42"), "{\"id\":42");
  EXPECT_EQ(id_of("-42"), "{\"id\":-42");
  EXPECT_EQ(id_of("9007199254740992"), "{\"id\":9007199254740992");
  EXPECT_EQ(id_of("-9007199254740992"), "{\"id\":-9007199254740992");
  for (const char* bad :
       {"1e300", "-5e19", "9007199254740994", "1.5", "\"7\"", "null"}) {
    EXPECT_EQ(id_of(bad), "{\"id\":0") << bad;
  }
}

// The grid is rejected before the trace loads: the path here does not
// exist, and the answer names the grid, not the file.
TEST(Service, OversizedSweepGridIsRejectedBeforeTheTraceLoads) {
  serve::Service svc;
  const auto list = [](int n) {
    std::string s = "[";
    for (int i = 0; i < n; ++i) s += (i ? "," : "") + std::to_string(i + 1);
    return s + "]";
  };
  const auto sweep = [&](const std::string& params) {
    return parse_response(svc.handle_line(
        "{\"id\":1,\"op\":\"sweep\",\"trace\":\"/no/such/file\","
        "\"params\":{" + params + "}}"));
  };
  // 80 x 80 x 10 = 64,000 points.
  const support::JsonValue big =
      sweep("\"latency_scales\":" + list(80) + ",\"bandwidth_scales\":" +
            list(80) + ",\"drop_rates\":" + list(10));
  EXPECT_NE(error_of(big).find("sweep grid exceeds"), std::string::npos)
      << error_of(big);
  // Exactly kMaxSweepPoints passes the grid check (and then fails to open).
  const support::JsonValue edge = sweep("\"latency_scales\":" + list(32) +
                                        ",\"bandwidth_scales\":" + list(32));
  EXPECT_NE(error_of(edge).find("cannot open"), std::string::npos)
      << error_of(edge);
  const support::JsonValue over =
      sweep("\"latency_scales\":" + list(33) + ",\"bandwidth_scales\":" +
            list(32));
  EXPECT_NE(error_of(over).find("sweep grid exceeds"), std::string::npos)
      << error_of(over);
}

// The offline sweep (mpisect-replay sweep) runs the same run_sweep as the
// daemon, so the grid bound holds for every caller.
TEST(QueryEngine, RunSweepRejectsAGridAboveTheBound) {
  const Fixture& fx = fixture();
  serve::SweepQuery q;
  q.latency_scales.assign(serve::kMaxSweepPoints + 1, 1.0);
  try {
    (void)serve::run_sweep(fx.tf, q);
    ADD_FAILURE() << "an over-bound grid was evaluated";
  } catch (const trace::TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("sweep grid exceeds"),
              std::string::npos)
        << e.what();
  }
}

TEST(QueryEngine, SweepPointsSaturateInsteadOfOverflowing) {
  serve::SweepQuery q;
  EXPECT_EQ(serve::sweep_points(q), 1u);
  q.latency_scales.assign(32, 1.0);
  q.drop_rates.assign(32, 0.0);
  EXPECT_EQ(serve::sweep_points(q), serve::kMaxSweepPoints);
  // 2000^6 overflows 64 bits; the product saturates one past the bound.
  q.models.assign(2000, "recorded");
  q.latency_scales.assign(2000, 1.0);
  q.bandwidth_scales.assign(2000, 1.0);
  q.compute_scales.assign(2000, "1");
  q.drop_rates.assign(2000, 0.0);
  q.progress.assign(2000, "recorded");
  EXPECT_EQ(serve::sweep_points(q), serve::kMaxSweepPoints + 1);
}

// A dt that bins the makespan into too many windows is an error, not an
// unbounded loop.
TEST(Service, TimelineWindowCountIsBounded) {
  const Fixture& fx = fixture();
  serve::Service svc;
  const support::JsonValue v = parse_response(svc.handle_line(
      "{\"id\":1,\"op\":\"timeline\",\"trace\":\"" + fx.mpst_path +
      "\",\"params\":{\"dt\":1e-300}}"));
  EXPECT_NE(error_of(v).find("windows"), std::string::npos) << error_of(v);
}

TEST(Service, StatsReportsCounters) {
  const Fixture& fx = fixture();
  serve::Service svc;
  (void)svc.handle_line("{\"id\":1,\"op\":\"info\",\"trace\":\"" +
                        fx.mpst_path + "\"}");
  (void)svc.handle_line("{\"id\":2,\"op\":\"info\",\"trace\":\"" +
                        fx.mpst_path + "\"}");
  const support::JsonValue v = parse_response(
      svc.handle_line("{\"id\":3,\"op\":\"stats\"}"));
  ASSERT_TRUE(v.find("ok")->boolean);
  const std::string stats = v.find("result")->string;
  EXPECT_NE(stats.find("serve_requests"), std::string::npos);
  EXPECT_NE(stats.find("serve_cache_hits"), std::string::npos);
  EXPECT_NE(stats.find("serve_cache_misses"), std::string::npos);
  EXPECT_NE(stats.find("serve_bytes_decoded"), std::string::npos);
  EXPECT_NE(stats.find("serve_latency_cold"), std::string::npos);
}

TEST(Service, CorruptContainerIsACleanError) {
  const std::string path =
      testutil::unique_temp_path("serve_corrupt", ".mpstz");
  std::vector<std::uint8_t> bytes = codec::compress(fixture().tf);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_bytes(path, bytes);
  serve::Service svc;
  const support::JsonValue v = parse_response(svc.handle_line(
      "{\"id\":1,\"op\":\"info\",\"trace\":\"" + path + "\"}"));
  ASSERT_TRUE(v.find("ok") != nullptr);
  // Either the flip landed in a checked structure (error) or in a spot
  // the CRC caught — never a crash; most flips land mid-payload and are
  // rejected.
  if (!v.find("ok")->boolean) {
    EXPECT_FALSE(v.find("error")->string.empty());
  }
  std::remove(path.c_str());
}

// A trace atomically rewritten at the same path (write a temp file, rename
// it over the old one) must be decoded again: info and replay answer with
// the new content's digest, not the pinned decode of the old file.
TEST(Service, RewrittenTraceAtSamePathIsReloaded) {
  const std::string path = testutil::unique_temp_path("serve_rewrite", ".mpst");
  const std::string tmp = path + ".tmp";
  const trace::TraceFile before = fixture().tf;
  const trace::TraceFile after = record_fixture(4, 12);
  const std::string digest_before =
      support::format_digest(codec::trace_digest(before));
  const std::string digest_after =
      support::format_digest(codec::trace_digest(after));
  ASSERT_NE(digest_before, digest_after);

  serve::Service svc;
  auto ask = [&](const std::string& op, const std::string& params) {
    return parse_response(svc.handle_line("{\"id\":1,\"op\":\"" + op +
                                          "\",\"trace\":\"" + path + "\"" +
                                          params + "}"));
  };
  const std::string replay_params =
      ",\"params\":{\"model\":\"knl\",\"format\":\"csv\"}";
  write_bytes(path, before.encode());
  const support::JsonValue info0 = ask("info", "");
  ASSERT_TRUE(info0.find("ok")->boolean);
  EXPECT_EQ(info0.find("digest")->string, digest_before);
  EXPECT_EQ(ask("replay", replay_params).find("digest")->string,
            digest_before);

  write_bytes(tmp, after.encode());
  ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  const support::JsonValue info1 = ask("info", "");
  ASSERT_TRUE(info1.find("ok")->boolean);
  EXPECT_EQ(info1.find("digest")->string, digest_after);
  EXPECT_EQ(info1.find("result")->string, serve::run_info(after));
  const support::JsonValue replay1 = ask("replay", replay_params);
  ASSERT_TRUE(replay1.find("ok")->boolean);
  EXPECT_EQ(replay1.find("digest")->string, digest_after);
  EXPECT_FALSE(replay1.find("cached")->boolean);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- server --

/// Connected loopback socket to the daemon, or -1 (after ADD_FAILURE).
int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ADD_FAILURE() << "socket() failed";
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ADD_FAILURE() << "connect() failed";
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Minimal synchronous client: send each line, wait for its response.
/// Failures surface as ADD_FAILURE plus a short response list.
std::vector<std::string> tcp_session(int port,
                                     const std::vector<std::string>& lines) {
  std::vector<std::string> responses;
  const int fd = connect_local(port);
  if (fd < 0) return responses;
  std::string buffer;
  char chunk[4096];
  for (const std::string& line : lines) {
    const std::string msg = line + "\n";
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
      if (n <= 0) {
        ADD_FAILURE() << "write failed";
        ::close(fd);
        return responses;
      }
      off += static_cast<std::size_t>(n);
    }
    bool got_line = false;
    while (!got_line) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        responses.push_back(buffer.substr(0, nl));
        buffer.erase(0, nl + 1);
        got_line = true;
        continue;
      }
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed early";
        ::close(fd);
        return responses;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return responses;
}

std::vector<std::string> serve_session(int workers,
                                       const std::vector<std::string>& lines) {
  serve::Service svc;
  serve::Server server(svc, workers);
  const int port = server.listen(0);
  std::thread runner([&] { server.run(); });
  std::vector<std::string> responses = tcp_session(port, lines);
  server.stop();
  runner.join();
  return responses;
}

TEST(Server, SessionByteIdenticalAcrossWorkerCounts) {
  const Fixture& fx = fixture();
  const std::vector<std::string> script = {
      "{\"id\":1,\"op\":\"info\",\"trace\":\"" + fx.mpstz_path + "\"}",
      "{\"id\":2,\"op\":\"replay\",\"trace\":\"" + fx.mpstz_path +
          "\",\"params\":{\"model\":\"knl\",\"format\":\"csv\"}}",
      "{\"id\":3,\"op\":\"replay\",\"trace\":\"" + fx.mpst_path +
          "\",\"params\":{\"model\":\"knl\",\"format\":\"csv\"}}",
      "{\"id\":4,\"op\":\"sweep\",\"trace\":\"" + fx.mpstz_path +
          "\",\"params\":{\"latency_scales\":[1,2]}}",
  };
  const std::vector<std::string> one = serve_session(1, script);
  const std::vector<std::string> four = serve_session(4, script);
  ASSERT_EQ(one.size(), script.size());
  EXPECT_EQ(one, four);
}

TEST(Server, OverlongRequestLineGetsOneErrorThenEofWhileOthersAreServed) {
  const Fixture& fx = fixture();
  serve::Service svc;
  serve::Server server(svc, 1);
  const int port = server.listen(0);
  std::thread runner([&] { server.run(); });

  // 2 MiB with no newline. The daemon refuses the line once it passes
  // kMaxLineBytes; MSG_NOSIGNAL keeps a refused write from raising SIGPIPE.
  const int fd = connect_local(port);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};  // fail rather than hang if never answered
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const std::string junk(std::size_t{2} << 20, 'x');
  for (std::size_t off = 0; off < junk.size();) {
    const ssize_t n =
        ::send(fd, junk.data() + off, junk.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }

  const std::vector<std::string> other = tcp_session(
      port, {"{\"id\":1,\"op\":\"info\",\"trace\":\"" + fx.mpstz_path + "\"}"});
  ASSERT_EQ(other.size(), 1u);
  EXPECT_TRUE(parse_response(other[0]).find("ok")->boolean) << other[0];

  std::string reply;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(n, 0) << "expected an orderly EOF after the error reply";
  ::close(fd);
  server.stop();
  runner.join();

  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "exactly one reply line";
  const support::JsonValue v = parse_response(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_NE(v.find("error")->string.find("request line longer than"),
            std::string::npos)
      << reply;
}

TEST(Server, ConcurrentClientsGetConsistentAnswers) {
  const Fixture& fx = fixture();
  serve::Service svc;
  serve::Server server(svc, 2);
  const int port = server.listen(0);
  std::thread runner([&] { server.run(); });

  const std::vector<std::string> script = {
      "{\"id\":1,\"op\":\"replay\",\"trace\":\"" + fx.mpstz_path +
      "\",\"params\":{\"format\":\"csv\"}}"};
  std::vector<std::vector<std::string>> results(3);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < 3; ++i) {
      clients.emplace_back(
          [&, i] { results[static_cast<std::size_t>(i)] = tcp_session(port, script); });
    }
    for (auto& c : clients) c.join();
  }
  server.stop();
  runner.join();

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(results[static_cast<std::size_t>(i)].size(), 1u);
    const support::JsonValue v =
        parse_response(results[static_cast<std::size_t>(i)][0]);
    ASSERT_TRUE(v.find("ok")->boolean) << results[static_cast<std::size_t>(i)][0];
    // All three sessions agree on the rendered bytes (one may be the cold
    // miss, the others cache hits — the result text is the same).
    EXPECT_EQ(v.find("result")->string,
              parse_response(results[0][0]).find("result")->string);
  }
}

// Each finished connection's thread is joined at the next accept, and its
// fd leaves the list stop() shuts down before it is closed.
TEST(Server, SequentialConnectionsAreReaped) {
  const Fixture& fx = fixture();
  serve::Service svc;
  serve::Server server(svc, 1);
  const int port = server.listen(0);
  std::thread runner([&] { server.run(); });
  const std::string info =
      "{\"id\":1,\"op\":\"info\",\"trace\":\"" + fx.mpstz_path + "\"}";
  std::size_t most = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(tcp_session(port, {info}).size(), 1u) << "connection " << i;
    most = std::max(most, server.connection_threads());
  }
  server.stop();
  runner.join();
  // A connection's thread may still be closing when the next one is
  // accepted, so a few can be live at once; without reaping all 40 are.
  EXPECT_LE(most, 8u);
}

}  // namespace
