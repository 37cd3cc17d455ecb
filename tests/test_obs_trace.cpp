// Request tracing: deterministic sampling under a fixed seed, span
// emission/parentage, wire propagation of trace ids, and an end-to-end
// router → shard pool run whose three JSONL logs stitch into one
// connected span tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/require.hpp"

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

using obs::Span;
using obs::SpanContext;
using obs::Tracer;
using obs::TracerOptions;

std::string fresh_file(const std::string& name) {
  const std::string path = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove(path);
  return path;
}

TracerOptions tracer_opts(const std::string& path, double rate,
                          std::uint64_t seed, const std::string& process) {
  TracerOptions opts;
  opts.path = path;
  opts.sample_rate = rate;
  opts.seed = seed;
  opts.process = process;
  return opts;
}

struct SpanRecord {
  std::string trace, span, parent, name, process;
  std::int64_t start_us = 0;
  std::int64_t dur_us = -1;
  std::map<std::string, std::string> attrs;
};

std::vector<SpanRecord> read_spans(const std::string& path) {
  std::vector<SpanRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const serve::JsonValue v = serve::parse_json(line);
    SpanRecord r;
    r.trace = v.get_string("trace", "");
    r.span = v.get_string("span", "");
    r.parent = v.get_string("parent", "");
    r.name = v.get_string("name", "");
    r.process = v.get_string("process", "");
    r.start_us = static_cast<std::int64_t>(v.get_number("start_us", 0));
    r.dur_us = static_cast<std::int64_t>(v.get_number("dur_us", -1));
    if (const serve::JsonValue* attrs = v.find("attrs")) {
      for (const std::string key :
           {"status", "source", "shard", "outcome", "hit", "backend"}) {
        const std::string val = attrs->get_string(key, "");
        if (!val.empty()) r.attrs[key] = val;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sampling

TEST(Tracer, SamplingIsDeterministicUnderFixedSeed) {
  const std::string path = fresh_file("trace_det.jsonl");
  Tracer a(tracer_opts(path, 0.5, 42, "a"));
  Tracer b(tracer_opts(path, 0.5, 42, "b"));
  std::size_t sampled = 0;
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    ASSERT_EQ(a.sample(id), b.sample(id)) << "id " << id;
    if (a.sample(id)) ++sampled;
  }
  // Rate 0.5 over 2000 hashed ids: comfortably within (0.4, 0.6).
  EXPECT_GT(sampled, 800u);
  EXPECT_LT(sampled, 1200u);

  Tracer all(tracer_opts(path, 1.0, 42, "c"));
  Tracer none(tracer_opts(path, 0.0, 42, "d"));
  for (std::uint64_t id = 1; id <= 100; ++id) {
    EXPECT_TRUE(all.sample(id));
    EXPECT_FALSE(none.sample(id));
  }
  fs::remove(path);
}

TEST(Tracer, TraceIdSequenceIsDeterministicPerSeed) {
  const std::string path = fresh_file("trace_ids.jsonl");
  Tracer a(tracer_opts(path, 1.0, 7, "a"));
  Tracer b(tracer_opts(path, 1.0, 7, "b"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.start_trace().trace_id, b.start_trace().trace_id);
  }
  Tracer c(tracer_opts(path, 1.0, 8, "c"));
  Tracer d(tracer_opts(path, 1.0, 7, "d"));
  EXPECT_NE(d.start_trace().trace_id, c.start_trace().trace_id);
  fs::remove(path);
}

TEST(Tracer, JoinAdoptsWireDecision) {
  const std::string path = fresh_file("trace_join.jsonl");
  // Even at sample rate 0, an id arriving on the wire records: the edge
  // already decided, downstream never re-rolls.
  Tracer t(tracer_opts(path, 0.0, 1, "serve"));
  EXPECT_TRUE(t.join(0xabcdef, 0x123).active());
  EXPECT_EQ(t.join(0xabcdef, 0x123).span_id, 0x123u);
  // A zero trace id means "not traced".
  EXPECT_FALSE(t.join(0, 0).active());
  fs::remove(path);
}

TEST(Tracer, DisabledTracerYieldsInactiveContexts) {
  Tracer t(tracer_opts("", 1.0, 1, "serve"));
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.start_trace().active());
  EXPECT_FALSE(t.join(0x99, 0).active());
}

// ---------------------------------------------------------------------------
// Spans

TEST(Span, InactiveContextIsANoOp) {
  Span s(SpanContext{}, "nothing");
  EXPECT_FALSE(s.active());
  s.attr("key", "value");  // must not crash
  EXPECT_FALSE(s.context().active());
  s.finish();  // idempotent no-op
}

TEST(Span, EmitsParentageAndNonNegativeDurations) {
  const std::string path = fresh_file("trace_spans.jsonl");
  {
    Tracer t(tracer_opts(path, 1.0, 3, "unit"));
    const SpanContext root_ctx = t.start_trace();
    ASSERT_TRUE(root_ctx.active());
    Span root(root_ctx, "request");
    root.attr("status", "ok");
    {
      Span child(root.context(), "phase");
      Span grandchild(child.context(), "subphase");
    }
    root.finish();
  }
  const std::vector<SpanRecord> spans = read_spans(path);
  ASSERT_EQ(spans.size(), 3u);  // emitted innermost-first
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& s : spans) {
    by_name[s.name] = s;
    EXPECT_GE(s.dur_us, 0);
    EXPECT_GT(s.start_us, 0);
    EXPECT_EQ(s.process, "unit");
    EXPECT_EQ(s.trace, spans[0].trace);
    EXPECT_EQ(s.span.size(), 16u);
  }
  EXPECT_EQ(by_name["request"].parent, "");  // root
  EXPECT_EQ(by_name["phase"].parent, by_name["request"].span);
  EXPECT_EQ(by_name["subphase"].parent, by_name["phase"].span);
  EXPECT_EQ(by_name["request"].attrs["status"], "ok");
  // Distinct span ids.
  std::set<std::string> ids;
  for (const SpanRecord& s : spans) ids.insert(s.span);
  EXPECT_EQ(ids.size(), 3u);
  fs::remove(path);
}

TEST(Span, RetroactiveStartPredatesChildren) {
  const std::string path = fresh_file("trace_retro.jsonl");
  {
    Tracer t(tracer_opts(path, 1.0, 3, "unit"));
    const auto admitted = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Span root(t.start_trace(), "request", admitted);
    Span child(root.context(), "phase");
    child.finish();
    root.finish();
  }
  const std::vector<SpanRecord> spans = read_spans(path);
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = s;
  // The retroactive root starts at admission — before the child — and
  // its measured duration covers the 5 ms sleep.
  EXPECT_LE(by_name["request"].start_us, by_name["phase"].start_us);
  EXPECT_GE(by_name["request"].dur_us, 4000);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Wire propagation

TEST(Protocol, TraceFieldsRideRequestsRoundTrip) {
  serve::Request r;
  r.type = "eval";
  r.id = "t1";
  r.workload = "tiny";
  r.trace = 0x0123456789abcdefULL;
  r.parent_span = 0xfedcba9876543210ULL;
  const std::string line = serve::format_request(r);
  EXPECT_NE(line.find("\"trace\": \"0123456789abcdef\""),
            std::string::npos);
  const serve::Request back = serve::parse_request(line);
  EXPECT_EQ(back.trace, r.trace);
  EXPECT_EQ(back.parent_span, r.parent_span);

  // Untraced requests carry no trace fields at all (the absence IS the
  // sampling decision downstream).
  serve::Request plain;
  plain.type = "eval";
  plain.workload = "tiny";
  const std::string plain_line = serve::format_request(plain);
  EXPECT_EQ(plain_line.find("trace"), std::string::npos);
  EXPECT_EQ(serve::parse_request(plain_line).trace, 0u);
}

// ---------------------------------------------------------------------------
// End to end: router + 2 shards, every process with its own trace log.

TEST(TraceEndToEnd, RouterAndShardLogsStitchIntoOneTree) {
  const std::string router_log = fresh_file("e2e_router.jsonl");
  const std::string shard_logs[2] = {fresh_file("e2e_shard0.jsonl"),
                                     fresh_file("e2e_shard1.jsonl")};
  std::string sockets[2];
  std::string stores[2];
  std::unique_ptr<serve::Server> servers[2];
  std::thread threads[2];
  for (int i = 0; i < 2; ++i) {
    sockets[i] = ::testing::TempDir() + "sparsetrain_e2e_trace" +
                 std::to_string(i) + ".sock";
    fs::remove(sockets[i]);
    stores[i] = ::testing::TempDir() + "sparsetrain_e2e_trace_store" +
                std::to_string(i);
    fs::remove_all(stores[i]);
    serve::ServerOptions so;
    so.store_dir = stores[i];
    so.trace_path = shard_logs[i];
    so.trace_sample_rate = 1.0;
    servers[i] = std::make_unique<serve::Server>(so);
    serve::Listener listener = serve::Listener::listen(sockets[i]);
    threads[i] = std::thread(
        [srv = servers[i].get(), l = std::move(listener)]() mutable {
          srv->serve_listener(l);
        });
  }

  {
    serve::RouterOptions ro;
    ro.replicas = 1;
    ro.trace_path = router_log;
    ro.trace_sample_rate = 1.0;
    ro.endpoints = {sockets[0], sockets[1]};
    serve::Router router(ro);
    serve::Request eval;
    eval.type = "eval";
    eval.id = "traced-1";
    eval.workload = "tiny";
    const serve::Response resp = router.handle(serve::format_request(eval));
    ASSERT_EQ(resp.status, "ok") << resp.error;
    EXPECT_EQ(resp.source, "computed");
    EXPECT_GE(resp.elapsed_ms, 0.0);
  }
  for (int i = 0; i < 2; ++i) {
    serve::Client killer(sockets[i], serve::ClientOptions{});
    killer.shutdown();
    threads[i].join();
  }

  // Stitch the three logs.
  std::vector<SpanRecord> all = read_spans(router_log);
  const std::size_t router_spans = all.size();
  for (const std::string& log : shard_logs) {
    for (SpanRecord& s : read_spans(log)) all.push_back(std::move(s));
  }
  ASSERT_GT(router_spans, 0u);
  ASSERT_GT(all.size(), router_spans);

  // One trace, one root, a fully connected parent chain.
  std::set<std::string> traces;
  std::set<std::string> span_ids;
  std::multiset<std::string> names;
  std::size_t roots = 0;
  for (const SpanRecord& s : all) {
    traces.insert(s.trace);
    EXPECT_TRUE(span_ids.insert(s.span).second)
        << "duplicate span id " << s.span;
    names.insert(s.name);
    if (s.parent.empty()) {
      ++roots;
      EXPECT_EQ(s.name, "router.request");
      EXPECT_EQ(s.process, "router");
    }
    EXPECT_GE(s.dur_us, 0);
  }
  EXPECT_EQ(traces.size(), 1u);
  EXPECT_EQ(roots, 1u);
  for (const SpanRecord& s : all) {
    if (!s.parent.empty()) {
      EXPECT_TRUE(span_ids.count(s.parent))
          << s.name << " has dangling parent " << s.parent;
    }
  }

  // Every phase of the request's life is represented: the router hop,
  // the daemon's queue wait and request, the store miss, compile,
  // simulate, the publish, and the replication put on the other shard.
  for (const std::string expected :
       {"router.request", "router.forward", "daemon.request",
        "daemon.queue", "store.lookup", "compile", "simulate",
        "store.publish", "router.replicate", "daemon.put"}) {
    EXPECT_GE(names.count(expected), 1u) << "missing span " << expected;
  }

  // Cross-process parentage: the shard's daemon.request hangs off the
  // router's forward hop.
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& s : all) by_name[s.name] = s;
  EXPECT_EQ(by_name["daemon.request"].parent,
            by_name["router.forward"].span);
  EXPECT_EQ(by_name["daemon.request"].process, "serve");
  EXPECT_EQ(by_name["store.lookup"].attrs["hit"], "false");
  EXPECT_EQ(by_name["daemon.request"].attrs["status"], "ok");

  for (int i = 0; i < 2; ++i) fs::remove_all(stores[i]);
  fs::remove(router_log);
  for (const std::string& log : shard_logs) fs::remove(log);
}

}  // namespace
}  // namespace sparsetrain
