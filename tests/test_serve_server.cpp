// Evaluation daemon: JSON/protocol parsing, the request loop's admission
// control, single-flight coalescing (bursts of twins start one
// evaluation), per-request timeouts, store-backed repeat requests, a
// caller-given session store, the engine-profiling setting, and graceful
// drain (of a stream, and of a timed-out requester's evaluation before
// "bye").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve_hold.hpp"
#include "util/require.hpp"

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

using serve::JsonValue;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove_all(dir);
  return dir;
}

constexpr const char* kTinyEval =
    "{\"type\":\"eval\",\"id\":\"r1\",\"workload\":\"tiny\"}";

TEST(Json, ParsesDocuments) {
  const JsonValue v = serve::parse_json(
      " {\"a\": 1.5, \"b\": [true, null, \"x\\n\\u0041\"], \"c\": {}} ");
  EXPECT_EQ(v.get_number("a", 0), 1.5);
  const auto& arr = v.find("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_string(), "x\nA");
  EXPECT_TRUE(v.find("c")->is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.get_string("missing", "d"), "d");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(serve::parse_json(""), ContractError);
  EXPECT_THROW(serve::parse_json("{"), ContractError);
  EXPECT_THROW(serve::parse_json("{\"a\":}"), ContractError);
  EXPECT_THROW(serve::parse_json("{} trailing"), ContractError);
  EXPECT_THROW(serve::parse_json("\"unterminated"), ContractError);
  EXPECT_THROW(serve::parse_json("01x"), ContractError);
}

TEST(Json, NumbersFollowTheStrictGrammar) {
  EXPECT_EQ(serve::parse_json("0").as_number(), 0.0);
  EXPECT_EQ(serve::parse_json("-0.5").as_number(), -0.5);
  EXPECT_EQ(serve::parse_json("1e3").as_number(), 1000.0);
  EXPECT_EQ(serve::parse_json("1E+3").as_number(), 1000.0);
  EXPECT_EQ(serve::parse_json("1.25e-2").as_number(), 0.0125);
  EXPECT_EQ(serve::parse_json("123456789").as_number(), 123456789.0);

  // strtod would happily convert every one of these; RFC 8259 does not.
  for (const char* bad :
       {"+1", "01", "1.", ".5", "-", "-.", "1e", "1e+", "1e-", "0x10",
        "NaN", "nan", "inf", "Infinity", "--1", "1..2", "1.e3"}) {
    EXPECT_THROW(serve::parse_json(bad), ContractError) << bad;
  }
  // Grammar-valid but unrepresentable: overflows to infinity, which the
  // emitter could never round-trip. Rejected, not silently clamped.
  EXPECT_THROW(serve::parse_json("1e999"), ContractError);
  EXPECT_THROW(serve::parse_json("-1e999"), ContractError);
  // Underflow to (sub)normal zero is representable and fine.
  EXPECT_EQ(serve::parse_json("1e-999").as_number(), 0.0);
}

TEST(Json, RejectsIncompleteEscapes) {
  EXPECT_THROW(serve::parse_json("\"\\"), ContractError);
  EXPECT_THROW(serve::parse_json("\"\\q\""), ContractError);
  EXPECT_THROW(serve::parse_json("\"\\u12\""), ContractError);
  EXPECT_THROW(serve::parse_json("\"\\u12g4\""), ContractError);
  EXPECT_EQ(serve::parse_json("\"\\u0041\"").as_string(), "A");
}

TEST(Json, BoundsDepthAndInputSize) {
  // Deep nesting fails as a parse error — never a stack overflow.
  const std::string deep(100000, '[');
  EXPECT_THROW(serve::parse_json(deep), ContractError);
  std::string nested;
  for (int i = 0; i < 60; ++i) nested += '[';
  for (int i = 0; i < 60; ++i) nested += ']';
  EXPECT_NO_THROW(serve::parse_json(nested));  // 60 < the 64-level cap

  // Oversized documents are refused up front (1 MiB cap), including
  // syntactically valid ones.
  std::string big = "\"";
  big.append((1u << 20) + 16, 'x');
  big += '"';
  EXPECT_THROW(serve::parse_json(big), ContractError);
  EXPECT_NO_THROW(serve::parse_json('"' + std::string(1000, 'x') + '"'));
}

TEST(Protocol, RequestDefaultsAndValidation) {
  const Request r = serve::parse_request(kTinyEval);
  EXPECT_EQ(r.type, "eval");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.workload, "tiny");
  EXPECT_EQ(r.backend, "sparsetrain");
  EXPECT_EQ(r.scenario, "pruned");
  EXPECT_EQ(r.engine, "statistical");
  EXPECT_THROW(serve::parse_request("{\"type\":\"nope\"}"), ContractError);
  EXPECT_THROW(
      serve::parse_request(
          "{\"type\":\"eval\",\"scenario\":\"unknown\"}"),
      ContractError);
  EXPECT_THROW(
      serve::parse_request("{\"type\":\"eval\",\"batch\":-1}"),
      ContractError);

  // Each integer field accepts its cap and refuses one past it.
  const auto eval_with = [](const std::string& key, std::uint64_t v) {
    return "{\"type\":\"eval\",\"" + key + "\":" + std::to_string(v) +
           "}";
  };
  EXPECT_EQ(serve::parse_request(eval_with("batch", compiler::kMaxBatch))
                .batch,
            compiler::kMaxBatch);
  EXPECT_EQ(
      serve::parse_request(eval_with("timeout_ms", serve::kMaxTimeoutMs))
          .timeout_ms,
      serve::kMaxTimeoutMs);
  EXPECT_THROW(
      serve::parse_request(eval_with("batch", compiler::kMaxBatch + 1)),
      ContractError);
  EXPECT_THROW(
      serve::parse_request(eval_with("timeout_ms", serve::kMaxTimeoutMs + 1)),
      ContractError);
}

TEST(Protocol, ResponseRoundTrip) {
  Response r;
  r.id = "x";
  r.status = "ok";
  r.source = "computed";
  r.workload = "tiny";
  r.backend = "sparsetrain";
  r.engine = "statistical";
  r.fingerprint = 0xdeadbeefcafe1234u;
  r.cycles = 123;
  r.latency_ms = 0.5;
  r.utilization = 0.25;
  r.on_chip_uj = 1.5;
  r.dram_uj = 2.5;
  const Response back = serve::parse_response(serve::format_response(r));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.status, "ok");
  EXPECT_EQ(back.source, "computed");
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.cycles, 123u);
  EXPECT_EQ(back.latency_ms, 0.5);
}

// A response's cycles must be an integer a uint64 holds: converting any
// other double is undefined, so the parser refuses it.
TEST(Protocol, ResponseRefusesCyclesOutsideUint64) {
  for (const char* cycles : {"1e300", "-5", "1.5", "18446744073709551616"}) {
    SCOPED_TRACE(cycles);
    EXPECT_THROW(serve::parse_response(
                     std::string("{\"status\": \"ok\", \"cycles\": ") +
                     cycles + "}"),
                 ContractError);
  }
  EXPECT_EQ(serve::parse_response(
                "{\"status\": \"ok\", \"cycles\": 18446744073709549568}")
                .cycles,
            18446744073709549568u);
}

/// The server's "status" payload: the request counters operators read.
JsonValue status_of(Server& server) {
  return serve::parse_json(
      server.handle("{\"type\":\"status\"}").payload_json);
}

ServerOptions tiny_server_options(const std::string& store_dir = {}) {
  ServerOptions opts;
  opts.store_dir = store_dir;
  opts.session.workers = 2;
  return opts;
}

TEST(Server, EvalComputesThenServesFromStore) {
  const std::string dir = fresh_dir("server_store");
  Server server(tiny_server_options(dir));
  const Response first = server.handle(kTinyEval);
  ASSERT_EQ(first.status, "ok") << first.error;
  EXPECT_EQ(first.source, "computed");
  EXPECT_GT(first.cycles, 0u);
  EXPECT_NE(first.fingerprint, 0u);

  const Response second = server.handle(kTinyEval);
  ASSERT_EQ(second.status, "ok") << second.error;
  EXPECT_EQ(second.source, "store");
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.latency_ms, first.latency_ms);

  const JsonValue c = status_of(server);
  EXPECT_EQ(c.get_number("completed", -1), 2);
  EXPECT_EQ(c.get_number("computed", -1), 1);
  EXPECT_EQ(c.get_number("store_hits", -1), 1);
  fs::remove_all(dir);
}

TEST(Server, MalformedAndUnknownRequestsAnswerErrors) {
  Server server(tiny_server_options());
  EXPECT_EQ(server.handle("{oops").status, "error");
  EXPECT_EQ(server.handle("{\"type\":\"frobnicate\"}").status, "error");
  const Response bad_workload = server.handle(
      "{\"type\":\"eval\",\"id\":\"w\",\"workload\":\"NoSuchNet\"}");
  EXPECT_EQ(bad_workload.status, "error");
  EXPECT_EQ(bad_workload.id, "w");
  EXPECT_FALSE(bad_workload.error.empty());
  EXPECT_EQ(status_of(server).get_number("errors", -1), 3);
}

TEST(Server, MalformedLineCorpusAlwaysAnswersAnError) {
  // Every malformed NDJSON line — lax numbers, broken escapes, nesting
  // bombs, oversized documents — must come back as an error response
  // from the same process: the daemon survives arbitrary garbage.
  Server server(tiny_server_options());
  std::vector<std::string> corpus = {
      "{oops",
      "{\"a\":}",
      "{} trailing garbage",
      "\"unterminated",
      "\"bad escape \\q\"",
      "\"half escape \\",
      "\"short unicode \\u12\"",
      "{\"type\":\"eval\",\"batch\":+1}",
      "{\"type\":\"eval\",\"batch\":01}",
      "{\"type\":\"eval\",\"batch\":1.}",
      "{\"type\":\"eval\",\"batch\":.5}",
      "{\"type\":\"eval\",\"batch\":-}",
      "{\"type\":\"eval\",\"batch\":1e}",
      "{\"type\":\"eval\",\"batch\":1e999}",
      // Integers past their caps: an overflowing task count, conversions
      // of out-of-range doubles, a wait deadline past steady_clock's end.
      "{\"type\":\"eval\",\"workload\":\"tiny\",\"batch\":1e18}",
      "{\"type\":\"eval\",\"workload\":\"tiny\",\"batch\":1e300}",
      "{\"type\":\"eval\",\"workload\":\"tiny\",\"timeout_ms\":1e300}",
      "{\"type\":\"eval\",\"workload\":\"VGG-16/ImageNet\","
      "\"timeout_ms\":1e13}",
      "[1,2,]",
      "{\"a\":1,}",
      "nul",
      "tru",
      std::string(100000, '['),                      // nesting bomb
      "{\"pad\":\"" + std::string(1u << 21, 'x') + "\"}",  // > 1 MiB line
  };
  std::string stream;
  for (const std::string& line : corpus) stream += line + "\n";
  std::istringstream in(stream);
  std::ostringstream out;
  server.serve_stream(in, out);

  std::size_t errors = 0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Response r = serve::parse_response(line);
    if (r.type == "bye") continue;  // the drain's sign-off, not an answer
    EXPECT_EQ(r.status, "error") << line;
    EXPECT_FALSE(r.error.empty()) << line;
    ++errors;
  }
  EXPECT_EQ(errors, corpus.size());
  EXPECT_EQ(status_of(server).get_number("errors", -1),
            static_cast<double>(corpus.size()));

  // And the server still works afterwards.
  EXPECT_EQ(server.handle(kTinyEval).status, "ok");
}

TEST(Server, AdmissionRejectsWhenQueueFull) {
  ServerOptions opts = tiny_server_options();
  opts.max_queue = 0;
  Server server(opts);
  const Response r = server.handle(kTinyEval);
  EXPECT_EQ(r.status, "rejected");
  EXPECT_NE(r.error.find("queue full"), std::string::npos);
  EXPECT_EQ(status_of(server).get_number("rejected", -1), 1);
}

TEST(Server, TimeoutAnswersWithoutKillingTheEvaluation) {
  const std::string dir = fresh_dir("server_timeout");
  auto hold = std::make_shared<HoldPublication>();
  hold->hold();
  Server server(held_store_options(dir, hold));
  const Response timed_out = server.handle(
      "{\"type\":\"eval\",\"id\":\"t\",\"workload\":\"tiny\","
      "\"timeout_ms\":30}");
  EXPECT_EQ(timed_out.status, "timeout");
  EXPECT_EQ(status_of(server).get_number("timeouts", -1), 1);

  // The abandoned evaluation finishes in the background and publishes;
  // the retry is answered (from the in-flight entry or the store).
  hold->release();
  const Response retry = server.handle(kTinyEval);
  ASSERT_EQ(retry.status, "ok") << retry.error;
  EXPECT_TRUE(retry.source == "store" || retry.source == "coalesced");
  fs::remove_all(dir);
}

TEST(Server, IdenticalInflightRequestsCoalesce) {
  const std::string dir = fresh_dir("server_coalesce");
  auto hold = std::make_shared<HoldPublication>();
  hold->hold();
  Server server(held_store_options(dir, hold));

  Response a, b;
  std::thread owner([&]() { a = server.handle(kTinyEval); });
  hold->wait_blocked(1);  // the owner's evaluation is running
  std::thread waiter([&]() { b = server.handle(kTinyEval); });
  // Give the admitted waiter time to attach, then let the evaluation end.
  while (server.inflight() != 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hold->release();
  owner.join();
  waiter.join();

  ASSERT_EQ(a.status, "ok") << a.error;
  ASSERT_EQ(b.status, "ok") << b.error;
  EXPECT_EQ(a.source, "computed");
  EXPECT_EQ(b.source, "coalesced");
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  const JsonValue c = status_of(server);
  EXPECT_EQ(c.get_number("computed", -1), 1);
  EXPECT_EQ(c.get_number("coalesced", -1), 1);
  fs::remove_all(dir);
}

TEST(Server, BurstsOfTwinsStartExactlyOneEvaluation) {
  // Eight identical requests released together on one held evaluation:
  // the find-or-start is one critical section, so exactly one of them
  // owns the evaluation and seven attach to it, in every burst.
  constexpr int kBursts = 50;
  constexpr int kTwins = 8;
  const std::string dir = fresh_dir("server_burst");
  auto hold = std::make_shared<HoldPublication>();
  Server server(held_store_options(dir, hold));
  for (int burst = 0; burst < kBursts; ++burst) {
    Request req;
    req.type = "eval";
    req.workload = "tiny";
    req.p = 0.3 + 0.01 * burst;  // a fresh fingerprint per burst
    const std::string line = serve::format_request(req);
    hold->hold();
    std::vector<Response> got(kTwins);
    std::latch go(kTwins + 1);
    std::vector<std::thread> twins;
    for (int t = 0; t < kTwins; ++t) {
      twins.emplace_back([&, t]() {
        go.arrive_and_wait();
        got[t] = server.handle(line);
      });
    }
    go.arrive_and_wait();
    hold->wait_blocked(1);
    // All admitted; give the last of them time to attach.
    while (server.inflight() != kTwins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hold->release();
    for (std::thread& t : twins) t.join();

    int computed = 0;
    int coalesced = 0;
    for (const Response& r : got) {
      ASSERT_EQ(r.status, "ok") << r.error;
      computed += r.source == "computed";
      coalesced += r.source == "coalesced";
    }
    EXPECT_EQ(computed, 1) << "burst " << burst;
    EXPECT_EQ(coalesced, kTwins - 1) << "burst " << burst;
  }
  fs::remove_all(dir);
}

TEST(Server, ShutdownDrainsATimedOutEvaluationBeforeBye) {
  const std::string dir = fresh_dir("server_drain");
  auto hold = std::make_shared<HoldPublication>();
  hold->hold();
  Server server(held_store_options(dir, hold));
  const std::string line =
      "{\"type\":\"eval\",\"id\":\"t\",\"workload\":\"tiny\","
      "\"timeout_ms\":30}";
  EXPECT_EQ(server.handle(line).status, "timeout");
  const Request req = serve::parse_request(line);
  const workload::NetworkConfig net = serve::request_network(req);
  const std::uint64_t fp = server.session().run_fingerprint(
      net, serve::request_profile(net, req), req.backend,
      serve::request_job_options(req));

  std::atomic<bool> answered{false};
  Response bye;
  std::thread shutdown([&]() {
    bye = server.handle("{\"type\":\"shutdown\",\"id\":\"z\"}");
    answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(answered.load()) << "bye before the evaluation published";
  hold->release();
  shutdown.join();
  EXPECT_EQ(bye.type, "bye");
  EXPECT_EQ(bye.id, "z");

  serve::ResultStore reopened(dir);
  sim::SimReport report;
  EXPECT_TRUE(reopened.get_result(fp, report));
  fs::remove_all(dir);
}

TEST(Server, GivenSessionStoreServesRepeatsAndPuts) {
  // Without store_dir the caller's session store is the daemon's store.
  const std::string dir = fresh_dir("server_given_store");
  ServerOptions opts = tiny_server_options();
  opts.session.store = std::make_shared<serve::ResultStore>(dir);
  Server server(opts);
  EXPECT_EQ(server.session().result_store(), opts.session.store);

  Request eval = serve::parse_request(kTinyEval);
  eval.include_report = true;
  const Response first = server.handle(serve::format_request(eval));
  ASSERT_EQ(first.status, "ok") << first.error;
  EXPECT_EQ(first.source, "computed");
  const Response repeat = server.handle(kTinyEval);
  ASSERT_EQ(repeat.status, "ok") << repeat.error;
  EXPECT_EQ(repeat.source, "store");

  Request put;
  put.type = "put";
  put.fingerprint = first.fingerprint + 1;
  put.report_hex = first.report_hex;
  const Response accepted = server.handle(serve::format_request(put));
  EXPECT_EQ(accepted.status, "ok") << accepted.error;
  EXPECT_EQ(accepted.source, "replicated");
  fs::remove_all(dir);
}

TEST(Server, StatsAndStatusRequests) {
  const std::string dir = fresh_dir("server_stats");
  Server server(tiny_server_options(dir));
  ASSERT_EQ(server.handle(kTinyEval).status, "ok");

  const Response stats = server.handle("{\"type\":\"stats\",\"id\":\"s\"}");
  EXPECT_EQ(stats.type, "stats");
  EXPECT_EQ(stats.status, "ok");
  EXPECT_NE(stats.payload_json.find("sparsetrain.store_stats/v3"),
            std::string::npos);
  EXPECT_NE(stats.payload_json.find("\"store_attached\": true"),
            std::string::npos);
  // The payload is itself valid JSON (NDJSON-safe single line).
  EXPECT_EQ(stats.payload_json.find('\n'), std::string::npos);
  EXPECT_NO_THROW(serve::parse_json(stats.payload_json));

  const Response status = server.handle("{\"type\":\"status\"}");
  EXPECT_EQ(status.type, "status");
  const JsonValue payload = serve::parse_json(status.payload_json);
  EXPECT_EQ(payload.get_number("completed", -1), 1);
  EXPECT_EQ(payload.get_number("inflight", -1), 0);
  fs::remove_all(dir);
}

/// The engine_stage_seconds histograms in the server's `metrics` payload.
std::vector<JsonValue> engine_stage_histograms(Server& server) {
  const JsonValue payload = serve::parse_json(
      server.handle("{\"type\":\"metrics\",\"id\":\"m\"}").payload_json);
  std::vector<JsonValue> out;
  for (const JsonValue& m : payload.find("metrics")->as_array()) {
    if (m.get_string("name", "") == "engine_stage_seconds") out.push_back(m);
  }
  return out;
}

TEST(Server, ProfileEngineSettingRecordsExactStageProfiles) {
  constexpr const char* kExactEval =
      "{\"type\":\"eval\",\"id\":\"x\",\"workload\":\"tiny\","
      "\"engine\":\"exact\"}";
  ServerOptions opts = tiny_server_options();
  opts.session.profile_engine = true;
  Server profiled(opts);
  const Response r = profiled.handle(kExactEval);
  ASSERT_EQ(r.status, "ok") << r.error;
  double observations = 0;
  for (const JsonValue& h : engine_stage_histograms(profiled)) {
    observations += h.get_number("count", 0);
  }
  EXPECT_GT(observations, 0);

  Server plain(tiny_server_options());
  const Response q = plain.handle(kExactEval);
  ASSERT_EQ(q.status, "ok") << q.error;
  EXPECT_TRUE(engine_stage_histograms(plain).empty());
}

TEST(Server, StreamLoopDrainsAndAnswersBye) {
  const std::string dir = fresh_dir("server_stream");
  Server server(tiny_server_options(dir));

  std::istringstream in(
      std::string(kTinyEval) + "\n" +
      "{\"type\":\"eval\",\"id\":\"r2\",\"workload\":\"tiny\"}\n" +
      "this is not json\n" +
      "{\"type\":\"stats\",\"id\":\"s\"}\n" +
      "{\"type\":\"shutdown\",\"id\":\"z\"}\n" +
      "{\"type\":\"eval\",\"id\":\"after\",\"workload\":\"tiny\"}\n");
  std::ostringstream out;
  server.serve_stream(in, out);

  std::vector<Response> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    responses.push_back(serve::parse_response(line));
  }
  ASSERT_EQ(responses.size(), 5u) << out.str();

  // Answered one line at a time, in input order.
  EXPECT_EQ(responses[0].id, "r1");
  EXPECT_EQ(responses[0].status, "ok");
  EXPECT_EQ(responses[0].source, "computed");
  EXPECT_EQ(responses[1].id, "r2");
  EXPECT_EQ(responses[1].status, "ok");
  EXPECT_EQ(responses[1].source, "store");
  // The malformed line got an explicit error response (no id).
  EXPECT_EQ(responses[2].id, "");
  EXPECT_EQ(responses[2].status, "error");
  EXPECT_EQ(responses[3].type, "stats");
  // Shutdown drained and answered last, stamped like a socket's bye; the
  // request after it was never read.
  EXPECT_EQ(responses[4].type, "bye");
  EXPECT_EQ(responses[4].id, "z");
  EXPECT_GE(responses[4].elapsed_ms, 0.0);
  for (const Response& r : responses) EXPECT_NE(r.id, "after");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sparsetrain
