// Self-tests of the benchmark's own statistics and gates:
//
//   stbench_selftest <goldens.txt> <scratch-dir>
//
// Each check pins one rule the benchmark's numbers rest on: the
// percentile rule, latency from due time, span self time and
// reconciliation, seed-determinism of the request stream, the golden
// gate failing on a corrupted golden, and the CPU-time readings behind
// cpu_ms. Exits nonzero on any failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "serve/json.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace {

int g_checks = 0;
int g_failed = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const stbench::Tail t = stbench::tail(v);
  check(near(stbench::median(v), 500.5), "median of 1..1000");
  check(near(t.value, 990.0) && near(t.percentile, 99.0) && t.beyond == 10 &&
            t.samples == 1000,
        "1000 samples: tail is p99 = 990 with 10 beyond");

  std::vector<double> small;
  for (int i = 1; i <= 21; ++i) small.push_back(i);
  const stbench::Tail t21 = stbench::tail(small);
  check(near(t21.value, 11.0) && near(t21.percentile, 100.0 * 11 / 21) &&
            t21.beyond == 10,
        "21 samples: the median is the highest point with 10 beyond");
  small.pop_back();
  const stbench::Tail t20 = stbench::tail(small);
  check(near(t20.value, 20.0) && near(t20.percentile, 100.0) &&
            t20.beyond == 0 && t20.samples == 20,
        "20 samples: the rule would fall below the median, max reported");
  check(stbench::tail({}).samples == 0 && stbench::median({}) == 0.0,
        "empty input");

  std::vector<double> ties(30, 7.0);
  ties.push_back(100.0);
  check(near(stbench::tail(ties).value, 7.0), "ties below the tail");
}

void latency_from_due_time() {
  // One connection, a request every 10 ms, and a 100 ms stall on request
  // 1: every request queued behind the stall must be charged for it.
  const std::vector<double> due = {0.00, 0.01, 0.02, 0.03, 0.04};
  const auto out = stbench::run_open_loop(
      due, 1, [](std::size_t, std::size_t i) -> std::string {
        std::this_thread::sleep_for(std::chrono::milliseconds(i == 1 ? 100 : 1));
        return "{}";
      });
  check(out.size() == due.size(), "every request sent");
  check(out[0].latency_s() < 0.05, "request before the stall is fast");
  check(out[1].latency_s() >= 0.1, "stalled request");
  check(out[2].late_s() >= 0.08 && out[2].latency_s() >= 0.08,
        "request behind the stall counts the wait from its due time");
  check(out[4].late_s() >= 0.06, "lateness recorded for the last request");
  for (const auto& o : out) {
    check(near(o.latency_s(), o.done_s - o.due_s) && o.send_s >= o.due_s - 1e-3,
          "latency measured from due time, never sent early");
  }
}

stbench::SpanRec span(std::uint64_t id, std::uint64_t parent, const char* name,
                      int pid, std::int64_t start, std::int64_t dur) {
  stbench::SpanRec s;
  s.trace = 0xabc;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.process = pid == 1 ? "stbench" : pid == 2 ? "router" : "serve";
  s.pid = pid;
  s.start_us = start;
  s.dur_us = dur;
  return s;
}

void span_ledger() {
  // client (pid 1) -> router (pid 2) -> two shards (pids 3, 4).
  std::vector<stbench::SpanRec> tree = {
      span(1, 0, "client.request", 1, 0, 1000),
      span(2, 1, "router.request", 2, 50, 900),
      span(3, 2, "router.forward", 2, 100, 700),
      span(4, 3, "daemon.request", 3, 150, 600),
      span(5, 4, "store.lookup", 3, 200, 100),
      span(6, 2, "router.replicate", 2, 800, 150),
      span(7, 6, "daemon.put", 4, 810, 120),
  };
  const stbench::Ledger l = stbench::build_ledger(tree);
  check(l.connected, "three-process tree is connected");
  check(near(l.self_us.at("client.request"), 100) &&
            near(l.self_us.at("router.request"), 50) &&
            near(l.self_us.at("router.forward"), 100) &&
            near(l.self_us.at("daemon.request"), 500) &&
            near(l.self_us.at("store.lookup"), 100) &&
            near(l.self_us.at("router.replicate"), 30) &&
            near(l.self_us.at("daemon.put"), 120),
        "self time = duration minus direct children");
  double sum = 0.0;
  for (const auto& [name, us] : l.self_us) sum += us;
  check(near(sum, 1000.0) && near(l.residual_us, 0.0) &&
            stbench::reconciles(l, 1.0),
        "self times add up to the client latency");

  auto overrun = tree;
  overrun[3].dur_us = 800;  // shard reports more than the forward saw
  const stbench::Ledger bad = stbench::build_ledger(overrun);
  check(!stbench::reconciles(bad, 1.0) && bad.min_self_us < -99.0,
        "a child outlasting its parent is a negative remainder");

  // The router's forward span stays open across replication: a sibling
  // inside it is nested under it, so the forward's self time excludes it.
  auto open_forward = tree;
  open_forward[2].dur_us = 845;  // forward 100..945 now covers the replicate
  open_forward[5].start_us = 790;  // replicate 790..940
  open_forward[6].start_us = 795;
  const stbench::Ledger nested = stbench::build_ledger(open_forward);
  check(stbench::reconciles(nested, 1.0) &&
            near(nested.self_us.at("router.forward"), 845 - 600 - 150) &&
            near(nested.self_us.at("router.request"), 900 - 845),
        "a sibling inside the forward span is nested under it");

  auto orphan = tree;
  orphan[6].parent = 99;
  check(!stbench::build_ledger(orphan).connected, "an orphan span is caught");

  const stbench::SpanRec parsed = stbench::parse_span(
      "{\"trace\":\"0000000000000abc\",\"span\":\"0000000000000004\","
      "\"parent\":\"0000000000000003\",\"name\":\"daemon.request\","
      "\"process\":\"serve\",\"pid\":3,\"start_us\":1700000000000150,"
      "\"dur_us\":600,\"attrs\":{\"id\":\"t7\",\"status\":\"ok\"}}");
  check(parsed.trace == 0xabc && parsed.id == 4 && parsed.parent == 3 &&
            parsed.start_us == 1700000000000150 && parsed.dur_us == 600 &&
            parsed.attrs.at("id") == "t7",
        "span log line round trip");
}

void chrome_trace(const std::string& dir) {
  const std::string path = dir + "/selftest.trace.json";
  std::vector<stbench::SpanRec> spans = {span(1, 0, "client.request", 1, 0, 10),
                                         span(2, 1, "router.request", 2, 1, 8),
                                         span(3, 2, "daemon.request", 3, 2, 6)};
  stbench::write_chrome_trace(path, spans);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = sparsetrain::serve::parse_json(text.str());
  // One process_name record per process, a begin and an end per span.
  check(doc.find("traceEvents")->as_array().size() == 3 + 2 * spans.size(),
        "chrome trace: one track per process, two events per span");
}

void stream_is_a_function_of_the_seed() {
  stbench::MixSpec spec;
  spec.rate = 200.0;
  spec.open_s = 20.0;
  spec.closed_items = 500;
  const stbench::MixPlan a = stbench::make_plan(42, spec);
  const stbench::MixPlan b = stbench::make_plan(42, spec);
  const stbench::MixPlan c = stbench::make_plan(43, spec);
  check(a.keys == b.keys && a.open == b.open && a.closed == b.closed,
        "same seed, same schedule and keys");
  check(!(a.keys == c.keys) && !(a.open == c.open), "another seed differs");
  std::size_t counts[3] = {0, 0, 0};
  for (const stbench::Item& it : a.open) ++counts[static_cast<int>(it.cls)];
  check(a.open.size() == 4000 && counts[0] == 3200 && counts[1] == 720 &&
            counts[2] == 80,
        "every 50-request block holds the 80/18/2 hot/cold/malformed mix");
  bool spaced = true;
  for (std::size_t i = 0; i < a.open.size(); ++i) {
    spaced = spaced && near(a.open[i].due_s, i / 200.0);
  }
  check(spaced, "requests are due every 1/rate seconds");
  const auto zoo = sparsetrain::workload::workload_names();
  std::map<std::string, int> hot_per, cold_per;
  for (std::size_t i = 0; i < a.keys.size(); ++i) {
    ++(i < a.hot ? hot_per : cold_per)[a.keys[i].workload];
  }
  bool even = hot_per.size() == zoo.size();
  for (const auto& w : zoo) {
    even = even && hot_per[w] == 3 &&
           std::abs(cold_per[w] - cold_per[zoo[0]]) <= 1;
  }
  check(even, "hot and cold keys cover every zoo workload evenly");
  bool distinct = true;
  for (std::size_t i = 0; i < a.keys.size() && distinct; ++i) {
    for (std::size_t j = i + 1; j < a.keys.size(); ++j) {
      if (a.keys[i] == a.keys[j]) {
        distinct = false;
        break;
      }
    }
  }
  check(distinct, "hot and cold keys are all distinct");
  stbench::Item m;
  m.cls = stbench::Cls::Malformed;
  m.key = 0;
  check(stbench::request_line(a, m, "x") == stbench::malformed_corpus()[0],
        "malformed items send corpus lines");
}

void corrupted_golden_fails(const std::string& golden_path) {
  const stbench::Golden golden = stbench::read_golden(golden_path);
  sparsetrain::core::SessionConfig cfg;
  cfg.workers = 2;
  sparsetrain::core::Session session(cfg);
  const auto net = sparsetrain::workload::find_workload("ResNet-18/CIFAR").net;
  sparsetrain::core::Session::JobOptions opts;
  opts.sim.engine = sparsetrain::isa::EngineKind::Exact;
  opts.sim.exact.workers = 2;
  const auto r = session.evaluate(
      net, sparsetrain::workload::SparsityProfile::pruned(net, 0.9),
      {sparsetrain::core::Session::kSparseBackend}, opts);
  stbench::Golden obs;
  stbench::observe_report(obs, net.name, r.runs.front().report);
  const std::string prefix = "exact." + net.name + ".run.";
  check(stbench::golden_mismatches(golden, obs, prefix).empty(),
        "ResNet-18/CIFAR exact run matches its golden");

  stbench::Golden corrupted = golden;
  std::string& cycles = corrupted.at(prefix + "total_cycles");
  cycles = std::to_string(std::stoull(cycles) + 1);
  check(stbench::golden_mismatches(corrupted, obs, prefix).size() == 1,
        "a corrupted golden is exactly one failed check");
  stbench::Golden missing = obs;
  missing.erase(prefix + "total_cycles");
  check(stbench::golden_mismatches(golden, missing, prefix).size() == 1,
        "an output missing from the run is a failed check");
}

/// cpu_ms rests on these two readings: a child's CPU time from /proc and
/// this process's own from getrusage.
void cpu_accounting(const std::string& dir) {
  stbench::Daemon spin({"/bin/sh", "-c", "while :; do :; done"},
                       dir + "/spin.log");
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const double child = spin.cpu_s();
  spin.stop();
  std::remove((dir + "/spin.log").c_str());
  check(child > 0.05 && child < 0.6, "a busy child's CPU time is read");
  check(spin.cpu_s() == 0.0, "a stopped child reads no CPU time");
  const double cpu0 = stbench::self_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(200)) {
    sink = sink + 1.0;
  }
  const double own = stbench::self_cpu_s() - cpu0;
  check(own > 0.05 && own < 0.5, "this process's CPU time is read");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: stbench_selftest <goldens.txt> <scratch-dir>\n");
    return 2;
  }
  try {
    percentile_rule();
    latency_from_due_time();
    span_ledger();
    chrome_trace(argv[2]);
    stream_is_a_function_of_the_seed();
    corrupted_golden_fails(argv[1]);
    cpu_accounting(argv[2]);
  } catch (const std::exception& e) {
    std::printf("FAIL: exception: %s\n", e.what());
    ++g_failed;
  }
  std::printf("%d checks, %d failed\n", g_checks, g_failed);
  return g_failed == 0 ? 0 : 1;
}
