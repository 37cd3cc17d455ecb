// stbench — the program that measures the repository benchmark. See
// README.md in this directory for the workloads, the metric catalogue and
// how the traced run attributes time to layers.
//
//   stbench --workload serve_mix|exact_program|dse_grid --seed N
//           --seconds S --trace 0|1 --tools DIR --golden FILE --out DIR
//           [--commit ID]
//   stbench --print-golden        (regenerates goldens.txt on stdout)
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Details (provenance, the percentile behind each tail and
// its sample count, the first failures) go to <out>/<workload>-seed<N>-
// trace<T>.json. Exit status 0 only when every output was correct.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "dataflow/row_ops.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "isa/instruction.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "util/args.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

#ifndef STBENCH_BUILD_TYPE
#define STBENCH_BUILD_TYPE ""
#endif
#ifndef STBENCH_SANITIZE
#define STBENCH_SANITIZE ""
#endif

namespace fs = std::filesystem;
namespace st = sparsetrain;
using stbench::Golden;
using stbench::median;
using stbench::SpanRec;
using stbench::Tail;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t unix_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Metric catalogue (mirrors BENCHMARK.json). Every run prints every metric
// of its mode; a per-layer metric of a layer the workload bypasses is 0.

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"cpu_ms", "ms"},
  };
  return defs;
}

const char* const kPrograms[][2] = {{"AlexNet/ImageNet", "alexnet_imagenet"},
                                    {"ResNet-18/CIFAR", "resnet18_cifar"}};
const char* const kEngineStages[] = {"forward", "gta", "gtw", "fc"};

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"router.self_ms", "ms"},
        {"router.forward_wait_ms", "ms"},
        {"router.replicate_ms", "ms"},
        {"router.replicate_share_hot", "share"},
        {"router.replications", "count"},
        {"router.failovers", "count"},
        {"daemon.self_ms", "ms"},
        {"daemon.queue_ms", "ms"},
        {"daemon.put_ms", "ms"},
        {"serve.coalesced_share", "share"},
        {"store.lookup_ms", "ms"},
        {"store.hit_ratio_hot", "share"},
        {"store.publish_ms", "ms"},
        {"serve.compile_ms", "ms"},
        {"serve.compiles", "count"},
        {"serve.simulate_p50_ms", "ms"},
        {"serve.simulate_tail_ms", "ms"},
        {"serve.unattributed_ms", "ms"},
        {"loadgen.late_p50_ms", "ms"},
        {"loadgen.late_tail_ms", "ms"},
        {"serve.hot_p50_ms", "ms"},
        {"serve.hot_tail_ms", "ms"},
        {"serve.cold_p50_ms", "ms"},
        {"serve.cold_tail_ms", "ms"},
        {"serve.capacity_rps", "1/s"},
    };
    for (const auto& prog : kPrograms) {
      const std::string p = std::string("exact.") + prog[1] + ".";
      for (const char* s : kEngineStages) d.push_back({p + s + "_s", "s"});
      for (const char* s : kEngineStages) {
        d.push_back({p + s + "_mrows_per_s", "Mrow/s"});
      }
      d.push_back({p + "compile_s", "s"});
      d.push_back({p + "unattributed_s", "s"});
      d.push_back({p + "parallel_efficiency", "share"});
    }
    d.push_back({"exact.alexnet_imagenet_s", "s"});
    d.push_back({"exact.resnet18_cifar_s", "s"});
    for (const MetricDef& m : std::vector<MetricDef>{
             {"dse.evals_per_s", "1/s"},
             {"dse.simulate_ms", "ms"},
             {"dse.compile_busy_s", "s"},
             {"dse.cache_hit_ratio", "share"},
             {"dse.pool_efficiency", "share"},
             {"dse.pareto_s", "s"},
             {"dse.unattributed_s", "s"},
             {"trace_overhead", "ratio"},
             {"fail_share", "share"},
             {"ledger.unreconciled", "count"},
             {"ledger.min_self_ms", "ms"},
         }) {
      d.push_back(m);
    }
    return d;
  }();
  return defs;
}

// ---------------------------------------------------------------------------
// Run state shared by the workloads.

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tools;
  std::string golden_path;
  std::string out;
  std::string run_dir;  ///< per-invocation scratch (stores, span logs)
  std::string commit;
  std::size_t nproc = 1;
  std::size_t workers = 1;  ///< min(4, nproc)
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool invalid = false;  ///< a validity check (not an output) failed
  std::vector<std::string> failures;  ///< first few, for the details file
  std::map<std::string, double> metrics;
  /// Extra facts for the details file: tails' percentiles and counts,
  /// rates, worker counts.
  std::map<std::string, double> details;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  void tail_detail(const std::string& name, const Tail& t) {
    details[name] = t.value;
    details[name + ".percentile"] = t.percentile;
    details[name + ".samples"] = static_cast<double>(t.samples);
    details[name + ".beyond"] = static_cast<double>(t.beyond);
  }
};

double ms(double s) { return s * 1e3; }

std::string exact_text_int(double v) {
  return std::to_string(static_cast<long long>(std::llround(v)));
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out;
  out.reserve(v.size());
  for (double x : v) out.push_back(x * k);
  return out;
}

/// Runs `body` `reps` times and returns the median duration; the last
/// repetition's state is kept by the caller.
template <typename F>
double median_setup(int reps, F&& body) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    body();
    t.push_back(since(t0));
  }
  return median(t);
}

/// Complete set-ups per run behind the reported setup_s median: five
/// where a set-up takes well under a second, three for the DSE grid,
/// whose set-up includes a full warm-up sweep.
constexpr int kSetupReps = 5;
constexpr int kDseSetupReps = 3;

/// A traced run reports no setup_s, so it sets up once.
int setup_reps(const Ctx& ctx, int reps) { return ctx.trace ? 1 : reps; }

// ---------------------------------------------------------------------------
// The golden gate.

void gate(Result& res, const Golden& golden, const Golden& obs,
          const std::string& prefix) {
  const std::vector<std::string> bad =
      stbench::golden_mismatches(golden, obs, prefix);
  res.check(bad.empty(), bad.empty() ? "" : prefix + ": " + bad.front());
}

// Registry readings the in-process workloads take around a pass.
struct EngineSnap {
  std::map<std::string, double> stage_s;
  std::map<std::string, double> stage_rows;
  std::map<std::string, double> stage_tasks;
  double simulate_s = 0.0;
  double compile_s = 0.0;
  double simulate_n = 0.0;
};

EngineSnap snap(st::obs::Registry& reg) {
  EngineSnap s;
  for (const char* stage : kEngineStages) {
    const st::obs::Labels l = {{"stage", stage}};
    s.stage_s[stage] = reg.histogram("engine_stage_seconds", l).sum_seconds();
    s.stage_rows[stage] = static_cast<double>(
        reg.counter("engine_stage_row_ops_total", l).value());
    s.stage_tasks[stage] = static_cast<double>(
        reg.counter("engine_stage_tasks_total", l).value());
  }
  st::obs::Histogram& sim = reg.histogram("session_simulate_seconds");
  s.simulate_s = sim.sum_seconds();
  s.simulate_n = static_cast<double>(sim.count());
  s.compile_s = reg.histogram("session_compile_seconds").sum_seconds();
  return s;
}

EngineSnap operator-(const EngineSnap& a, const EngineSnap& b) {
  EngineSnap d = a;
  for (auto& [k, v] : d.stage_s) v -= b.stage_s.at(k);
  for (auto& [k, v] : d.stage_rows) v -= b.stage_rows.at(k);
  for (auto& [k, v] : d.stage_tasks) v -= b.stage_tasks.at(k);
  d.simulate_s -= b.simulate_s;
  d.simulate_n -= b.simulate_n;
  d.compile_s -= b.compile_s;
  return d;
}

/// A span the benchmark records around one of its own calls.
SpanRec own_span(const std::string& name, std::int64_t start_us,
                 double seconds, std::uint64_t trace) {
  SpanRec s;
  s.trace = trace;
  s.id = trace;
  s.name = name;
  s.process = "stbench";
  s.pid = static_cast<int>(::getpid());
  s.start_us = start_us;
  s.dur_us = static_cast<std::int64_t>(std::llround(seconds * 1e6));
  return s;
}

// ---------------------------------------------------------------------------
// exact_program

struct ExactProgram {
  std::string zoo_name;
  std::string key;
  st::workload::NetworkConfig net;
  st::workload::SparsityProfile profile;
};

std::vector<ExactProgram> exact_programs() {
  std::vector<ExactProgram> out;
  for (const auto& prog : kPrograms) {
    st::workload::NetworkConfig net = st::workload::find_workload(prog[0]).net;
    st::workload::SparsityProfile profile =
        st::workload::SparsityProfile::pruned(net, 0.9);
    out.push_back({prog[0], prog[1], std::move(net), std::move(profile)});
  }
  return out;
}

st::core::Session::JobOptions exact_options(std::size_t workers) {
  st::core::Session::JobOptions o;
  o.sim.engine = st::isa::EngineKind::Exact;
  o.sim.exact.workers = workers;
  return o;
}

/// Timed whole-program simulations: rounds of one AlexNet/ImageNet and
/// four ResNet-18/CIFAR runs (enough ResNet samples for a stable median)
/// until `seconds` pass. Every report is checked against the goldens.
/// With a registry, each run's session_simulate_seconds delta is kept.
struct ExactTimes {
  std::map<std::string, std::vector<double>> wall_s;      ///< by program key
  std::map<std::string, std::vector<double>> cpu_s;       ///< all threads
  std::map<std::string, std::vector<double>> simulate_s;  ///< registry only
  std::vector<double> round_rate;  ///< simulations per second, per round
  std::size_t runs = 0;
  std::vector<SpanRec> spans;
};

ExactTimes exact_loop(st::core::Session& session,
                      const std::vector<ExactProgram>& progs,
                      std::size_t workers, double seconds, const Golden& golden,
                      Result& res, st::obs::Registry* reg) {
  ExactTimes t;
  const auto opts = exact_options(workers);
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < seconds) {
    const Clock::time_point round0 = Clock::now();
    const std::size_t runs0 = t.runs;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      for (int r = 0; r < (i == 0 ? 1 : 4); ++r) {
        const EngineSnap before = reg ? snap(*reg) : EngineSnap{};
        const std::int64_t start = unix_us();
        const double cpu0 = stbench::self_cpu_s();
        const Clock::time_point c0 = Clock::now();
        const st::core::EvalResult er =
            session.evaluate(progs[i].net, progs[i].profile,
                             {st::core::Session::kSparseBackend}, opts);
        const double s = since(c0);
        t.cpu_s[progs[i].key].push_back(stbench::self_cpu_s() - cpu0);
        t.wall_s[progs[i].key].push_back(s);
        ++t.runs;
        SpanRec span = own_span("Session::evaluate", start, s, t.runs);
        span.attrs["program"] = progs[i].zoo_name;
        t.spans.push_back(span);
        if (reg) {
          t.simulate_s[progs[i].key].push_back((snap(*reg) - before).simulate_s);
        }
        Golden obs;
        stbench::observe_report(obs, progs[i].zoo_name, er.runs.front().report);
        gate(res, golden, obs, "exact." + progs[i].zoo_name + ".run.");
      }
    }
    t.round_rate.push_back(static_cast<double>(t.runs - runs0) / since(round0));
  }
  return t;
}

void run_exact_program(const Ctx& ctx, const Golden& golden, Result& res) {
  const std::vector<ExactProgram> progs = exact_programs();
  const auto warm_up = [&](st::core::Session& s) {
    for (const ExactProgram& p : progs) {
      s.evaluate(p.net, p.profile, {st::core::Session::kSparseBackend},
                 exact_options(ctx.workers));
    }
  };
  st::core::SessionConfig cfg;
  cfg.workers = ctx.workers;
  std::unique_ptr<st::core::Session> session;
  const double setup_s = median_setup(setup_reps(ctx, kSetupReps), [&] {
    session = std::make_unique<st::core::Session>(cfg);
    warm_up(*session);
  });
  const double untraced_s = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  ExactTimes plain = exact_loop(*session, progs, ctx.workers, untraced_s,
                                golden, res, nullptr);
  session.reset();
  const std::vector<double>& alexnet = plain.wall_s["alexnet_imagenet"];
  const std::vector<double>& resnet = plain.wall_s["resnet18_cifar"];
  res.details["alexnet_imagenet.samples"] = static_cast<double>(alexnet.size());
  res.details["resnet18_cifar.samples"] = static_cast<double>(resnet.size());
  res.details["exact.alexnet_imagenet_s"] = median(alexnet);
  res.details["exact.resnet18_cifar_s"] = median(resnet);
  res.details["exact.alexnet_imagenet.cpu_ms"] =
      ms(median(plain.cpu_s["alexnet_imagenet"]));
  res.details["exact.resnet18_cifar.cpu_ms"] =
      ms(median(plain.cpu_s["resnet18_cifar"]));
  res.details["exact.simulations_per_s"] = median(plain.round_rate);
  res.tail_detail("exact.alexnet_imagenet_tail_ms",
                  stbench::tail(scaled(alexnet, 1e3)));
  if (!ctx.trace) {
    res.metrics["setup_s"] = setup_s;
    res.metrics["peak_rss_mb"] = stbench::self_peak_rss_mb();
    res.metrics["cpu_ms"] = res.details["exact.alexnet_imagenet.cpu_ms"];
    return;
  }

  // Traced: the same session shape with the registry and the engine
  // profiler on. The warm-up pass compiles each program once (that is
  // the compile_s reading); a serial pass per program then yields stage
  // times that must add up to the simulate wall time.
  st::obs::Registry reg;
  cfg.metrics = &reg;
  cfg.profile_engine = true;
  st::core::Session traced(cfg);
  std::map<std::string, double> compile_s;
  for (const ExactProgram& p : progs) {
    const EngineSnap before = snap(reg);
    traced.evaluate(p.net, p.profile, {st::core::Session::kSparseBackend},
                    exact_options(ctx.workers));
    compile_s[p.key] = (snap(reg) - before).compile_s;
  }
  ExactTimes tr = exact_loop(traced, progs, ctx.workers, ctx.seconds / 2,
                             golden, res, &reg);
  std::vector<SpanRec>& spans = tr.spans;
  double min_self = 0.0;
  bool first = true;
  for (const ExactProgram& p : progs) {
    const EngineSnap before = snap(reg);
    const std::int64_t start = unix_us();
    const Clock::time_point c0 = Clock::now();
    traced.evaluate(p.net, p.profile, {st::core::Session::kSparseBackend},
                    exact_options(1));
    SpanRec span = own_span("Session::evaluate serial", start, since(c0),
                            spans.size() + 1);
    span.attrs["program"] = p.zoo_name;
    spans.push_back(span);
    const EngineSnap d = snap(reg) - before;
    const std::string pre = "exact." + p.key + ".";
    double stage_sum = 0.0;
    Golden obs;
    for (const char* stage : kEngineStages) {
      const double s = d.stage_s.at(stage);
      stage_sum += s;
      res.metrics[pre + stage + "_s"] = s;
      res.metrics[pre + stage + "_mrows_per_s"] =
          s > 0.0 ? d.stage_rows.at(stage) / s / 1e6 : 0.0;
      const std::string g = "exact." + p.zoo_name + ".profile." + stage;
      obs[g + ".tasks"] = exact_text_int(d.stage_tasks.at(stage));
      obs[g + ".row_ops"] = exact_text_int(d.stage_rows.at(stage));
    }
    gate(res, golden, obs, "exact." + p.zoo_name + ".profile.");
    const double unattributed = d.simulate_s - stage_sum;
    res.metrics[pre + "compile_s"] = compile_s[p.key];
    res.metrics[pre + "unattributed_s"] = unattributed;
    res.metrics[pre + "parallel_efficiency"] =
        stage_sum /
        (median(tr.simulate_s[p.key]) * static_cast<double>(ctx.workers));
    // Stage times plus the remainder equal the simulate wall time by
    // construction; the remainder going negative means a stage clock
    // overlapped time the simulate phase did not see.
    if (unattributed < -1e-6) res.metrics["ledger.unreconciled"] += 1;
    min_self = first ? unattributed : std::min(min_self, unattributed);
    first = false;
  }
  res.metrics["ledger.min_self_ms"] = ms(min_self);
  res.metrics["exact.alexnet_imagenet_s"] = median(alexnet);
  res.metrics["exact.resnet18_cifar_s"] = median(resnet);
  res.metrics["trace_overhead"] =
      median(tr.wall_s["alexnet_imagenet"]) / median(alexnet);
  stbench::write_chrome_trace(
      ctx.out + "/exact_program-seed" + std::to_string(ctx.seed) +
          ".trace.json",
      spans);
}

// ---------------------------------------------------------------------------
// dse_grid

st::dse::SpaceSpec dse_space() {
  // The committed 252-architecture grid of bench/bench_dse_pareto.
  st::dse::SpaceSpec space;
  space.pe_groups = {14, 28, 42, 56, 84, 112, 168};
  space.pes_per_group = {2, 3, 4};
  space.buffer_bytes = {96 * 1024, 192 * 1024, 386 * 1024, 772 * 1024};
  space.clock_ghz = {0.6, 0.8, 1.0};
  space.scenarios = {st::dse::Scenario::pruned(0.9)};
  return space;
}

std::vector<st::workload::NetworkConfig> dse_workloads() {
  return {st::workload::find_workload("AlexNet/CIFAR").net,
          st::workload::find_workload("ResNet-18/ImageNet").net};
}

struct Sweeps {
  std::vector<double> wall_s, evals_per_s, cpu_per_eval_ms, pareto_s,
      simulate_ms, compile_busy_s, pool_eff, unattributed_s;
  std::vector<SpanRec> spans;
  /// Peak RSS after the first timed sweep. The Session keeps every
  /// sweep's jobs, so the process grows by about 3 MB per sweep and a
  /// later reading would count how many sweeps the host fitted in.
  double peak_rss_mb = 0.0;
};

Sweeps dse_loop(st::core::Session& session, st::obs::Registry* reg,
                std::size_t workers, double seconds, const Golden& golden,
                Result& res) {
  Sweeps out;
  st::dse::Explorer explorer(session);
  const st::dse::SpaceSpec space = dse_space();
  const auto nets = dse_workloads();
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < seconds) {
    const EngineSnap before = reg ? snap(*reg) : EngineSnap{};
    const std::int64_t start = unix_us();
    const double cpu0 = stbench::self_cpu_s();
    const Clock::time_point c0 = Clock::now();
    const st::dse::ExploreResult r = explorer.explore(space, nets);
    const double wall = since(c0);
    const double cpu = stbench::self_cpu_s() - cpu0;
    if (out.wall_s.empty()) out.peak_rss_mb = stbench::self_peak_rss_mb();
    out.wall_s.push_back(wall);
    out.evals_per_s.push_back(static_cast<double>(r.evaluations) / wall);
    out.cpu_per_eval_ms.push_back(ms(cpu) / static_cast<double>(r.evaluations));
    Golden obs;
    stbench::observe_frontier(obs, r);
    gate(res, golden, obs, "dse.sweep.");
    if (reg == nullptr) continue;
    const std::uint64_t trace = 2 * out.wall_s.size();
    out.spans.push_back(own_span("Explorer::explore", start, wall, trace));
    const EngineSnap d = snap(*reg) - before;
    std::vector<st::dse::Objectives> objs;
    for (const st::dse::PointResult& p : r.points) objs.push_back(p.objectives);
    const std::int64_t pstart = unix_us();
    const Clock::time_point p0 = Clock::now();
    const std::vector<std::size_t> ranks = st::dse::pareto_ranks(objs);
    const double pareto = since(p0);
    std::size_t front = 0;
    for (std::size_t rank : ranks) front += rank == 0 ? 1 : 0;
    res.check(front == r.frontier.size(), "pareto_ranks front size");
    out.spans.push_back(own_span("pareto_ranks", pstart, pareto, trace + 1));
    out.pareto_s.push_back(pareto);
    out.simulate_ms.push_back(d.simulate_n > 0 ? ms(d.simulate_s / d.simulate_n)
                                               : 0.0);
    out.compile_busy_s.push_back(d.compile_s);
    const double busy = d.simulate_s + d.compile_s;
    out.pool_eff.push_back(busy / (wall * static_cast<double>(workers)));
    out.unattributed_s.push_back(wall - busy / static_cast<double>(workers));
  }
  return out;
}

void run_dse_grid(const Ctx& ctx, const Golden& golden, Result& res) {
  st::core::SessionConfig cfg;
  cfg.workers = ctx.workers;
  std::unique_ptr<st::core::Session> session;
  // The warm-up sweep of a fresh session is the one that compiles: its
  // cache misses are the golden 2-compile count.
  const auto warm = [&](st::core::Session& s) {
    st::dse::Explorer ex(s);
    const st::dse::ExploreResult r = ex.explore(dse_space(), dse_workloads());
    Golden obs;
    obs["dse.warm.compiles"] = std::to_string(r.cache.misses);
    obs["dse.warm.lookups"] = std::to_string(r.cache.lookups());
    gate(res, golden, obs, "dse.warm.");
    return r;
  };
  const double setup_s = median_setup(setup_reps(ctx, kDseSetupReps), [&] {
    session = std::make_unique<st::core::Session>(cfg);
    warm(*session);
  });
  const double untraced_s = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const Sweeps plain =
      dse_loop(*session, nullptr, ctx.workers, untraced_s, golden, res);
  session.reset();
  res.details["dse.sweeps"] = static_cast<double>(plain.wall_s.size());
  res.details["dse.sweep_s"] = median(plain.wall_s);
  res.details["dse.evals_per_s"] = median(plain.evals_per_s);
  res.details["dse.cpu_ms_per_eval"] = median(plain.cpu_per_eval_ms);
  res.tail_detail("dse.sweep_tail_ms", stbench::tail(scaled(plain.wall_s, 1e3)));
  if (!ctx.trace) {
    res.metrics["setup_s"] = setup_s;
    res.metrics["peak_rss_mb"] = plain.peak_rss_mb;
    res.metrics["cpu_ms"] = res.details["dse.cpu_ms_per_eval"];
    return;
  }
  st::obs::Registry reg;
  cfg.metrics = &reg;
  st::core::Session traced(cfg);
  const st::dse::ExploreResult first = warm(traced);
  const Sweeps tr = dse_loop(traced, &reg, ctx.workers, ctx.seconds / 2,
                             golden, res);
  res.metrics["dse.evals_per_s"] = median(plain.evals_per_s);
  res.metrics["dse.simulate_ms"] = median(tr.simulate_ms);
  res.metrics["dse.compile_busy_s"] = median(tr.compile_busy_s);
  res.metrics["dse.cache_hit_ratio"] = first.cache_hit_rate();
  res.metrics["dse.pool_efficiency"] = median(tr.pool_eff);
  res.metrics["dse.pareto_s"] = median(tr.pareto_s);
  res.metrics["dse.unattributed_s"] = median(tr.unattributed_s);
  res.metrics["trace_overhead"] = median(tr.wall_s) / median(plain.wall_s);
  double min_unattr = tr.unattributed_s.empty() ? 0.0 : tr.unattributed_s[0];
  for (double u : tr.unattributed_s) {
    min_unattr = std::min(min_unattr, u);
    if (u < -1e-6) res.metrics["ledger.unreconciled"] += 1;
  }
  res.metrics["ledger.min_self_ms"] = ms(min_unattr);
  stbench::write_chrome_trace(
      ctx.out + "/dse_grid-seed" + std::to_string(ctx.seed) + ".trace.json",
      tr.spans);
}

// ---------------------------------------------------------------------------
// serve_mix

constexpr std::size_t kShards = 3;
constexpr double kRate = 50.0;  // open-loop requests/s; see README
constexpr double kOpenShare = 0.2;  // of --seconds; the rest saturates
constexpr double kLateBoundMs = 5.0;  // open-loop validity: late p50 bound

/// Router + shards on loopback with private stores, started and stopped
/// as one unit.
struct Pool {
  std::vector<std::unique_ptr<stbench::Daemon>> procs;  ///< shards, router
  std::string router;
  std::string dir;

  double peak_rss_mb() const {
    double sum = 0.0;
    for (const auto& p : procs) sum += p->peak_rss_mb();
    return sum;
  }
  double cpu_s() const {
    double sum = 0.0;
    for (const auto& p : procs) sum += p->cpu_s();
    return sum;
  }
  void stop() {
    // Router first, so no forward is in flight when shards drain.
    for (auto it = procs.rbegin(); it != procs.rend(); ++it) (*it)->stop();
  }
};

void wait_ready(const std::string& endpoint, double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    try {
      st::serve::ClientOptions co;
      co.connect_timeout_ms = 200;
      co.deadline_ms = 1000;
      st::serve::Client c(endpoint, co);
      if (c.status().status == "ok") return;
    } catch (const std::exception&) {
    }
    if (since(t0) > timeout_s) {
      throw std::runtime_error("daemon at " + endpoint + " never answered");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::unique_ptr<Pool> start_pool(const Ctx& ctx, const std::string& dir,
                                 bool traced) {
  auto pool = std::make_unique<Pool>();
  pool->dir = dir;
  fs::create_directories(dir);
  std::string shards;
  std::vector<std::string> eps;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string ep = "127.0.0.1:" + std::to_string(stbench::free_tcp_port());
    const std::string k = std::to_string(i);
    std::vector<std::string> argv = {ctx.tools + "/sparsetrain_serve",
                                     "--listen", ep, "--store",
                                     dir + "/store" + k, "--workers", "1"};
    if (traced) {
      argv.insert(argv.end(), {"--trace", dir + "/shard" + k + ".jsonl",
                               "--profile-engine"});
    }
    pool->procs.push_back(
        std::make_unique<stbench::Daemon>(argv, dir + "/shard" + k + ".log"));
    shards += (i ? "," : "") + ep;
    eps.push_back(ep);
  }
  pool->router = "127.0.0.1:" + std::to_string(stbench::free_tcp_port());
  std::vector<std::string> argv = {ctx.tools + "/sparsetrain_route",
                                   "--listen", pool->router, "--shards",
                                   shards};
  if (traced) {
    argv.insert(argv.end(), {"--trace", dir + "/router.jsonl",
                             "--trace-sample-rate", "1.0"});
  }
  pool->procs.push_back(
      std::make_unique<stbench::Daemon>(argv, dir + "/router.log"));
  for (const std::string& ep : eps) wait_ready(ep, 20.0);
  wait_ready(pool->router, 20.0);
  return pool;
}

struct Conns {
  std::vector<std::unique_ptr<st::serve::Client>> clients;
  Conns(const std::string& ep, std::size_t n) {
    st::serve::ClientOptions co;
    co.deadline_ms = 30000;
    co.connect_timeout_ms = 1000;
    for (std::size_t i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<st::serve::Client>(ep, co));
    }
  }
};

/// Sends every hot key once through the router (computed on its owner,
/// replicated to its successor) so hot requests hit the store.
void warm_hot(const Pool& pool, const stbench::MixPlan& plan, std::size_t conns,
              Result& res) {
  Conns c(pool.router, conns);
  std::vector<double> due(plan.hot, 0.0);
  const auto out = stbench::run_open_loop(
      due, conns, [&](std::size_t conn, std::size_t i) {
        stbench::Item it;
        it.cls = stbench::Cls::Hot;
        it.key = i;
        return c.clients[conn]->request_raw(
            stbench::request_line(plan, it, "w" + std::to_string(i)));
      });
  for (const auto& o : out) {
    const bool ok = o.error.empty() &&
                    st::serve::parse_response(o.response).status == "ok";
    res.check(ok, "warm-up of a hot key failed: " + o.error + o.response);
  }
}

/// One answered (or failed) exchange, classified.
struct Exchange {
  stbench::Item item;
  stbench::Outcome out;
  st::serve::Response resp;
  bool answered = false;  ///< a parseable response arrived
};

std::vector<Exchange> classify(const std::vector<stbench::Item>& items,
                               std::vector<stbench::Outcome> outs) {
  std::vector<Exchange> ex;
  for (stbench::Outcome& o : outs) {
    Exchange e;
    e.item = items.at(o.item);
    e.out = std::move(o);
    if (e.out.error.empty()) {
      try {
        e.resp = st::serve::parse_response(e.out.response);
        e.answered = true;
      } catch (const std::exception&) {
      }
    }
    ex.push_back(std::move(e));
  }
  return ex;
}

std::vector<Exchange> open_phase(const Pool& pool, const stbench::MixPlan& plan,
                                 std::size_t conns, const std::string& tag) {
  Conns c(pool.router, conns);
  std::vector<double> due;
  for (const stbench::Item& it : plan.open) due.push_back(it.due_s);
  auto outs = stbench::run_open_loop(
      due, conns, [&](std::size_t conn, std::size_t i) {
        return c.clients[conn]->request_raw(
            stbench::request_line(plan, plan.open[i], tag + std::to_string(i)));
      });
  return classify(plan.open, std::move(outs));
}

/// Reference results for every key an ok response claimed, computed
/// in-process after the timed window, then the per-response check.
void check_serve(const stbench::MixPlan& plan, std::size_t workers,
                 const std::vector<const std::vector<Exchange>*>& phases,
                 Result& res) {
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> ref;
  {
    st::core::SessionConfig cfg;
    cfg.workers = workers;
    st::core::Session session(cfg);
    std::map<std::size_t, st::core::Session::JobHandle> jobs;
    std::map<std::size_t, std::uint64_t> fps;
    for (const auto* phase : phases) {
      for (const Exchange& e : *phase) {
        if (e.item.cls == stbench::Cls::Malformed || jobs.count(e.item.key)) {
          continue;
        }
        const stbench::EvalKey& k = plan.keys[e.item.key];
        const auto net = st::workload::find_workload(k.workload).net;
        const auto profile = st::workload::SparsityProfile::pruned(net, k.p());
        fps[e.item.key] = session.run_fingerprint(
            net, profile, st::core::Session::kSparseBackend);
        jobs[e.item.key] =
            session.submit(net, profile, {st::core::Session::kSparseBackend});
      }
    }
    for (const auto& [key, job] : jobs) {
      ref[key] = {session.wait(job).runs.front().report.total_cycles,
                  fps[key]};
    }
  }
  for (const auto* phase : phases) {
    for (const Exchange& e : *phase) {
      const std::string what = std::string(stbench::cls_name(e.item.cls)) +
                               " request: " + e.out.error + e.out.response;
      if (e.item.cls == stbench::Cls::Malformed) {
        res.check(e.answered && e.resp.status == "error", what);
        continue;
      }
      const auto& [cycles, fp] = ref.at(e.item.key);
      res.check(e.answered && e.resp.status == "ok" && e.resp.cycles == cycles &&
                    e.resp.fingerprint == fp,
                what);
    }
  }
}

std::vector<double> latencies_ms(const std::vector<Exchange>& ex,
                                 stbench::Cls cls) {
  std::vector<double> v;
  for (const Exchange& e : ex) {
    if (e.item.cls == cls && e.answered && e.resp.status == "ok") {
      v.push_back(ms(e.out.latency_s()));
    }
  }
  return v;
}

/// Reads one counter out of the router's stats payload.
double router_stat(const Pool& pool, const std::string& field) {
  st::serve::Client c(pool.router);
  const auto line = st::serve::parse_json(c.request_raw("{\"type\":\"stats\"}"));
  const auto* doc = line.find("payload");
  if (doc == nullptr) throw std::runtime_error("router stats without payload");
  if (field == "failovers") return doc->get_number("failovers", 0.0);
  double sum = 0.0;
  for (const auto& shard : doc->find("shards")->as_array()) {
    sum += shard.get_number(field, 0.0);
  }
  return sum;
}

void serve_ledger(const Ctx& ctx, Pool& pool, const std::vector<Exchange>& ex,
                  Result& res) {
  std::vector<SpanRec> spans;
  const auto add_log = [&](const std::string& path) {
    auto v = stbench::read_span_log(path);
    spans.insert(spans.end(), v.begin(), v.end());
  };
  add_log(pool.dir + "/router.jsonl");
  for (std::size_t i = 0; i < kShards; ++i) {
    add_log(pool.dir + "/shard" + std::to_string(i) + ".jsonl");
  }
  std::map<std::string, std::uint64_t> trace_of_id;
  std::map<std::uint64_t, std::vector<std::size_t>> by_trace;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_trace[spans[i].trace].push_back(i);
    if (spans[i].name == "router.request" && spans[i].attrs.count("id")) {
      trace_of_id[spans[i].attrs.at("id")] = spans[i].trace;
    }
  }
  // Per-request readings, in milliseconds.
  std::map<std::string, std::vector<double>> per;
  double hot_replicate = 0.0, hot_latency = 0.0;
  double min_self = 0.0;
  bool first = true;
  std::vector<SpanRec> merged;
  const int self_pid = static_cast<int>(::getpid());
  for (const Exchange& e : ex) {
    if (e.item.cls == stbench::Cls::Malformed || !e.answered ||
        e.resp.status != "ok") {
      continue;
    }
    const std::size_t i = e.out.item;
    const auto t = trace_of_id.find("t" + std::to_string(i));
    if (t == trace_of_id.end()) {
      res.metrics["ledger.unreconciled"] += 1;
      continue;
    }
    std::vector<SpanRec> tree;
    for (std::size_t k : by_trace[t->second]) tree.push_back(spans[k]);
    // The benchmark's own span: from the request's due time to its
    // response, parent of the router's root span.
    SpanRec mine;
    mine.trace = t->second;
    mine.id = ~static_cast<std::uint64_t>(i);
    mine.name = "client.request";
    mine.process = "stbench";
    mine.pid = self_pid;
    mine.dur_us = static_cast<std::int64_t>(std::llround(e.out.latency_s() * 1e6));
    for (SpanRec& s : tree) {
      if (s.name == "router.request") {
        s.parent = mine.id;
        // Anchor the client span on the router's wall-clock start minus
        // what the client spent before the router admitted the line.
        mine.start_us = s.start_us - (mine.dur_us - s.dur_us);
      }
    }
    tree.push_back(mine);
    const stbench::Ledger l = stbench::build_ledger(tree);
    if (!stbench::reconciles(l, 2.0 * static_cast<double>(tree.size()))) {
      res.metrics["ledger.unreconciled"] += 1;
    }
    min_self = first ? l.min_self_us : std::min(min_self, l.min_self_us);
    first = false;
    const auto self = [&](const char* n) {
      const auto it = l.self_us.find(n);
      return it == l.self_us.end() ? -1.0 : it->second / 1e3;
    };
    const auto push = [&](const char* metric, double v) {
      if (v >= 0.0) per[metric].push_back(v);
    };
    push("serve.unattributed_ms", self("client.request"));
    push("router.self_ms", self("router.request"));
    const double fwd = std::max(self("router.forward"), 0.0) +
                       std::max(self("router.failover"), 0.0);
    push("router.forward_wait_ms", fwd);
    push("daemon.self_ms", self("daemon.request"));
    push("daemon.queue_ms", self("daemon.queue"));
    push("daemon.put_ms", self("daemon.put"));
    push("store.lookup_ms", self("store.lookup"));
    push("store.publish_ms", self("store.publish"));
    push("serve.compile_ms", self("compile"));
    push("serve.simulate_ms", self("simulate"));
    double replicate = 0.0;
    for (const SpanRec& s : tree) {
      if (s.name == "router.replicate") replicate += s.dur_us / 1e3;
      if (s.name == "compile") res.metrics["serve.compiles"] += 1;
    }
    per["router.replicate_ms"].push_back(replicate);
    if (e.item.cls == stbench::Cls::Hot) {
      hot_replicate += replicate;
      hot_latency += ms(e.out.latency_s());
    }
    merged.insert(merged.end(), tree.begin(), tree.end());
  }
  for (const char* m :
       {"serve.unattributed_ms", "router.self_ms", "router.forward_wait_ms",
        "daemon.self_ms", "daemon.queue_ms", "daemon.put_ms", "store.lookup_ms",
        "store.publish_ms", "serve.compile_ms", "router.replicate_ms"}) {
    res.metrics[m] = median(per[m]);
  }
  res.metrics["serve.simulate_p50_ms"] = median(per["serve.simulate_ms"]);
  const Tail sim_tail = stbench::tail(per["serve.simulate_ms"]);
  res.metrics["serve.simulate_tail_ms"] = sim_tail.value;
  res.tail_detail("serve.simulate_tail_ms", sim_tail);
  res.metrics["router.replicate_share_hot"] =
      hot_latency > 0.0 ? hot_replicate / hot_latency : 0.0;
  res.metrics["ledger.min_self_ms"] = min_self / 1e3;
  stbench::write_chrome_trace(
      ctx.out + "/serve_mix-seed" + std::to_string(ctx.seed) + ".trace.json",
      merged);
}

void run_serve_mix(const Ctx& ctx, Result& res) {
  const std::size_t conns = ctx.workers;
  // A traced run spends a third of its time on each of the open loop, the
  // closed loop and the traced replay of the open loop.
  const double open_s = ctx.trace ? ctx.seconds / 3 : ctx.seconds * kOpenShare;
  const double closed_s = ctx.trace ? ctx.seconds / 3 : ctx.seconds - open_s;
  stbench::MixSpec spec;
  spec.rate = kRate;
  spec.open_s = open_s;
  spec.closed_items = static_cast<std::size_t>(closed_s * 1000);
  const stbench::MixPlan plan = stbench::make_plan(ctx.seed, spec);
  res.details["rate_rps"] = kRate;
  res.details["connections"] = static_cast<double>(conns);
  res.details["shards"] = kShards;
  res.details["shard_workers"] = 1;
  res.details["open_loop_s"] = open_s;

  std::unique_ptr<Pool> pool;
  int rep = 0;
  const double setup_s = median_setup(setup_reps(ctx, kSetupReps), [&] {
    if (pool) pool->stop();
    pool = start_pool(ctx, ctx.run_dir + "/plain" + std::to_string(rep++),
                      false);
    warm_hot(*pool, plan, conns, res);
  });
  const std::vector<Exchange> open = open_phase(*pool, plan, conns, "o");
  // Read after the fixed open-loop stream: each shard keeps the program of
  // every cold key it compiled, so a reading after the closed loop would
  // count how many requests the host let it complete.
  const double rss = pool->peak_rss_mb();
  std::vector<Exchange> closed;
  double closed_elapsed = 0.0;
  double cpu_s = 0.0;
  {
    Conns c(pool->router, conns);
    const double cpu0 = pool->cpu_s();
    const Clock::time_point t0 = Clock::now();
    auto outs = stbench::run_closed_loop(
        plan.closed.size(), conns, closed_s,
        [&](std::size_t conn, std::size_t i) {
          return c.clients[conn]->request_raw(stbench::request_line(
              plan, plan.closed[i], "c" + std::to_string(i)));
        });
    closed_elapsed = since(t0);
    cpu_s = pool->cpu_s() - cpu0;
    closed = classify(plan.closed, std::move(outs));
  }
  const double failovers = router_stat(*pool, "failovers");
  pool->stop();
  res.check(failovers == 0.0, "router failed over during the run");

  std::vector<double> late;
  for (const Exchange& e : open) late.push_back(ms(e.out.late_s()));
  const double late_p50 = median(late);
  res.tail_detail("loadgen.late_tail_ms", stbench::tail(late));
  res.details["loadgen.late_p50_ms"] = late_p50;
  if (late_p50 > kLateBoundMs) {
    // The generator could not hold its schedule: latencies from due
    // times would then measure the generator, not the service.
    res.invalid = true;
    res.failures.push_back("open loop ran late: p50 " +
                           std::to_string(late_p50) + " ms");
  }
  // Host-time figures: latency per class in the open loop, completions
  // per second (median of 1-s windows) and service CPU per valid request
  // in the closed loop.
  const std::vector<double> hot = latencies_ms(open, stbench::Cls::Hot);
  const std::vector<double> cold = latencies_ms(open, stbench::Cls::Cold);
  res.tail_detail("serve.hot_tail_ms", stbench::tail(hot));
  res.tail_detail("serve.cold_tail_ms", stbench::tail(cold));
  res.details["serve.hot_p50_ms"] = median(hot);
  res.details["serve.cold_p50_ms"] = median(cold);
  std::vector<double> per_second(static_cast<std::size_t>(closed_elapsed), 0.0);
  std::size_t closed_ok = 0;
  for (const Exchange& e : closed) {
    if (e.item.cls == stbench::Cls::Malformed || !e.answered ||
        e.resp.status != "ok") {
      continue;
    }
    ++closed_ok;
    const auto sec = static_cast<std::size_t>(e.out.done_s);
    if (sec < per_second.size()) per_second[sec] += 1.0;
  }
  res.details["serve.capacity_rps"] = median(per_second);
  res.details["closed_loop_s"] = closed_elapsed;
  res.details["closed_loop_valid"] = static_cast<double>(closed_ok);
  res.details["serve.cpu_ms"] =
      ms(cpu_s) / static_cast<double>(std::max<std::size_t>(closed_ok, 1));

  if (!ctx.trace) {
    check_serve(plan, ctx.workers, {&open, &closed}, res);
    res.metrics["setup_s"] = setup_s;
    res.metrics["peak_rss_mb"] = rss;
    res.metrics["cpu_ms"] = res.details["serve.cpu_ms"];
    return;
  }
  for (const char* m : {"serve.hot_p50_ms", "serve.hot_tail_ms",
                        "serve.cold_p50_ms", "serve.cold_tail_ms",
                        "serve.capacity_rps"}) {
    res.metrics[m] = res.details[m];
  }

  // Traced phase: the same open-loop stream through a fresh pool with span
  // logs on.
  Pool& traced = *(pool = start_pool(ctx, ctx.run_dir + "/traced", true));
  warm_hot(traced, plan, conns, res);
  const std::vector<Exchange> topen = open_phase(traced, plan, conns, "t");
  res.metrics["router.replications"] = router_stat(traced, "replications");
  res.metrics["router.failovers"] = router_stat(traced, "failovers");
  res.check(res.metrics["router.failovers"] == 0.0,
            "router failed over during the traced phase");
  traced.stop();
  check_serve(plan, ctx.workers, {&open, &closed, &topen}, res);

  std::vector<double> tlate;
  std::size_t ok_evals = 0, coalesced = 0, hot_ok = 0, hot_stored = 0;
  for (const Exchange& e : topen) {
    tlate.push_back(ms(e.out.late_s()));
    if (e.item.cls == stbench::Cls::Malformed || !e.answered ||
        e.resp.status != "ok") {
      continue;
    }
    ++ok_evals;
    coalesced += e.resp.source == "coalesced" ? 1 : 0;
    if (e.item.cls == stbench::Cls::Hot) {
      ++hot_ok;
      hot_stored += e.resp.source != "computed" ? 1 : 0;
    }
  }
  res.metrics["serve.coalesced_share"] =
      ok_evals ? static_cast<double>(coalesced) / ok_evals : 0.0;
  res.metrics["store.hit_ratio_hot"] =
      hot_ok ? static_cast<double>(hot_stored) / hot_ok : 0.0;
  res.metrics["loadgen.late_p50_ms"] = median(tlate);
  res.metrics["loadgen.late_tail_ms"] = stbench::tail(tlate).value;
  res.metrics["trace_overhead"] =
      median(latencies_ms(topen, stbench::Cls::Hot)) / median(hot);
  serve_ledger(ctx, traced, topen, res);
}

// ---------------------------------------------------------------------------
// Goldens and output.

void print_golden(std::size_t workers) {
  Golden g;
  st::core::SessionConfig cfg;
  cfg.workers = workers;
  st::obs::Registry reg;
  cfg.metrics = &reg;
  cfg.profile_engine = true;
  st::core::Session session(cfg);
  for (const ExactProgram& p : exact_programs()) {
    const auto r = session.evaluate(p.net, p.profile,
                                    {st::core::Session::kSparseBackend},
                                    exact_options(workers));
    stbench::observe_report(g, p.zoo_name, r.runs.front().report);
    const EngineSnap before = snap(reg);
    session.evaluate(p.net, p.profile, {st::core::Session::kSparseBackend},
                     exact_options(1));
    const EngineSnap d = snap(reg) - before;
    for (const char* stage : kEngineStages) {
      const std::string k = "exact." + p.zoo_name + ".profile." + stage;
      g[k + ".tasks"] = exact_text_int(d.stage_tasks.at(stage));
      g[k + ".row_ops"] = exact_text_int(d.stage_rows.at(stage));
    }
  }
  st::core::Session fresh(st::core::SessionConfig{});
  st::dse::Explorer ex(fresh);
  const auto r = ex.explore(dse_space(), dse_workloads());
  g["dse.warm.compiles"] = std::to_string(r.cache.misses);
  g["dse.warm.lookups"] = std::to_string(r.cache.lookups());
  stbench::observe_frontier(g, r);
  std::cout << "# Simulated outputs the benchmark's correctness gate checks;\n"
               "# regenerate with `stbench --print-golden` only when a\n"
               "# modelling change is intended.\n";
  for (const auto& [k, v] : g) std::cout << k << ' ' << v << '\n';
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  return stbench::exact_text(v);
}

std::string quoted(const std::string& s) {
  return "\"" + st::serve::json_escape(s) + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const st::Args args(
        argc, argv,
        {{"workload", "serve_mix | exact_program | dse_grid", true},
         {"seed", "workload seed (inputs are a pure function of it)", true},
         {"seconds", "how long the run measures", true},
         {"trace", "0 = end-to-end metrics, 1 = traced per-layer metrics",
          true},
         {"tools", "directory holding sparsetrain_serve and sparsetrain_route",
          true},
         {"golden", "golden file of simulated outputs (goldens.txt)", true},
         {"out", "directory for details, traces and per-run scratch", true},
         {"commit", "source revision recorded in the details", true},
         {"print-golden", "print the golden file for this build and exit",
          false}});
    if (args.help_requested()) {
      std::cout << args.usage("stbench");
      return 0;
    }
    const std::string build_type = STBENCH_BUILD_TYPE;
    const std::string sanitize = STBENCH_SANITIZE;
    if (build_type != "Release" || sanitize != "OFF") {
      std::cerr << "stbench: refusing to measure a '" << build_type
                << "' build with sanitizers '" << sanitize
                << "'; configure with -DCMAKE_BUILD_TYPE=Release and "
                   "-DSPARSETRAIN_SANITIZE=OFF\n";
      return 2;
    }
    Ctx ctx;
    ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
    ctx.workers = std::min<std::size_t>(4, ctx.nproc);
    if (args.has("print-golden")) {
      print_golden(ctx.workers);
      return 0;
    }
    ctx.workload = args.get("workload", std::string{});
    ctx.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
    ctx.seconds = args.get("seconds", 10.0);
    const long trace = args.get("trace", 0L);
    ctx.tools = args.get("tools", std::string{});
    ctx.golden_path = args.get("golden", std::string{});
    ctx.out = args.get("out", std::string{});
    ctx.commit = args.get("commit", std::string{"unknown"});
    if (ctx.workload != "serve_mix" && ctx.workload != "exact_program" &&
        ctx.workload != "dse_grid") {
      throw std::invalid_argument("unknown --workload '" + ctx.workload + "'");
    }
    if (!(ctx.seconds >= 1.0 && ctx.seconds <= 600.0) ||
        (trace != 0 && trace != 1) || ctx.tools.empty() ||
        ctx.golden_path.empty() || ctx.out.empty()) {
      throw std::invalid_argument(
          "need --seconds in [1, 600], --trace 0|1, --tools, --golden, --out");
    }
    ctx.trace = trace == 1;
    const Golden golden = stbench::read_golden(ctx.golden_path);
    ctx.run_dir = ctx.out + "/run-" + std::to_string(::getpid()) + "-" +
                  std::to_string(unix_us());
    fs::create_directories(ctx.run_dir);
    // Stores and span logs live only as long as the invocation; daemons
    // are already reaped when this runs (Pool and Daemon destructors).
    struct Scratch {
      std::string dir;
      ~Scratch() {
        std::error_code ec;
        fs::remove_all(dir, ec);
      }
    } scratch{ctx.run_dir};

    Result res;
    if (ctx.trace) {
      for (const MetricDef& d : per_layer_defs()) res.metrics[d.name] = 0.0;
    }
    if (ctx.workload == "serve_mix") {
      run_serve_mix(ctx, res);
    } else if (ctx.workload == "exact_program") {
      run_exact_program(ctx, golden, res);
    } else {
      run_dse_grid(ctx, golden, res);
    }
    const double fail_share =
        res.attempted ? static_cast<double>(res.failed) / res.attempted : 1.0;
    if (ctx.trace) res.metrics["fail_share"] = fail_share;
    const bool correct = res.failed == 0 && res.attempted > 0 && !res.invalid;

    const std::vector<MetricDef>& defs =
        ctx.trace ? per_layer_defs() : end_to_end_defs();
    std::string metrics;
    for (const MetricDef& d : defs) {
      const auto it = res.metrics.find(d.name);
      if (it == res.metrics.end()) {
        throw std::logic_error("metric " + d.name + " was not measured");
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += quoted(d.name) + ": {\"value\": " + num(it->second) +
                 ", \"unit\": " + quoted(d.unit) + "}";
    }

    std::ostringstream details;
    details << "{\"schema\": \"stbench.result/v1\", \"workload\": "
            << quoted(ctx.workload) << ", \"seed\": " << ctx.seed
            << ", \"seconds\": " << num(ctx.seconds)
            << ", \"trace\": " << trace << ", \"commit\": " << quoted(ctx.commit)
            << ", \"nproc\": " << ctx.nproc << ", \"workers\": " << ctx.workers
            << ", \"simd\": " << quoted(st::dataflow::simd_mode())
            << ", \"build_type\": " << quoted(build_type)
            << ", \"sanitize\": " << quoted(sanitize)
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"invalid\": " << (res.invalid ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed
            << ", \"fail_share\": " << num(fail_share) << ", \"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i) {
      details << (i ? ", " : "") << quoted(res.failures[i]);
    }
    details << "], \"metrics\": {" << metrics << "}, \"details\": {";
    bool first = true;
    for (const auto& [k, v] : res.details) {
      details << (first ? "" : ", ") << quoted(k) << ": " << num(v);
      first = false;
    }
    details << "}}\n";
    const std::string details_path = ctx.out + "/" + ctx.workload + "-seed" +
                                     std::to_string(ctx.seed) + "-trace" +
                                     std::to_string(trace) + ".json";
    std::ofstream(details_path) << details.str();
    std::cerr << "stbench: " << ctx.workload << " seed " << ctx.seed
              << (correct ? " correct" : " NOT CORRECT") << ", " << res.failed
              << "/" << res.attempted << " failed; details in "
              << details_path << '\n';
    for (const std::string& f : res.failures) {
      std::cerr << "  failure: " << f << '\n';
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << res.attempted
              << ", \"failed\": " << res.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "stbench: " << e.what() << '\n';
    return 1;
  }
}
