// Exact-engine throughput benchmark — the repo's perf trajectory.
//
// For a set of workload-zoo conv layers this driver times the three
// training stages (Forward / GTA-with-mask / GTW) on the tensor-driven
// exact engine, single-threaded, on deterministically synthesised
// operands, and reports rows/s (row ops per second) and MACs/s. A second
// pass re-runs each stage with a worker pool to record the parallel
// scaling factor; with --scaling the pass becomes a {1, 2, 4, 8}-worker
// sweep and each entry carries its whole speedup curve. Results go to
// stdout as a table and to a JSON file (default BENCH_exact_engine.json —
// schema sparsetrain.bench_exact_throughput/v5, documented in the
// README's Performance section) so CI can archive the trajectory run
// over run and gate on the 4-worker speedup.
//
// --baseline PATH is a before/after A/B: it merges a prior run — say the
// parent commit's build — into each entry (`baseline` object with that
// run's seconds and the resulting speedup). Bench the parent first, then
// the change with --baseline parent.json. The simulated fields must
// agree exactly with the baseline's, and at least one entry must match:
// the driver fails loudly otherwise, because a simulated-field mismatch
// is a correctness bug, not a perf regression, and a baseline that
// matches nothing checks nothing.
//
// Layer selection: every zoo workload contributes its median-MACs conv
// layer, and AlexNet/ImageNet conv2 (the acceptance geometry tracked
// since PR 3) is always included. --full benches every conv layer of
// every zoo workload; --quick benches only the CIFAR AlexNet entry (the
// CI perf-smoke subset).
//
// The simulated numbers (tasks, row ops, MACs, cycles, busy cycles,
// register accesses) are pure functions of the inputs — only the
// seconds/throughput fields vary run to run (and with the host:
// `hw_concurrency` records how many cores the scaling columns could
// possibly use).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "dataflow/conv_decompose.hpp"
#include "serve/json.hpp"
#include "sim/exact_engine.hpp"
#include "util/args.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/layer_config.hpp"

using namespace sparsetrain;

namespace {

// The operating point every entry is synthesised at (recorded in the
// JSON): moderately sparse activations, 90%-pruned gradients, a typical
// ReLU mask.
constexpr double kInputDensity = 0.35;
constexpr double kGradDensity = 0.10;
constexpr double kMaskDensity = 0.5;

/// The --scaling sweep and the worker count the headline
/// `parallel_speedup` field is defined at.
constexpr std::size_t kSweepWorkers[] = {1, 2, 4, 8};
constexpr std::size_t kHeadlineWorkers = 4;

struct BenchCase {
  std::string workload;
  const workload::LayerConfig* layer = nullptr;
};

struct ScalePoint {
  std::size_t workers = 0;
  double seconds = 0.0;
  double speedup = 0.0;
};

struct StageRun {
  std::string stage;
  std::size_t tasks = 0;
  std::size_t row_ops = 0;
  std::size_t macs = 0;
  std::size_t cycles = 0;
  std::size_t busy_cycles = 0;
  std::size_t reg_accesses = 0;
  double seconds_serial = 0.0;
  double rows_per_s = 0.0;
  double macs_per_s = 0.0;
  double seconds_parallel = 0.0;
  double parallel_speedup = 0.0;
  std::vector<ScalePoint> scaling;
};

/// Median-forward-MACs conv layer of a network (FC layers excluded: the
/// FC dot-product stage has its own cost model and tiny spatial rows).
const workload::LayerConfig* median_conv_layer(
    const workload::NetworkConfig& net) {
  std::vector<const workload::LayerConfig*> convs;
  for (const auto& l : net.layers)
    if (!l.is_fc) convs.push_back(&l);
  if (convs.empty()) return nullptr;
  std::sort(convs.begin(), convs.end(),
            [](const auto* a, const auto* b) {
              return a->forward_macs() < b->forward_macs();
            });
  return convs[convs.size() / 2];
}

/// Times `fn` (which returns an ExactStageResult) until it has run for
/// at least `min_time` seconds, returning seconds per run.
template <typename Fn>
double time_stage(const Fn& fn, double min_time, int* reps_out = nullptr) {
  WallTimer timer;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (timer.seconds() < min_time);
  if (reps_out != nullptr) *reps_out = reps;
  return timer.seconds() / reps;
}

/// One entry of a prior run loaded via --baseline: the timing to compare
/// against plus the simulated fields, which must match exactly (a field
/// the baseline lacks reads -1, so it matches nothing).
struct BaselineEntry {
  double seconds_serial = 0.0;
  double tasks = -1.0;
  double row_ops = -1.0;
  double macs = -1.0;
  double cycles = -1.0;
  double busy_cycles = -1.0;
  double reg_accesses = -1.0;
};

/// Baseline entries keyed by workload|layer|stage.
using Baseline = std::map<std::string, BaselineEntry>;

std::string baseline_key(const std::string& workload,
                         const std::string& layer, const std::string& stage) {
  return workload + "|" + layer + "|" + stage;
}

bool load_baseline(const std::string& path, Baseline& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const serve::JsonValue doc = serve::parse_json(buf.str());
    const serve::JsonValue* entries = doc.find("entries");
    if (entries == nullptr) {
      std::fprintf(stderr, "baseline %s has no \"entries\" array\n",
                   path.c_str());
      return false;
    }
    for (const serve::JsonValue& e : entries->as_array()) {
      BaselineEntry be;
      be.seconds_serial = e.get_number("seconds_serial", 0.0);
      be.tasks = e.get_number("tasks", -1.0);
      be.row_ops = e.get_number("row_ops", -1.0);
      be.macs = e.get_number("macs", -1.0);
      be.cycles = e.get_number("cycles", -1.0);
      be.busy_cycles = e.get_number("busy_cycles", -1.0);
      be.reg_accesses = e.get_number("reg_accesses", -1.0);
      out[baseline_key(e.get_string("workload", ""),
                       e.get_string("layer", ""),
                       e.get_string("stage", ""))] = be;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "baseline %s: %s\n", path.c_str(), ex.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(
      argc, argv,
      {{"out", "output JSON path (default BENCH_exact_engine.json)"},
       {"min-time", "minimum seconds per timed point (default 0.3)"},
       {"quick", "CIFAR AlexNet entry only (the CI subset)", false},
       {"full", "every conv layer of every zoo workload", false},
       {"scaling", "sweep workers {1,2,4,8} per entry", false},
       {"workers", "parallel-pass worker count (0 = hardware)"},
       {"baseline",
        "prior run's JSON to merge (records its timings per entry; "
        "at least one entry must match, with identical simulated "
        "fields)"}});
  if (args.help_requested()) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }
  const std::string out_path = args.get("out", "BENCH_exact_engine.json");
  const double min_time = args.get("min-time", 0.3);
  const bool quick = args.has("quick");
  const bool full = args.has("full");
  const bool scaling = args.has("scaling");
  const auto workers = static_cast<std::size_t>(args.get("workers", 0L));
  const std::string baseline_path = args.get("baseline", "");
  Baseline baseline;
  const bool have_baseline = !baseline_path.empty();
  if (have_baseline && !load_baseline(baseline_path, baseline)) return 1;

  // ---- select the bench cases
  std::vector<BenchCase> cases;
  const auto add_case = [&](const std::string& wl,
                            const workload::LayerConfig* l) {
    if (l == nullptr) return;
    for (const auto& c : cases)
      if (c.workload == wl && c.layer->name == l->name) return;
    cases.push_back({wl, l});
  };
  if (quick) {
    add_case("AlexNet/CIFAR",
             median_conv_layer(workload::find_workload("AlexNet/CIFAR").net));
  } else {
    // The tracked acceptance geometry first, then one representative
    // layer per zoo workload (or all conv layers with --full).
    add_case("AlexNet/ImageNet",
             &workload::find_layer("AlexNet/ImageNet", "conv2"));
    for (const auto& entry : workload::workload_zoo()) {
      if (full) {
        for (const auto& l : entry.net.layers)
          if (!l.is_fc) add_case(entry.net.name, &l);
      } else {
        add_case(entry.net.name, median_conv_layer(entry.net));
      }
    }
  }

  sim::ArchConfig cfg;
  const sim::ExactEngine serial(cfg);

  // The parallel engines: the --scaling sweep set, or the single
  // --workers pass. One long-lived engine per worker count so pool
  // threads and arenas are warm across every case.
  std::vector<std::size_t> sweep;
  if (scaling) {
    sweep.assign(std::begin(kSweepWorkers), std::end(kSweepWorkers));
  } else {
    sweep.push_back(workers);  // 0 = hardware concurrency
  }
  std::vector<std::unique_ptr<sim::ExactEngine>> engines;
  for (const std::size_t w : sweep) {
    sim::ExactOptions popts;
    popts.workers = w;
    engines.push_back(std::make_unique<sim::ExactEngine>(cfg, popts));
  }

  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("exact-engine throughput, single-thread (parallel pass: %s; "
              "%zu hardware threads)\n\n",
              scaling ? "1/2/4/8-worker sweep"
                      : (workers == 0 ? "hw workers" : "fixed workers"),
              hw);
  TextTable table({"workload", "layer", "stage", "row ops", "s/run",
                   "Mrows/s", "MMACs/s", "par x"});

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"sparsetrain.bench_exact_throughput/v5\",\n";
  json += "  \"densities\": {\"input_acts\": " + std::to_string(kInputDensity) +
          ", \"output_grads\": " + std::to_string(kGradDensity) +
          ", \"mask\": " + std::to_string(kMaskDensity) + "},\n";
  json += "  \"arch\": {\"pe_groups\": " + std::to_string(cfg.pe_groups) +
          ", \"pes_per_group\": " + std::to_string(cfg.pes_per_group) + "},\n";
  json += "  \"hw_concurrency\": " + std::to_string(hw) + ",\n";
  json += "  \"entries\": [\n";
  bool first_entry = true;
  std::size_t matched = 0;

  for (const auto& bc : cases) {
    const workload::LayerConfig& l = *bc.layer;
    const dataflow::ConvGeometry geo = dataflow::layer_geometry(l);

    // Deterministic operands: the stream depends only on the names.
    Rng rng(mix64(fnv1a(bc.workload), fnv1a(l.name)));
    Tensor input(Shape{1, l.in_channels, l.in_h, l.in_w});
    input.fill_sparse_normal(rng, kInputDensity);
    Tensor grad(Shape{1, l.out_channels, l.out_h(), l.out_w()});
    grad.fill_sparse_normal(rng, kGradDensity);
    Tensor mask(input.shape());
    mask.fill_sparse_normal(rng, kMaskDensity);
    for (float& v : mask.flat())
      if (v != 0.0f) v = 1.0f;

    // One arena per operand, shared by every engine.
    const auto in_rows = compress_tensor(input);
    const auto go_rows = compress_tensor(grad);
    const auto mask_rows = compress_tensor(mask);
    const Shape in_shape = input.shape();
    const Shape out_shape = grad.shape();

    std::vector<StageRun> runs;
    const auto bench_stage = [&](const char* name, const auto& run_on) {
      StageRun sr;
      sr.stage = name;
      const sim::ExactStageResult r = run_on(serial);
      sr.tasks = r.tasks;
      sr.row_ops = r.row_ops;
      sr.macs = r.activity.macs;
      sr.cycles = r.cycles;
      sr.busy_cycles = r.activity.busy_cycles;
      sr.reg_accesses = r.activity.reg_accesses;
      sr.seconds_serial =
          time_stage([&] { return run_on(serial); }, min_time);
      sr.rows_per_s = static_cast<double>(sr.row_ops) / sr.seconds_serial;
      sr.macs_per_s = static_cast<double>(sr.macs) / sr.seconds_serial;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        ScalePoint p;
        p.workers = sweep[i] == 0 ? hw : sweep[i];
        p.seconds =
            time_stage([&] { return run_on(*engines[i]); }, min_time);
        p.speedup = p.seconds > 0.0 ? sr.seconds_serial / p.seconds : 0.0;
        sr.scaling.push_back(p);
      }
      // The headline speedup: the 4-worker point of the sweep, or the
      // single parallel pass when no sweep ran.
      const ScalePoint* headline = &sr.scaling.back();
      for (const ScalePoint& p : sr.scaling)
        if (p.workers == kHeadlineWorkers) headline = &p;
      sr.seconds_parallel = headline->seconds;
      sr.parallel_speedup = headline->speedup;
      runs.push_back(sr);
    };

    bench_stage("forward", [&](const sim::ExactEngine& e) {
      return e.run_forward(in_rows, in_shape, geo);
    });
    bench_stage("gta", [&](const sim::ExactEngine& e) {
      return e.run_gta(go_rows, out_shape, in_shape, &mask_rows, geo);
    });
    bench_stage("gtw", [&](const sim::ExactEngine& e) {
      return e.run_gtw(go_rows, out_shape, in_rows, in_shape, geo);
    });

    for (const StageRun& sr : runs) {
      table.add_row(
          {bc.workload, l.name, sr.stage, std::to_string(sr.row_ops),
           TextTable::num(sr.seconds_serial, 4),
           TextTable::num(sr.rows_per_s / 1e6, 2),
           TextTable::num(sr.macs_per_s / 1e6, 1),
           TextTable::num(sr.parallel_speedup, 2)});

      if (!first_entry) json += ",\n";
      first_entry = false;
      json += "    {\"workload\": \"" + json_escape(bc.workload) +
              "\", \"layer\": \"" + json_escape(l.name) +
              "\", \"stage\": \"" + sr.stage + "\"";
      json += ", \"tasks\": " + std::to_string(sr.tasks);
      json += ", \"row_ops\": " + std::to_string(sr.row_ops);
      json += ", \"macs\": " + std::to_string(sr.macs);
      json += ", \"cycles\": " + std::to_string(sr.cycles);
      json += ", \"busy_cycles\": " + std::to_string(sr.busy_cycles);
      json += ", \"reg_accesses\": " + std::to_string(sr.reg_accesses);
      json += ", \"seconds_serial\": " + std::to_string(sr.seconds_serial);
      json += ", \"rows_per_s\": " + std::to_string(sr.rows_per_s);
      json += ", \"macs_per_s\": " + std::to_string(sr.macs_per_s);
      json += ", \"seconds_parallel\": " + std::to_string(sr.seconds_parallel);
      json +=
          ", \"parallel_speedup\": " + std::to_string(sr.parallel_speedup);
      json += ", \"scaling\": [";
      for (std::size_t i = 0; i < sr.scaling.size(); ++i) {
        const ScalePoint& p = sr.scaling[i];
        if (i != 0) json += ", ";
        json += "{\"workers\": " + std::to_string(p.workers) +
                ", \"seconds\": " + std::to_string(p.seconds) +
                ", \"speedup\": " + std::to_string(p.speedup) + "}";
      }
      json += "]";
      if (have_baseline) {
        const auto it =
            baseline.find(baseline_key(bc.workload, l.name, sr.stage));
        if (it != baseline.end()) {
          ++matched;
          const BaselineEntry& be = it->second;
          // Byte-identity gate: the simulated fields are pure functions
          // of the inputs, so any divergence from the baseline is a bug,
          // not noise. JSON numbers are doubles, exact below 2^53.
          const auto same = [](double want, std::size_t got) {
            return want == static_cast<double>(got);
          };
          if (!same(be.tasks, sr.tasks) || !same(be.row_ops, sr.row_ops) ||
              !same(be.macs, sr.macs) || !same(be.cycles, sr.cycles) ||
              !same(be.busy_cycles, sr.busy_cycles) ||
              !same(be.reg_accesses, sr.reg_accesses)) {
            std::fprintf(stderr,
                         "FATAL: simulated fields diverge from (or are "
                         "missing in) baseline for %s/%s %s\n",
                         bc.workload.c_str(), l.name.c_str(),
                         sr.stage.c_str());
            return 1;
          }
          const double speedup = sr.seconds_serial > 0.0
                                     ? be.seconds_serial / sr.seconds_serial
                                     : 0.0;
          json += ", \"baseline\": {\"seconds_serial\": " +
                  std::to_string(be.seconds_serial) +
                  ", \"speedup\": " + std::to_string(speedup) + "}";
        }
      }
      json += "}";
    }
  }
  json += "\n  ]\n}\n";

  std::printf("%s", table.to_string().c_str());
  if (have_baseline) {
    std::printf("\nbaseline %s: %zu of %zu entries matched\n",
                baseline_path.c_str(), matched, cases.size() * 3);
    if (matched == 0) {
      std::fprintf(stderr,
                   "FATAL: no entry matched baseline %s, so no simulated "
                   "field was checked\n",
                   baseline_path.c_str());
      return 1;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s (%zu entries)\n", out_path.c_str(),
              cases.size() * 3);
  return 0;
}
