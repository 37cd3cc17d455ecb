// DSE throughput benchmark: Pareto search over the architecture space.
//
// Where bench_exact_throughput measures the engine from below (row ops
// per second), this driver measures the evaluation *service* from above:
// a grid (or seeded-random / successive-halving) exploration of a few
// hundred SparseTrain variants — PE array geometry × buffer capacity ×
// clock — across multiple zoo workloads at the paper's p=90% pruning
// operating point, through dse::Explorer batching everything onto one
// core::Session. The ProgramCache makes the sweep cheap (every
// architecture sharing a (net, profile) shares one compile; the hit-rate
// is reported and CI-gated), and the result is the latency / on-chip
// energy / area-proxy Pareto frontier.
//
// Output: a table of the frontier, a frontier CSV, and a JSON file
// (default BENCH_dse_pareto.json, schema sparsetrain.bench_dse/v1) with
// points evaluated, points/sec, frontier size and cache hit-rate — CI
// runs `--quick` and fails on an empty frontier or a hit-rate below 50%.
#include <cstdio>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "dse/explorer.hpp"
#include "dse/export.hpp"
#include "serve/store.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/layer_config.hpp"

using namespace sparsetrain;

namespace {

std::string num_json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void append_axis(std::string& json, const char* name,
                 const std::vector<std::size_t>& values) {
  json += std::string("  \"") + name + "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) json += ", ";
    json += std::to_string(values[i]);
  }
  json += "],\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(
      argc, argv,
      {{"quick", "small space + one workload (the CI subset)", false},
       {"out", "output JSON path (default BENCH_dse_pareto.json)"},
       {"csv", "frontier CSV path (default dse_pareto_frontier.csv)"},
       {"strategy", "grid | random | halving (default grid)"},
       {"samples", "random strategy: points to draw (default 64)"},
       {"seed", "random strategy seed (default 1)"},
       {"workers", "session pool workers (0 = hardware)"},
       {"store", "persistent result-store directory (reused across runs)"},
       {"max-store-bytes", "store size cap in bytes (0 = unbounded)"},
       {"exact-validate",
        "promote this many frontier points to exact runs (default 0)"}});
  if (args.help_requested()) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }
  const bool quick = args.has("quick");
  const std::string out_path = args.get("out", "BENCH_dse_pareto.json");
  const std::string csv_path = args.get("csv", "dse_pareto_frontier.csv");
  const std::string strategy_str = args.get("strategy", std::string("grid"));

  // ---- the space: PE array geometry × buffer × clock at the paper's
  // p=90% pruning scenario. The full grid is 252 architectures; --quick
  // is 16 (CI smoke). All axes are plain data — edit freely.
  dse::SpaceSpec space;
  if (quick) {
    space.pe_groups = {14, 28, 56, 112};
    space.pes_per_group = {2, 3};
    space.buffer_bytes = {192 * 1024, 386 * 1024};
    space.clock_ghz = {0.8};
  } else {
    space.pe_groups = {14, 28, 42, 56, 84, 112, 168};
    space.pes_per_group = {2, 3, 4};
    space.buffer_bytes = {96 * 1024, 192 * 1024, 386 * 1024, 772 * 1024};
    space.clock_ghz = {0.6, 0.8, 1.0};
  }
  space.scenarios = {dse::Scenario::pruned(0.9)};

  std::vector<workload::NetworkConfig> workloads;
  workloads.push_back(workload::find_workload("AlexNet/CIFAR").net);
  if (!quick) {
    // An ImageNet-scale second workload so the buffer axis has a real
    // DRAM-refetch consequence, not just an area cost.
    workloads.push_back(workload::find_workload("ResNet-18/ImageNet").net);
  }

  dse::ExploreOptions opts;
  if (strategy_str == "grid") {
    opts.strategy = dse::Strategy::Grid;
  } else if (strategy_str == "random") {
    opts.strategy = dse::Strategy::Random;
    opts.samples = static_cast<std::size_t>(args.get("samples", 64L));
  } else if (strategy_str == "halving") {
    opts.strategy = dse::Strategy::SuccessiveHalving;
  } else {
    std::fprintf(stderr, "unknown --strategy '%s' (grid|random|halving)\n",
                 strategy_str.c_str());
    return 1;
  }
  if (opts.strategy != dse::Strategy::Random &&
      (args.has("samples") || args.has("seed"))) {
    std::fprintf(stderr,
                 "--samples/--seed only apply to --strategy random\n");
    return 1;
  }
  opts.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  opts.exact_validate =
      static_cast<std::size_t>(args.get("exact-validate", 0L));

  core::SessionConfig scfg;
  scfg.workers = static_cast<std::size_t>(args.get("workers", 0L));
  const std::string store_dir = args.get("store", std::string());
  if (!store_dir.empty()) {
    serve::StoreOptions sopts;
    sopts.max_bytes =
        static_cast<std::uint64_t>(args.get("max-store-bytes", 0L));
    scfg.store = std::make_shared<serve::ResultStore>(store_dir, sopts);
  }
  core::Session session(scfg);
  dse::Explorer explorer(session);

  std::printf(
      "DSE Pareto search: %zu-point %s over %zu architectures x %zu "
      "scenario(s), %zu workload(s)\n\n",
      space.size(), dse::strategy_name(opts.strategy), space.arch_points(),
      space.scenarios.size(), workloads.size());

  WallTimer timer;
  const dse::ExploreResult result = explorer.explore(space, workloads, opts);
  const double seconds = timer.seconds();

  // ---- report
  TextTable table({"backend", "PEs", "buffer KB", "GHz", "latency ms",
                   "on-chip uJ", "area"});
  for (const std::size_t i : result.frontier) {
    const dse::PointResult& p = result.points[i];
    table.add_row({p.point.backend_name(),
                   std::to_string(p.point.arch.pe_groups *
                                  p.point.arch.pes_per_group),
                   std::to_string(p.point.arch.buffer_bytes / 1024),
                   TextTable::num(p.point.arch.clock_ghz, 1),
                   TextTable::num(p.objectives.latency_ms, 3),
                   TextTable::num(p.objectives.energy_uj, 1),
                   TextTable::num(p.objectives.area, 0)});
  }
  std::printf("Pareto frontier (%zu of %zu candidates):\n%s\n",
              result.frontier.size(), result.points.size(),
              table.to_string().c_str());

  const double hit_rate = result.cache_hit_rate();
  const double points_per_sec =
      seconds > 0.0 ? static_cast<double>(result.points.size()) / seconds
                    : 0.0;
  const double evals_per_sec =
      seconds > 0.0 ? static_cast<double>(result.evaluations) / seconds : 0.0;
  std::printf(
      "%zu points (%zu backend runs) in %.2f s — %.1f points/s, %.1f "
      "evals/s\nprogram cache: %zu compiles for %zu lookups (hit rate "
      "%.1f%%)\n",
      result.points.size(), result.evaluations, seconds, points_per_sec,
      evals_per_sec, result.cache.misses, result.cache.lookups(),
      hit_rate * 100.0);
  if (result.store_attached) {
    std::printf(
        "result store (%s): %zu hits / %zu lookups (hit rate %.1f%%), %zu "
        "simulations, %zu entries (%zu bytes)\n",
        store_dir.c_str(), static_cast<std::size_t>(result.store.hits),
        static_cast<std::size_t>(result.store.lookups()),
        result.store.hit_rate() * 100.0, result.simulations,
        static_cast<std::size_t>(result.store.entries),
        static_cast<std::size_t>(result.store.bytes));
  }

  dse::export_frontier_csv(result, csv_path);
  std::printf("frontier CSV written to %s\n", csv_path.c_str());

  // ---- JSON (schema sparsetrain.bench_dse/v1)
  std::string json;
  json += "{\n  \"schema\": \"sparsetrain.bench_dse/v1\",\n";
  json += std::string("  \"strategy\": \"") +
          dse::strategy_name(opts.strategy) + "\",\n";
  json += "  \"seed\": " + std::to_string(opts.seed) + ",\n";
  json += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  json += "  \"workloads\": [";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + workloads[i].name + "\"";
  }
  json += "],\n";
  append_axis(json, "pe_groups", space.pe_groups);
  append_axis(json, "pes_per_group", space.pes_per_group);
  append_axis(json, "buffer_bytes", space.buffer_bytes);
  json += "  \"clock_ghz\": [";
  for (std::size_t i = 0; i < space.clock_ghz.size(); ++i) {
    if (i) json += ", ";
    json += num_json(space.clock_ghz[i]);
  }
  json += "],\n";
  json += "  \"space_points\": " + std::to_string(space.size()) + ",\n";
  json += "  \"arch_points\": " + std::to_string(space.arch_points()) + ",\n";
  json +=
      "  \"points_evaluated\": " + std::to_string(result.points.size()) +
      ",\n";
  json += "  \"evaluations\": " + std::to_string(result.evaluations) + ",\n";
  json += "  \"seconds\": " + num_json(seconds) + ",\n";
  json += "  \"points_per_sec\": " + num_json(points_per_sec) + ",\n";
  json += "  \"evals_per_sec\": " + num_json(evals_per_sec) + ",\n";
  json += "  \"frontier_size\": " + std::to_string(result.frontier.size()) +
          ",\n";
  json += "  \"cache\": {\"hits\": " + std::to_string(result.cache.hits) +
          ", \"misses\": " + std::to_string(result.cache.misses) +
          ", \"hit_rate\": " + num_json(hit_rate) + "},\n";
  json += std::string("  \"store\": {\"attached\": ") +
          (result.store_attached ? "true" : "false") +
          ", \"hits\": " + std::to_string(result.store.hits) +
          ", \"misses\": " + std::to_string(result.store.misses) +
          ", \"hit_rate\": " + num_json(result.store.hit_rate()) +
          ", \"simulations\": " + std::to_string(result.simulations) +
          "},\n";
  json += "  \"frontier\": [\n";
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const dse::PointResult& p = result.points[result.frontier[i]];
    json += "    {\"point\": " + std::to_string(p.point.index) +
            ", \"backend\": \"" + p.point.backend_name() +
            "\", \"pe_groups\": " + std::to_string(p.point.arch.pe_groups) +
            ", \"pes_per_group\": " +
            std::to_string(p.point.arch.pes_per_group) +
            ", \"buffer_bytes\": " +
            std::to_string(p.point.arch.buffer_bytes) + ", \"clock_ghz\": " +
            num_json(p.point.arch.clock_ghz) + ", \"latency_ms\": " +
            num_json(p.objectives.latency_ms) + ", \"energy_uj\": " +
            num_json(p.objectives.energy_uj) + ", \"area\": " +
            num_json(p.objectives.area) + "}";
    json += (i + 1 < result.frontier.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (result.frontier.empty()) {
    std::fprintf(stderr, "ERROR: empty Pareto frontier\n");
    return 1;
  }
  return 0;
}
