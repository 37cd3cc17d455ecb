// Search engine over a SpaceSpec.
//
// The Explorer turns candidate design points into batched core::Session
// jobs: every distinct architecture is registered as a named backend
// once, and all candidates sharing a (workload, scenario, engine, batch)
// tuple ride in ONE job — so the Session's thread pool evaluates them in
// parallel and the ProgramCache compiles each distinct (net, profile,
// options) exactly once however many architectures run it. A
// 250-architecture grid over two workloads is ~500 backend runs but only
// a handful of compiles; the cache hit-rate is reported per exploration.
//
// Strategies:
//  * Grid — every point of the space.
//  * Random — a seeded sample without replacement; the sample depends
//    only on (options.seed, space fingerprint), never on the session or
//    its worker count.
//  * SuccessiveHalving — rung r evaluates the survivors on workload r
//    only, then keeps the best ceil(n / eta) by Pareto rank (ties broken
//    by latency/energy/area/index) before paying for the next, typically
//    larger, workload. Points dropped early keep their partial
//    evaluations and are marked pruned/incomplete.
//
// `exact_validate` promotes the top frontier points to a full exact-
// engine re-evaluation after the cheap statistical search converges.
//
// Determinism: results are a pure function of (space, workloads,
// options, session seed). Jobs are waited in candidate order, objective
// sums run in workload order, and every simulated number inherits the
// Session's content-derived seeding — so exploration output is
// byte-identical for any session worker count.
#pragma once

#include <functional>
#include <vector>

#include "compiler/program_cache.hpp"
#include "core/session.hpp"
#include "dse/pareto.hpp"
#include "dse/space.hpp"
#include "serve/store.hpp"

namespace sparsetrain::dse {

enum class Strategy { Grid, Random, SuccessiveHalving };

const char* strategy_name(Strategy s);

/// One workload's simulation outcome for one candidate.
struct WorkloadEval {
  std::string workload;
  sim::SimReport report;
};

/// Everything the exploration learned about one candidate.
struct PointResult {
  DesignPoint point;
  std::vector<WorkloadEval> evals;  ///< in workload order, as evaluated
  Objectives objectives;            ///< summed over `evals`
  bool complete = false;  ///< evaluated on every workload (frontier-eligible)
  bool pruned = false;    ///< dropped by successive halving
  bool on_front = false;
  /// Exact-engine promotion results (exact_validate only).
  bool exact_validated = false;
  std::vector<WorkloadEval> exact_evals;
  Objectives exact_objectives;
};

struct ExploreOptions {
  Strategy strategy = Strategy::Grid;
  /// Random: candidates drawn without replacement (clamped to the space
  /// size); 0 = the whole space.
  std::size_t samples = 0;
  /// SuccessiveHalving: survivors after each rung = ceil(n / eta).
  double eta = 2.0;
  /// Seed of the random strategy, mixed with the space fingerprint.
  std::uint64_t seed = 1;
  /// Re-evaluate up to this many frontier points with the exact engine
  /// after the search (0 = off). Dense points are skipped — the exact
  /// engine has no dense semantics.
  std::size_t exact_validate = 0;
  /// Parallelism of the exact promotion runs (wall-clock only).
  sim::ExactOptions exact;
};

struct ExploreResult {
  /// Evaluated candidates in space-enumeration order (the sampled subset
  /// for Random).
  std::vector<PointResult> points;
  /// Indices into `points` of the Pareto front over complete candidates,
  /// in (latency, energy, area, index) order.
  std::vector<std::size_t> frontier;
  std::size_t evaluations = 0;  ///< backend runs performed (incl. exact)
  /// Backend runs that actually simulated — evaluations minus persistent-
  /// store hits. A warm-store re-run of an identical exploration reports
  /// simulations == 0.
  std::size_t simulations = 0;
  /// ProgramCache stats delta over this exploration (valid when nothing
  /// else used the session's cache concurrently).
  compiler::ProgramCache::Stats cache;
  /// Persistent-store counter deltas over this exploration, plus the
  /// store's read_only flag and sizes at its end (all zero when the
  /// session has no store attached).
  bool store_attached = false;
  serve::StoreStats store;

  double cache_hit_rate() const;

  /// First complete point matching the predicate; nullptr when none
  /// does. Drivers use this to read specific sweep cells out of a grid.
  const PointResult* find(
      const std::function<bool(const DesignPoint&)>& pred) const;
};

class Explorer {
 public:
  /// The session provides the backend registry, program cache and thread
  /// pool the exploration batches onto. Backends are registered into the
  /// session under content-derived "dse-..." names (reused when already
  /// present). Not thread-safe against concurrent use of the same
  /// session during explore().
  explicit Explorer(core::Session& session);

  /// Evaluates the space over the given workloads (SuccessiveHalving
  /// pays for them rung by rung in the order given — cheapest first).
  ExploreResult explore(const SpaceSpec& space,
                        const std::vector<workload::NetworkConfig>& workloads,
                        const ExploreOptions& options = {});

 private:
  core::Session& session_;
};

}  // namespace sparsetrain::dse
