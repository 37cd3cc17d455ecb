#include "dse/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "util/hash.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain::dse {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Grid: return "grid";
    case Strategy::Random: return "random";
    case Strategy::SuccessiveHalving: return "halving";
  }
  return "?";
}

double ExploreResult::cache_hit_rate() const {
  return cache.lookups() == 0
             ? 0.0
             : static_cast<double>(cache.hits) /
                   static_cast<double>(cache.lookups());
}

const PointResult* ExploreResult::find(
    const std::function<bool(const DesignPoint&)>& pred) const {
  for (const PointResult& p : points) {
    if (p.complete && pred(p.point)) return &p;
  }
  return nullptr;
}

namespace {

/// Sample of `k` distinct ordinals from [0, total), deterministic in the
/// Rng stream (sparse Fisher–Yates; the space may be far larger than the
/// sample). Returned sorted so candidates stay in enumeration order.
std::vector<std::size_t> sample_without_replacement(std::size_t total,
                                                    std::size_t k, Rng& rng) {
  std::unordered_map<std::size_t, std::size_t> swapped;
  const auto value_at = [&swapped](std::size_t i) {
    const auto it = swapped.find(i);
    return it == swapped.end() ? i : it->second;
  };
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.uniform_index(total - i);
    out.push_back(value_at(j));
    swapped[j] = value_at(i);  // slot i is never revisited
  }
  std::sort(out.begin(), out.end());
  return out;
}

Objectives aggregate(const std::vector<WorkloadEval>& evals,
                     const sim::ArchConfig& arch) {
  Objectives o;
  for (const WorkloadEval& e : evals) {
    o.latency_ms += e.report.latency_ms();
    o.energy_uj += e.report.energy.on_chip_pj() * 1e-6;
  }
  o.area = area_proxy(arch);
  return o;
}

}  // namespace

Explorer::Explorer(core::Session& session) : session_(session) {}

ExploreResult Explorer::explore(
    const SpaceSpec& space,
    const std::vector<workload::NetworkConfig>& workloads,
    const ExploreOptions& options) {
  space.validate();
  ST_REQUIRE(!workloads.empty(), "exploration needs at least one workload");
  ST_REQUIRE(options.strategy != Strategy::SuccessiveHalving ||
                 options.eta > 1.0,
             "successive halving needs eta > 1");

  const auto stats_before = session_.program_cache().stats();
  const bool has_store = session_.result_store() != nullptr;
  serve::StoreStats store_before;
  if (has_store) store_before = session_.result_store()->stats();
  ExploreResult result;

  // ---- candidate selection (depends only on the options + space).
  const std::size_t total = space.size();
  std::vector<std::size_t> ordinals;
  if (options.strategy == Strategy::Random && options.samples > 0 &&
      options.samples < total) {
    Rng rng(mix64(options.seed, space.fingerprint()));
    ordinals = sample_without_replacement(total, options.samples, rng);
  } else {
    ordinals.resize(total);
    for (std::size_t i = 0; i < total; ++i) ordinals[i] = i;
  }

  result.points.reserve(ordinals.size());
  for (const std::size_t ord : ordinals) {
    PointResult pr;
    pr.point = space.point(ord);
    result.points.push_back(std::move(pr));
  }

  // ---- register every distinct architecture once. Names are derived
  // from the full ArchConfig content, so an already-present "dse-..."
  // backend is the same architecture and is reused.
  for (const PointResult& pr : result.points) {
    const std::string name = pr.point.backend_name();
    if (!session_.backends().contains(name)) {
      session_.backends().register_arch(name, pr.point.arch);
    }
  }

  // ---- evaluate `survivors` on the given workloads, batched as one
  // Session job per (workload, scenario, engine, batch) group so every
  // architecture sharing a program rides one compile. Deterministic:
  // groups live in an ordered map, jobs are waited in group order, and
  // each candidate's evals grow in workload order.
  const auto evaluate = [&](const std::vector<std::size_t>& survivors,
                            const std::vector<std::size_t>& wl_ids,
                            bool promotion) {
    using GroupKey = std::tuple<std::size_t, std::string, int, std::size_t>;
    std::map<GroupKey, std::vector<std::size_t>> groups;
    for (const std::size_t wl : wl_ids) {
      for (const std::size_t i : survivors) {
        const DesignPoint& pt = result.points[i].point;
        const isa::EngineKind engine =
            promotion ? isa::EngineKind::Exact : pt.engine;
        groups[{wl, pt.scenario.name, static_cast<int>(engine), pt.batch}]
            .push_back(i);
      }
    }
    std::vector<core::Session::JobHandle> handles;
    handles.reserve(groups.size());
    for (const auto& [key, members] : groups) {
      const std::size_t wl = std::get<0>(key);
      const DesignPoint& first = result.points[members.front()].point;
      std::vector<std::string> names;
      names.reserve(members.size());
      for (const std::size_t i : members) {
        names.push_back(result.points[i].point.backend_name());
      }
      core::Session::JobOptions jopts;
      jopts.batch = first.batch;
      jopts.sim.engine =
          promotion ? isa::EngineKind::Exact : first.engine;
      jopts.sim.exact = options.exact;
      handles.push_back(session_.submit(
          workloads[wl], first.scenario.profile(workloads[wl]), names,
          jopts));
      result.evaluations += members.size();
    }
    std::size_t g = 0;
    for (const auto& [key, members] : groups) {
      const core::EvalResult& r = session_.wait(handles[g++]);
      for (const std::size_t i : members) {
        PointResult& pr = result.points[i];
        auto& evals = promotion ? pr.exact_evals : pr.evals;
        evals.push_back({workloads[std::get<0>(key)].name,
                         r.report(pr.point.backend_name())});
      }
    }
    for (const std::size_t i : survivors) {
      PointResult& pr = result.points[i];
      if (promotion) {
        pr.exact_objectives = aggregate(pr.exact_evals, pr.point.arch);
      } else {
        pr.objectives = aggregate(pr.evals, pr.point.arch);
      }
    }
  };

  // ---- rung loop. Grid/Random are one rung over every workload;
  // halving pays for workloads one at a time and thins between rungs.
  const bool halving = options.strategy == Strategy::SuccessiveHalving;
  std::vector<std::size_t> survivors(result.points.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) survivors[i] = i;

  const std::size_t rungs = halving ? workloads.size() : 1;
  for (std::size_t r = 0; r < rungs && !survivors.empty(); ++r) {
    std::vector<std::size_t> wl_ids;
    if (halving) {
      wl_ids.push_back(r);
    } else {
      for (std::size_t w = 0; w < workloads.size(); ++w) wl_ids.push_back(w);
    }
    evaluate(survivors, wl_ids, /*promotion=*/false);

    if (halving && r + 1 < rungs && survivors.size() > 1) {
      // Rank the survivors' partial objectives and keep ceil(n / eta).
      std::vector<Objectives> objs;
      objs.reserve(survivors.size());
      for (const std::size_t i : survivors) {
        objs.push_back(result.points[i].objectives);
      }
      const std::vector<std::size_t> ranks = pareto_ranks(objs);
      std::vector<std::size_t> order(survivors.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
                  const Objectives& x = objs[a];
                  const Objectives& y = objs[b];
                  if (x.latency_ms != y.latency_ms)
                    return x.latency_ms < y.latency_ms;
                  if (x.energy_uj != y.energy_uj)
                    return x.energy_uj < y.energy_uj;
                  if (x.area != y.area) return x.area < y.area;
                  return survivors[a] < survivors[b];
                });
      const auto keep = static_cast<std::size_t>(std::ceil(
          static_cast<double>(survivors.size()) / options.eta));
      std::vector<std::size_t> kept;
      kept.reserve(keep);
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i < keep) {
          kept.push_back(survivors[order[i]]);
        } else {
          result.points[survivors[order[i]]].pruned = true;
        }
      }
      std::sort(kept.begin(), kept.end());
      survivors.swap(kept);
    }
  }

  // ---- frontier over the fully evaluated candidates.
  std::vector<std::size_t> complete;
  std::vector<Objectives> objs;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    PointResult& pr = result.points[i];
    pr.complete = !pr.pruned && pr.evals.size() == workloads.size();
    if (pr.complete) {
      complete.push_back(i);
      objs.push_back(pr.objectives);
    }
  }
  for (const std::size_t f : pareto_front(objs)) {
    result.frontier.push_back(complete[f]);
    result.points[complete[f]].on_front = true;
  }

  // ---- promote the best survivors of the cheap statistical search to
  // exact validation.
  if (options.exact_validate > 0) {
    std::vector<std::size_t> promoted;
    for (const std::size_t i : result.frontier) {
      if (promoted.size() >= options.exact_validate) break;
      const DesignPoint& pt = result.points[i].point;
      // The exact engine has no dense semantics, and an Exact-axis point
      // has already been exactly evaluated.
      if (!pt.arch.sparse || pt.engine == isa::EngineKind::Exact) continue;
      promoted.push_back(i);
    }
    if (!promoted.empty()) {
      std::vector<std::size_t> wl_ids;
      for (std::size_t w = 0; w < workloads.size(); ++w) wl_ids.push_back(w);
      evaluate(promoted, wl_ids, /*promotion=*/true);
      for (const std::size_t i : promoted) {
        result.points[i].exact_validated = true;
      }
    }
  }

  const auto stats_after = session_.program_cache().stats();
  result.cache.hits = stats_after.hits - stats_before.hits;
  result.cache.misses = stats_after.misses - stats_before.misses;
  result.simulations = result.evaluations;
  result.store_attached = has_store;
  if (has_store) {
    const serve::StoreStats store_after = session_.result_store()->stats();
    result.store.hits = store_after.hits - store_before.hits;
    result.store.misses = store_after.misses - store_before.misses;
    result.store.puts = store_after.puts - store_before.puts;
    result.store.evictions = store_after.evictions - store_before.evictions;
    result.store.torn_skipped =
        store_after.torn_skipped - store_before.torn_skipped;
    result.store.publish_failures =
        store_after.publish_failures - store_before.publish_failures;
    result.store.dropped_publishes =
        store_after.dropped_publishes - store_before.dropped_publishes;
    // Health and size figures are absolute, not deltas — current store
    // state.
    result.store.read_only = store_after.read_only;
    result.store.entries = store_after.entries;
    result.store.bytes = store_after.bytes;
    result.simulations = result.evaluations - result.store.hits;
  }
  return result;
}

}  // namespace sparsetrain::dse
