// Explorer tests: space enumeration, byte-identical exploration output
// across session worker counts, strategy behaviour (random sampling,
// successive halving, exact promotion), ProgramCache
// sharing, ArchConfig validation at every boundary, valid JSON export
// for any scenario name, and the acceptance grid (≥200 architectures × 2 zoo workloads, ≥50% cache hit-rate,
// brute-force-verified frontier).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "dse/explorer.hpp"
#include "dse/export.hpp"
#include "serve/json.hpp"
#include "util/require.hpp"
#include "workload/layer_config.hpp"

namespace sparsetrain {
namespace {

using dse::ExploreOptions;
using dse::ExploreResult;
using dse::Explorer;
using dse::Scenario;
using dse::SpaceSpec;
using dse::Strategy;

/// Small multi-axis space over the tiny test workload.
SpaceSpec tiny_space() {
  SpaceSpec space;
  space.pe_groups = {4, 8};
  space.pes_per_group = {2, 3};
  space.buffer_bytes = {64 * 1024};
  space.sparse = {true, false};
  space.batch = {1, 2};
  space.scenarios = {Scenario::dense(), Scenario::pruned(0.9)};
  return space;
}

ExploreResult explore_tiny(std::size_t workers, const ExploreOptions& opts,
                           SpaceSpec space = tiny_space()) {
  core::SessionConfig cfg;
  cfg.workers = workers;
  core::Session session(cfg);
  Explorer explorer(session);
  return explorer.explore(space, {workload::tiny_workload()}, opts);
}

std::string to_json(const ExploreResult& result) {
  std::ostringstream os;
  dse::export_json(result, os);
  return os.str();
}

// -------------------------------------------------------------- SpaceSpec

TEST(SpaceSpec, EnumerationCoversTheCrossProductOnce) {
  const SpaceSpec space = tiny_space();
  EXPECT_EQ(space.size(), 2u * 2u * 2u * 2u * 2u);
  EXPECT_EQ(space.arch_points(), 2u * 2u * 2u);
  std::set<std::string> labels;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const dse::DesignPoint pt = space.point(i);
    EXPECT_EQ(pt.index, i);
    labels.insert(pt.label());
  }
  EXPECT_EQ(labels.size(), space.size());  // every point distinct
  EXPECT_THROW(space.point(space.size()), ContractError);
}

TEST(SpaceSpec, FingerprintTracksContent) {
  const SpaceSpec a = tiny_space();
  SpaceSpec b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.pe_groups.push_back(16);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  SpaceSpec c = a;
  c.scenarios[1] = Scenario::pruned(0.7);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(SpaceSpec, ValidateRejectsMalformedSpaces) {
  SpaceSpec empty_axis = tiny_space();
  empty_axis.clock_ghz.clear();
  EXPECT_THROW(empty_axis.validate(), ContractError);

  SpaceSpec dup_axis = tiny_space();
  dup_axis.pe_groups = {8, 8};
  EXPECT_THROW(dup_axis.validate(), ContractError);

  SpaceSpec dup_scenario = tiny_space();
  dup_scenario.scenarios = {Scenario::dense(), Scenario::dense()};
  EXPECT_THROW(dup_scenario.validate(), ContractError);

  SpaceSpec bad_density = tiny_space();
  bad_density.scenarios = {Scenario::calibrated("zero", 0.0, 0.5)};
  EXPECT_THROW(bad_density.validate(), ContractError);

  SpaceSpec bad_batch = tiny_space();
  bad_batch.batch = {0};
  EXPECT_THROW(bad_batch.validate(), ContractError);

  SpaceSpec bad_arch = tiny_space();
  bad_arch.pe_groups = {0};
  EXPECT_THROW(bad_arch.validate(), ContractError);
}

TEST(SpaceSpec, BackendNamesDistinguishBaseConfigs) {
  const SpaceSpec space = tiny_space();
  SpaceSpec other = space;
  other.base.energy.mac_pj *= 2.0;  // not an axis — must still split names
  EXPECT_NE(space.point(0).backend_name(), other.point(0).backend_name());
}

// ------------------------------------------------------ ArchConfig checks

TEST(ArchConfigValidate, RejectsNonsenseWithFieldNames) {
  sim::ArchConfig ok;
  EXPECT_NO_THROW(ok.validate());

  sim::ArchConfig zero_groups;
  zero_groups.pe_groups = 0;
  EXPECT_THROW(zero_groups.validate(), ContractError);
  try {
    zero_groups.validate();
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("pe_groups"), std::string::npos);
  }

  sim::ArchConfig zero_clock;
  zero_clock.clock_ghz = 0.0;
  EXPECT_THROW(zero_clock.validate(), ContractError);

  sim::ArchConfig tiny_buffer;
  tiny_buffer.buffer_bytes = 16;
  EXPECT_THROW(tiny_buffer.validate(), ContractError);

  sim::ArchConfig huge_buffer;
  huge_buffer.buffer_bytes = std::size_t{3} << 30;
  EXPECT_THROW(huge_buffer.validate(), ContractError);
}

TEST(ArchConfigValidate, EnforcedAtBackendRegistration) {
  sim::BackendRegistry registry;
  sim::ArchConfig bad;
  bad.pe_groups = 0;
  EXPECT_THROW(registry.register_arch("bad", bad), ContractError);
  sim::ArchConfig good;
  EXPECT_NO_THROW(registry.register_arch("good", good));
}

// ------------------------------------------------------------ determinism

TEST(Explorer, ByteIdenticalAcrossWorkerCounts) {
  ExploreOptions opts;
  opts.exact_validate = 2;  // exercise the exact promotion path too
  const std::string w1 = to_json(explore_tiny(1, opts));
  EXPECT_EQ(w1, to_json(explore_tiny(2, opts)));
  EXPECT_EQ(w1, to_json(explore_tiny(7, opts)));
}

TEST(Explorer, RandomStrategyByteIdenticalAcrossWorkerCounts) {
  ExploreOptions opts;
  opts.strategy = Strategy::Random;
  opts.samples = 9;
  opts.seed = 42;
  const std::string w1 = to_json(explore_tiny(1, opts));
  EXPECT_EQ(w1, to_json(explore_tiny(2, opts)));
  EXPECT_EQ(w1, to_json(explore_tiny(7, opts)));
}

// --------------------------------------------------------------- sampling

TEST(Explorer, RandomSamplingIsASeededSubset) {
  ExploreOptions opts;
  opts.strategy = Strategy::Random;
  opts.samples = 9;
  opts.seed = 7;
  const ExploreResult a = explore_tiny(1, opts);
  ASSERT_EQ(a.points.size(), 9u);
  const SpaceSpec space = tiny_space();
  std::set<std::size_t> seen;
  for (const auto& p : a.points) {
    EXPECT_LT(p.point.index, space.size());
    EXPECT_TRUE(seen.insert(p.point.index).second) << "duplicate candidate";
    EXPECT_TRUE(p.complete);
  }
  // Enumeration order is preserved.
  for (std::size_t i = 1; i < a.points.size(); ++i) {
    EXPECT_LT(a.points[i - 1].point.index, a.points[i].point.index);
  }
  // A different seed picks a different subset (with overwhelming
  // probability for 9 of 32 — pinned by the fixed seeds here).
  opts.seed = 8;
  const ExploreResult b = explore_tiny(1, opts);
  std::vector<std::size_t> ia, ib;
  for (const auto& p : a.points) ia.push_back(p.point.index);
  for (const auto& p : b.points) ib.push_back(p.point.index);
  EXPECT_NE(ia, ib);
}

TEST(Explorer, SamplesLargerThanSpaceMeansEverything) {
  ExploreOptions opts;
  opts.strategy = Strategy::Random;
  opts.samples = 10000;
  const ExploreResult r = explore_tiny(1, opts);
  EXPECT_EQ(r.points.size(), tiny_space().size());
}

// ---------------------------------------------------- halving and pruning

TEST(Explorer, SuccessiveHalvingThinsBetweenRungs) {
  core::Session session;
  Explorer explorer(session);
  SpaceSpec space = tiny_space();
  space.batch = {1};
  space.scenarios = {Scenario::pruned(0.9)};
  ASSERT_EQ(space.size(), 8u);
  ExploreOptions opts;
  opts.strategy = Strategy::SuccessiveHalving;
  opts.eta = 2.0;
  const auto result =
      explorer.explore(space, {workload::tiny_workload(),
                               workload::alexnet_cifar()},
                       opts);
  std::size_t complete = 0, pruned = 0;
  for (const auto& p : result.points) {
    if (p.complete) {
      ++complete;
      EXPECT_EQ(p.evals.size(), 2u);
    }
    if (p.pruned) {
      ++pruned;
      EXPECT_EQ(p.evals.size(), 1u);  // paid for the first rung only
      EXPECT_FALSE(p.on_front);
    }
  }
  EXPECT_EQ(complete, 4u);  // ceil(8 / 2)
  EXPECT_EQ(pruned, 4u);
  EXPECT_FALSE(result.frontier.empty());
}

// --------------------------------------------------------- exact promotion

TEST(Explorer, ExactValidatePromotesSparseFrontierPoints) {
  ExploreOptions opts;
  opts.exact_validate = 3;
  const ExploreResult r = explore_tiny(2, opts);
  std::size_t promoted = 0;
  for (const auto& p : r.points) {
    if (!p.exact_validated) continue;
    ++promoted;
    EXPECT_TRUE(p.on_front);
    EXPECT_TRUE(p.point.arch.sparse);  // dense points are never promoted
    ASSERT_EQ(p.exact_evals.size(), 1u);
    EXPECT_EQ(p.exact_evals[0].report.engine, isa::EngineKind::Exact);
    EXPECT_GT(p.exact_objectives.latency_ms, 0.0);
  }
  EXPECT_GT(promoted, 0u);
  EXPECT_LE(promoted, 3u);
}

// ----------------------------------------------------------- cache sharing

TEST(Explorer, ProgramCacheSharedAcrossArchitectures) {
  core::Session session;
  Explorer explorer(session);
  SpaceSpec space;
  space.pe_groups = {2, 4, 6, 8};
  space.pes_per_group = {1, 2};
  space.buffer_bytes = {64 * 1024};
  space.scenarios = {Scenario::pruned(0.9)};
  const auto result =
      explorer.explore(space, {workload::tiny_workload()});
  // Eight architectures share one (net, profile, options) program.
  EXPECT_EQ(result.cache.misses, 1u);
  EXPECT_EQ(result.cache.lookups(), 8u);
  EXPECT_GE(result.cache_hit_rate(), 0.5);
}

// ------------------------------------------------------------- find helper

TEST(Explorer, JsonExportEscapesControlCharactersInNames) {
  SpaceSpec space = tiny_space();
  space.pe_groups = {4};
  space.pes_per_group = {2};
  space.sparse = {true};
  space.batch = {1};
  space.scenarios = {Scenario::calibrated("table\tII", 0.5, 0.4)};
  const ExploreResult result = explore_tiny(1, ExploreOptions{}, space);
  const serve::JsonValue doc = serve::parse_json(to_json(result));
  ASSERT_NE(doc.find("points"), nullptr);
  const auto& points = doc.find("points")->as_array();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].get_string("scenario", ""), "table\tII");
}

TEST(Explorer, FindLocatesCompletePointsOnly) {
  const ExploreResult r = explore_tiny(1, {});
  EXPECT_NE(r.find([](const dse::DesignPoint& p) {
    return p.arch.pe_groups == 8 && p.arch.sparse;
  }),
            nullptr);
  EXPECT_EQ(r.find([](const dse::DesignPoint& p) {
    return p.arch.pe_groups == 999;
  }),
            nullptr);
}

// ------------------------------------------------------- acceptance grid

TEST(Explorer, AcceptanceGridTwoZooWorkloads) {
  // ≥ 200 architectures × 2 zoo workloads through one Session: the
  // ProgramCache keeps compiles at two per engine-profile, the frontier
  // is non-empty and brute-force verified.
  core::Session session;
  Explorer explorer(session);
  SpaceSpec space;
  space.pe_groups = {7, 14, 28, 42, 56, 84, 112, 168, 224};
  space.pes_per_group = {2, 3, 4};
  space.buffer_bytes = {96 * 1024, 192 * 1024, 386 * 1024, 772 * 1024};
  space.clock_ghz = {0.8, 1.0};
  space.scenarios = {Scenario::pruned(0.9)};
  ASSERT_GE(space.arch_points(), 200u);

  const auto result = explorer.explore(
      space, {workload::find_workload("AlexNet/CIFAR").net,
              workload::find_workload("ResNet-18/CIFAR").net});

  EXPECT_EQ(result.points.size(), space.size());
  EXPECT_EQ(result.evaluations, space.size() * 2);
  EXPECT_GE(result.cache_hit_rate(), 0.5);
  ASSERT_FALSE(result.frontier.empty());

  // Brute-force dominance check of the reported frontier.
  std::vector<dse::Objectives> objs;
  for (const auto& p : result.points) {
    ASSERT_TRUE(p.complete);
    objs.push_back(p.objectives);
  }
  std::vector<bool> on_front(objs.size(), false);
  for (const std::size_t i : result.frontier) on_front[i] = true;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < objs.size(); ++j) {
      if (dse::dominates(objs[j], objs[i])) {
        dominated = true;
        break;
      }
    }
    EXPECT_EQ(result.points[i].on_front, on_front[i]);
    EXPECT_EQ(on_front[i], !dominated)
        << "frontier flag disagrees with brute force at point " << i;
  }
}

}  // namespace
}  // namespace sparsetrain
