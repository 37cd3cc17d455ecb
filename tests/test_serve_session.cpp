// Session ↔ store integration: store-first execution (hit skips both the
// compile and the simulation), fingerprint agreement between
// run_fingerprint() and the recorded BackendRun, byte-identical
// warm-store Explorer re-runs with zero backend evaluations, and the
// store-stats JSON export.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "core/export.hpp"
#include "core/session.hpp"
#include "dse/explorer.hpp"
#include "dse/export.hpp"
#include "serve/report_io.hpp"
#include "serve/store.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove_all(dir);
  return dir;
}

core::SessionConfig stored_config(const std::string& dir) {
  core::SessionConfig cfg;
  cfg.workers = 2;
  cfg.store = std::make_shared<serve::ResultStore>(dir);
  return cfg;
}

TEST(SessionStore, MissSimulatesHitReplaysByteExact) {
  const std::string dir = fresh_dir("session_store");
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::pruned(net, 0.9);
  const std::vector<std::string> backends = {
      core::Session::kSparseBackend, core::Session::kDenseBackend};

  std::string cold_sparse, cold_dense;
  std::uint64_t sparse_fp = 0;
  {
    core::Session session(stored_config(dir));
    const core::EvalResult r =
        session.wait(session.submit(net, profile, backends));
    for (const core::BackendRun& run : r.runs) {
      EXPECT_FALSE(run.from_store);
      EXPECT_NE(run.fingerprint, 0u);
    }
    sparse_fp = r.runs[0].fingerprint;
    cold_sparse = serve::serialize_report(
        r.report(core::Session::kSparseBackend));
    cold_dense = serve::serialize_report(
        r.report(core::Session::kDenseBackend));
    const serve::StoreStats s = session.result_store()->stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.puts, 2u);

    // run_fingerprint agrees with what the job actually recorded, on
    // both backends — the tripwire against the store key and the key
    // routers and servers place and coalesce on drifting apart.
    EXPECT_EQ(session.run_fingerprint(net, profile,
                                      core::Session::kSparseBackend),
              sparse_fp);
    EXPECT_EQ(session.run_fingerprint(net, profile,
                                      core::Session::kDenseBackend),
              r.runs[1].fingerprint);
    EXPECT_NE(r.runs[1].fingerprint, sparse_fp);

    // The same for an exact-engine job. Its dense run falls back to the
    // statistical baseline, so it keys like the statistical job's dense
    // run and replays that record.
    core::Session::JobOptions exact;
    exact.sim.engine = isa::EngineKind::Exact;
    const core::EvalResult x =
        session.wait(session.submit(net, profile, backends, exact));
    EXPECT_EQ(session.run_fingerprint(
                  net, profile, core::Session::kSparseBackend, exact),
              x.runs[0].fingerprint);
    EXPECT_EQ(session.run_fingerprint(
                  net, profile, core::Session::kDenseBackend, exact),
              x.runs[1].fingerprint);
    EXPECT_NE(x.runs[0].fingerprint, sparse_fp);
    EXPECT_EQ(x.runs[1].fingerprint, r.runs[1].fingerprint);
    EXPECT_TRUE(x.runs[1].from_store);
  }

  // A fresh session on the same store replays without simulating or
  // compiling anything, byte for byte.
  core::Session warm(stored_config(dir));
  const core::EvalResult r = warm.wait(warm.submit(net, profile, backends));
  for (const core::BackendRun& run : r.runs) {
    EXPECT_TRUE(run.from_store);
  }
  EXPECT_EQ(r.runs[0].fingerprint, sparse_fp);
  EXPECT_EQ(
      serve::serialize_report(r.report(core::Session::kSparseBackend)),
      cold_sparse);
  EXPECT_EQ(serve::serialize_report(r.report(core::Session::kDenseBackend)),
            cold_dense);
  const serve::StoreStats s = warm.result_store()->stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hit_rate(), 1.0);
  // Zero compiles: the ProgramCache was never even consulted.
  EXPECT_EQ(warm.program_cache().stats().lookups(), 0u);
  fs::remove_all(dir);
}

TEST(SessionStore, DetachedSessionNeverTouchesTheStore) {
  core::Session session;  // no store
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::pruned(net, 0.9);
  const core::EvalResult r = session.wait(
      session.submit(net, profile, {core::Session::kSparseBackend}));
  EXPECT_FALSE(r.runs[0].from_store);
  EXPECT_EQ(r.runs[0].fingerprint, 0u);
  EXPECT_EQ(session.result_store(), nullptr);
  // run_fingerprint still works (services coalesce without a store).
  EXPECT_NE(session.run_fingerprint(net, profile,
                                    core::Session::kSparseBackend),
            0u);
}

TEST(Export, StoreStatsJson) {
  const std::string dir = fresh_dir("stats_json");
  core::Session session(stored_config(dir));
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::pruned(net, 0.9);
  session.wait(session.submit(net, profile,
                              {core::Session::kSparseBackend}));

  std::ostringstream os;
  core::export_stats_json(session, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"sparsetrain.store_stats/v3\""),
            std::string::npos);
  EXPECT_NE(json.find("\"store_attached\": true"), std::string::npos);
  EXPECT_NE(json.find("\"puts\": 1"), std::string::npos);

  // Without a store the stats export says so instead of inventing zeros.
  core::Session bare;
  std::ostringstream bare_os;
  core::export_stats_json(bare, bare_os);
  EXPECT_NE(bare_os.str().find("\"store_attached\": false"),
            std::string::npos);
  EXPECT_EQ(bare_os.str().find("\"store\":"), std::string::npos);
  fs::remove_all(dir);
}

TEST(ExplorerStore, WarmRerunIsByteIdenticalWithZeroSimulations) {
  const std::string dir = fresh_dir("explorer_store");
  // A small grid in the shape of bench_dse_pareto --quick, over the tiny
  // workload so the test stays fast.
  dse::SpaceSpec space;
  space.pe_groups = {14, 28};
  space.pes_per_group = {2, 3};
  space.buffer_bytes = {192 * 1024};
  space.clock_ghz = {0.8};
  space.scenarios = {dse::Scenario::pruned(0.9)};
  const std::vector<workload::NetworkConfig> workloads = {
      workload::tiny_workload()};

  auto run = [&]() {
    core::Session session(stored_config(dir));
    dse::Explorer explorer(session);
    return explorer.explore(space, workloads, {});
  };

  const dse::ExploreResult cold = run();
  EXPECT_GT(cold.evaluations, 0u);
  EXPECT_EQ(cold.simulations, cold.evaluations);
  EXPECT_TRUE(cold.store_attached);
  EXPECT_EQ(cold.store.hits, 0u);
  EXPECT_GT(cold.store.puts, 0u);

  const dse::ExploreResult warm = run();
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(warm.simulations, 0u);  // every run replayed from the store
  EXPECT_EQ(warm.store.hit_rate(), 1.0);
  EXPECT_EQ(warm.store.misses, 0u);
  EXPECT_EQ(warm.cache.misses, 0u);  // zero compiles on the warm run

  // The exploration artifacts are byte-identical. The cache counters in
  // the JSON export legitimately differ (a warm run does no cache
  // lookups), so compare the export with both results' service counters
  // zeroed — everything simulated must match exactly.
  auto points_csv = [](const dse::ExploreResult& r) {
    std::ostringstream os;
    dse::export_points_csv(r, os);
    return os.str();
  };
  auto frontier_csv = [](const dse::ExploreResult& r) {
    std::ostringstream os;
    dse::export_frontier_csv(r, os);
    return os.str();
  };
  auto json_no_counters = [](dse::ExploreResult r) {
    r.cache = {};
    r.store = {};
    std::ostringstream os;
    dse::export_json(r, os);
    return os.str();
  };
  EXPECT_EQ(points_csv(warm), points_csv(cold));
  EXPECT_EQ(frontier_csv(warm), frontier_csv(cold));
  EXPECT_EQ(json_no_counters(warm), json_no_counters(cold));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sparsetrain
