// Evaluation-service tests: BackendRegistry, ProgramCache hit/miss
// semantics, Session submit/wait determinism across worker counts, job
// handles that own their results, and the CSV/JSON exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "compiler/program_cache.hpp"
#include "core/export.hpp"
#include "core/session.hpp"
#include "sim/backend.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

using core::EvalResult;
using core::Session;
using core::SessionConfig;
using workload::NetworkConfig;
using workload::SparsityProfile;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverythingAndWaitsIdle) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, FuturePropagatesExceptions) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// ----------------------------------------------------------- ProgramCache

TEST(ProgramCache, SameFingerprintReturnsSameProgramPointer) {
  compiler::ProgramCache cache;
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::pruned(net, 0.9);

  const auto a = cache.get(net, profile);
  const auto b = cache.get(net, profile);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(compiler::ProgramCache::fingerprint(net, profile),
            compiler::ProgramCache::fingerprint(net, profile));
}

TEST(ProgramCache, ChangedDensityRecompiles) {
  compiler::ProgramCache cache;
  const auto net = workload::tiny_workload();
  const auto p90 = SparsityProfile::pruned(net, 0.9);
  const auto p70 = SparsityProfile::pruned(net, 0.7);

  const auto a = cache.get(net, p90);
  const auto b = cache.get(net, p70);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(compiler::ProgramCache::fingerprint(net, p90),
            compiler::ProgramCache::fingerprint(net, p70));
}

TEST(ProgramCache, ChangedOptionsRecompile) {
  compiler::ProgramCache cache;
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::dense(net);

  compiler::CompileOptions batch1;
  compiler::CompileOptions batch4;
  batch4.batch = 4;
  const auto a = cache.get(net, profile, batch1);
  const auto b = cache.get(net, profile, batch4);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(compiler::ProgramCache::fingerprint(net, profile, batch1),
            compiler::ProgramCache::fingerprint(net, profile, batch4));
}

// -------------------------------------------------------- BackendRegistry

TEST(BackendRegistry, RegistersAndLooksUpByName) {
  sim::BackendRegistry registry;
  sim::ArchConfig sparse;
  sim::ArchConfig dense;
  dense.name = "dense";
  dense.sparse = false;
  registry.register_arch("a", sparse);
  registry.register_arch("b", dense);

  EXPECT_TRUE(registry.contains("a"));
  EXPECT_FALSE(registry.contains("c"));
  EXPECT_EQ(registry.find("c"), nullptr);
  EXPECT_EQ(registry.at("b").arch().sparse, false);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_THROW(registry.at("c"), ContractError);
}

TEST(BackendRegistry, RejectsDuplicateNames) {
  sim::BackendRegistry registry;
  registry.register_arch("a", sim::ArchConfig{});
  EXPECT_THROW(registry.register_arch("a", sim::ArchConfig{}), ContractError);
  EXPECT_THROW(registry.register_arch("", sim::ArchConfig{}), ContractError);
}

// ---------------------------------------------------------------- Session

bool reports_identical(const sim::SimReport& a, const sim::SimReport& b) {
  if (a.program_name != b.program_name || a.arch_name != b.arch_name ||
      a.backend != b.backend || a.profile_name != b.profile_name ||
      a.clock_ghz != b.clock_ghz || a.total_pes != b.total_pes ||
      a.total_cycles != b.total_cycles) {
    return false;
  }
  if (a.activity.macs != b.activity.macs ||
      a.activity.reg_accesses != b.activity.reg_accesses ||
      a.activity.sram_bytes != b.activity.sram_bytes ||
      a.activity.dram_bytes != b.activity.dram_bytes ||
      a.activity.busy_cycles != b.activity.busy_cycles) {
    return false;
  }
  if (a.energy.comb_pj != b.energy.comb_pj ||
      a.energy.reg_pj != b.energy.reg_pj ||
      a.energy.sram_pj != b.energy.sram_pj ||
      a.energy.dram_pj != b.energy.dram_pj) {
    return false;
  }
  if (a.stages.size() != b.stages.size()) return false;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    if (a.stages[i].cycles != b.stages[i].cycles ||
        a.stages[i].layer_index != b.stages[i].layer_index ||
        a.stages[i].stage != b.stages[i].stage) {
      return false;
    }
  }
  return true;
}

std::vector<EvalResult> run_sweep(std::size_t workers) {
  SessionConfig cfg;
  cfg.workers = workers;
  Session session(cfg);
  sim::ArchConfig half = cfg.sparse_arch;
  half.name = "SparseTrain-28g";
  half.pe_groups = 28;
  session.backends().register_arch("sparsetrain-28g", half);

  const std::vector<std::string> backends = {
      Session::kSparseBackend, Session::kDenseBackend, "sparsetrain-28g"};
  std::vector<Session::JobHandle> jobs;
  for (const auto& net :
       {workload::tiny_workload(), workload::alexnet_cifar()}) {
    for (const double p : {0.7, 0.9}) {
      jobs.push_back(
          session.submit(net, SparsityProfile::pruned(net, p), backends));
    }
  }
  std::vector<EvalResult> results;
  for (const auto& job : jobs) results.push_back(session.wait(job));
  return results;
}

TEST(Session, ReportsAreIdenticalForAnyWorkerCount) {
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t j = 0; j < serial.size(); ++j) {
    ASSERT_EQ(serial[j].runs.size(), parallel[j].runs.size());
    for (std::size_t i = 0; i < serial[j].runs.size(); ++i) {
      EXPECT_EQ(serial[j].runs[i].backend, parallel[j].runs[i].backend);
      EXPECT_TRUE(reports_identical(serial[j].runs[i].report,
                                    parallel[j].runs[i].report))
          << "job " << j << " backend " << serial[j].runs[i].backend;
    }
  }
}

TEST(Session, SubmitAgainstRegisteredVariantBackends) {
  Session session;
  sim::ArchConfig big = session.config().sparse_arch;
  big.name = "SparseTrain-112g";
  big.pe_groups = 112;
  session.backends().register_arch("sparsetrain-112g", big);

  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::pruned(net, 0.9);
  const auto job = session.submit(
      net, profile,
      {Session::kSparseBackend, Session::kDenseBackend, "sparsetrain-112g"});
  const EvalResult& r = session.wait(job);

  // One run per named backend, in the order they were named.
  ASSERT_EQ(r.runs.size(), 3u);
  EXPECT_EQ(r.runs[0].backend, Session::kSparseBackend);
  EXPECT_EQ(r.runs[1].backend, Session::kDenseBackend);
  EXPECT_EQ(r.runs[2].backend, "sparsetrain-112g");
  // The dense backend runs an all-dense profile.
  EXPECT_EQ(r.report(Session::kDenseBackend).profile_name, "dense");
  EXPECT_EQ(r.report(Session::kSparseBackend).profile_name, profile.name());
  // Twice the PE groups should not be slower.
  EXPECT_LE(r.report("sparsetrain-112g").total_cycles,
            r.report(Session::kSparseBackend).total_cycles);
  EXPECT_THROW(r.report("nonexistent"), ContractError);
}

TEST(Session, SubmitRejectsUnknownBackends) {
  Session session;
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::dense(net);
  EXPECT_THROW(session.submit(net, profile, {"nope"}), ContractError);
  EXPECT_THROW(session.submit(net, profile, {}), ContractError);
  // The same backend twice in one job would produce ambiguous
  // report() lookups — rejected up front.
  EXPECT_THROW(session.submit(net, profile,
                              {Session::kSparseBackend,
                               Session::kSparseBackend}),
               ContractError);
}

/// Backend whose run always fails, for error-propagation tests.
class ExplodingBackend : public sim::Backend {
 public:
  const std::string& name() const override { return name_; }
  const char* kind() const override { return "exploding"; }
  const sim::ArchConfig& arch() const override { return cfg_; }
  using sim::Backend::run;
  sim::SimReport run(const isa::Program&, const workload::NetworkConfig&,
                     const workload::SparsityProfile&, std::uint64_t,
                     const sim::ExactOptions&) const override {
    throw std::runtime_error("backend exploded");
  }

 private:
  std::string name_ = "exploding";
  sim::ArchConfig cfg_;
};

// ------------------------------------------------------------- exact mode

TEST(Session, ExactJobsDeterministicAcrossWorkersAndTiles) {
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::pruned(net, 0.9);

  auto run = [&](std::size_t pool_workers, std::size_t exact_workers,
                 std::size_t tile) {
    SessionConfig cfg;
    cfg.workers = pool_workers;
    Session session(cfg);
    Session::JobOptions options;
    options.sim.engine = isa::EngineKind::Exact;
    options.sim.exact.workers = exact_workers;
    options.sim.exact.tile_tasks = tile;
    const auto job = session.submit(
        net, profile, {Session::kSparseBackend, Session::kDenseBackend},
        options);
    return session.wait(job);
  };

  const EvalResult a = run(1, 1, 0);
  const EvalResult b = run(4, 8, 3);
  const auto& ra = a.report(Session::kSparseBackend);
  const auto& rb = b.report(Session::kSparseBackend);
  EXPECT_GT(ra.total_cycles, 0u);
  EXPECT_EQ(ra.total_cycles, rb.total_cycles);
  EXPECT_EQ(ra.activity.busy_cycles, rb.activity.busy_cycles);
  EXPECT_EQ(ra.activity.macs, rb.activity.macs);
  // Sparse side ran exactly; the dense baseline has no exact semantics
  // and keeps the statistical model.
  EXPECT_EQ(ra.engine, isa::EngineKind::Exact);
  EXPECT_EQ(a.report(Session::kDenseBackend).engine,
            isa::EngineKind::Statistical);
  EXPECT_EQ(a.report(Session::kDenseBackend).total_cycles,
            b.report(Session::kDenseBackend).total_cycles);
}

TEST(Session, ExactAndStatisticalJobsCacheSeparatePrograms) {
  Session session;
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::pruned(net, 0.9);

  Session::JobOptions exact;
  exact.sim.engine = isa::EngineKind::Exact;
  session.wait(session.submit(net, profile, {Session::kSparseBackend}));
  session.wait(
      session.submit(net, profile, {Session::kSparseBackend}, exact));
  // Engine choice is program metadata, so the cache key differs.
  EXPECT_EQ(session.program_cache().stats().misses, 2u);
  // Re-submitting either engine hits.
  session.wait(
      session.submit(net, profile, {Session::kSparseBackend}, exact));
  EXPECT_EQ(session.program_cache().stats().misses, 2u);
  EXPECT_GT(session.program_cache().stats().hits, 0u);
}

TEST(Session, TaskErrorsRethrownOnEveryWaitAndSiblingsStillRun) {
  Session session;
  session.backends().add(std::make_shared<ExplodingBackend>());
  const auto net = workload::tiny_workload();
  const auto job = session.submit(net, SparsityProfile::pruned(net, 0.9),
                                  {"exploding", Session::kSparseBackend});
  EXPECT_THROW(session.wait(job), std::runtime_error);
  // The error is sticky, not swallowed after the first wait, and every
  // copy of the handle carries it.
  EXPECT_THROW(session.wait(job), std::runtime_error);
  const Session::JobHandle copy = job;
  EXPECT_THROW(session.wait(copy), std::runtime_error);
  // The healthy sibling task was still drained, not abandoned mid-write.
  const auto j2 = session.submit(net, SparsityProfile::pruned(net, 0.9),
                                 {Session::kSparseBackend});
  EXPECT_GT(session.wait(j2).report(Session::kSparseBackend).total_cycles,
            0u);
}

TEST(Session, ProgramCacheSharedAcrossJobsAndBackends) {
  Session session;
  const auto net = workload::tiny_workload();
  const std::vector<std::string> backends = {Session::kSparseBackend,
                                             Session::kDenseBackend};
  // 4 jobs × 2 backends = 8 program requests; distinct programs are the
  // two sparse profiles + the shared dense one.
  std::vector<Session::JobHandle> jobs;
  for (const double p : {0.7, 0.9}) {
    jobs.push_back(
        session.submit(net, SparsityProfile::pruned(net, p), backends));
    jobs.push_back(
        session.submit(net, SparsityProfile::pruned(net, p), backends));
  }
  for (const auto& job : jobs) session.wait(job);
  const auto stats = session.program_cache().stats();
  EXPECT_EQ(stats.lookups(), 8u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 5u);
}

TEST(Session, EvaluateMatchesSubmitPath) {
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::pruned(net, 0.9);
  const std::vector<std::string> backends = {Session::kSparseBackend,
                                             Session::kDenseBackend};

  // Seeds derive from content, not submission order, so evaluate() in
  // the SAME session reproduces the submit path bit-exactly.
  Session a;
  const auto job = a.submit(net, profile, backends);
  const EvalResult& via_submit = a.wait(job);
  const EvalResult via_evaluate = a.evaluate(net, profile, backends);
  // And the same evaluation repeated is bit-identical too.
  const EvalResult again = a.evaluate(net, profile, backends);
  ASSERT_EQ(via_evaluate.runs.size(), backends.size());
  for (const std::string& backend : backends) {
    EXPECT_TRUE(reports_identical(via_submit.report(backend),
                                  via_evaluate.report(backend)))
        << backend;
    EXPECT_TRUE(reports_identical(via_evaluate.report(backend),
                                  again.report(backend)))
        << backend;
  }
}

TEST(Session, BatchOverridePerJob) {
  Session session;
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::dense(net);
  Session::JobOptions batch4;
  batch4.batch = 4;
  const auto j1 = session.submit(net, profile, {Session::kSparseBackend});
  const auto j4 =
      session.submit(net, profile, {Session::kSparseBackend}, batch4);
  const auto& r1 = session.wait(j1).report(Session::kSparseBackend);
  const auto& r4 = session.wait(j4).report(Session::kSparseBackend);
  EXPECT_GT(r4.total_cycles, r1.total_cycles);
  // Distinct compile options → two programs, no false cache hit.
  EXPECT_EQ(session.program_cache().stats().misses, 2u);
}

TEST(Session, ResultOutlivesItsSession) {
  const auto net = workload::tiny_workload();
  const auto profile = SparsityProfile::pruned(net, 0.9);
  Session::JobHandle copy;
  {
    Session session;
    const Session::JobHandle job =
        session.submit(net, profile, {Session::kSparseBackend});
    copy = job;
  }  // nobody waited: the session finishes the job as it dies
  ASSERT_TRUE(copy.valid());
  const EvalResult& r = copy.get();
  // Seeds derive from content, so a fresh session reproduces the report.
  const EvalResult want =
      Session().evaluate(net, profile, {Session::kSparseBackend});
  EXPECT_GT(r.report(Session::kSparseBackend).total_cycles, 0u);
  EXPECT_TRUE(reports_identical(r.report(Session::kSparseBackend),
                                want.report(Session::kSparseBackend)));
}

TEST(Session, WaitOnAnEmptyHandleThrows) {
  Session session;
  EXPECT_THROW(session.wait(Session::JobHandle{}), ContractError);
}

TEST(Session, EmptyNetworkGivesErrorsNotNaNs) {
  Session session;
  NetworkConfig empty;
  empty.name = "empty";
  const EvalResult result =
      session.evaluate(empty, SparsityProfile::dense(empty),
                       {Session::kSparseBackend, Session::kDenseBackend});
  EXPECT_EQ(result.report(Session::kSparseBackend).total_cycles, 0u);
  EXPECT_THROW(
      result.cycle_ratio(Session::kDenseBackend, Session::kSparseBackend),
      ContractError);
  EXPECT_THROW(
      result.energy_ratio(Session::kDenseBackend, Session::kSparseBackend),
      ContractError);
}

// ----------------------------------------------------------------- export

TEST(Export, CsvHasOneRowPerBackendRun) {
  Session session;
  const auto net = workload::tiny_workload();
  const auto job =
      session.submit(net, SparsityProfile::pruned(net, 0.9),
                     {Session::kSparseBackend, Session::kDenseBackend});
  const std::vector<EvalResult> results = {session.wait(job)};

  std::ostringstream csv;
  core::export_csv(results, csv);
  const std::string text = csv.str();
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 runs
  EXPECT_NE(text.find("sparsetrain"), std::string::npos);
  EXPECT_NE(text.find("eyeriss-dense"), std::string::npos);
  EXPECT_NE(text.find(net.name), std::string::npos);

  std::ostringstream json;
  core::export_json(results, json);
  EXPECT_NE(json.str().find("\"backend\": \"sparsetrain\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"stages\": ["), std::string::npos);
  EXPECT_NE(json.str().find("\"total_cycles\": "), std::string::npos);
}

}  // namespace
}  // namespace sparsetrain
