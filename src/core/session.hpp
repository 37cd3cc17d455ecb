// Top-level SparseTrain API: an evaluation service.
//
// A Session owns a BackendRegistry of named architectures ("sparsetrain",
// "eyeriss-dense", plus any ArchConfig variant you register), a
// ProgramCache that compiles each (network, sparsity profile, options)
// once, and a fixed-size thread pool that executes submitted jobs in
// parallel. Every run gets a deterministic seed derived from (session
// seed, compiler inputs, backend name), so results are a pure function
// of the inputs — byte-identical whatever the worker count or the order
// jobs were submitted in.
//
// Typical use (see examples/quickstart.cpp):
//   core::Session session;
//   auto net = workload::alexnet_cifar();
//   auto profile = workload::SparsityProfile::pruned(net, 0.9);
//
//   // Evaluation service: submit jobs against any registered backends.
//   sim::ArchConfig half = session.config().sparse_arch;
//   half.pe_groups = 28;
//   session.backends().register_arch("sparsetrain-28g", half);
//   auto job = session.submit(net, profile,
//                             {"sparsetrain", "eyeriss-dense",
//                              "sparsetrain-28g"});
//   const core::EvalResult& r = session.wait(job);  // lives while job does
//   r.report("sparsetrain").latency_ms();
//   r.cycle_ratio("eyeriss-dense", "sparsetrain");   // the Fig. 8 speedup
//   r.energy_ratio("eyeriss-dense", "sparsetrain");  // the Fig. 9 efficiency
//
//   // Or one blocking call that returns the result by value:
//   core::EvalResult e =
//       session.evaluate(net, profile, {"sparsetrain", "eyeriss-dense"});
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "compiler/program_cache.hpp"
#include "obs/engine_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/store.hpp"
#include "sim/backend.hpp"
#include "util/thread_pool.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::core {

struct SessionConfig {
  sim::ArchConfig sparse_arch;    ///< defaults to SparseTrain 168 PE
  sim::ArchConfig baseline_arch;  ///< defaults to the dense baseline
  std::size_t batch = 1;          ///< samples per iteration
  std::size_t workers = 0;        ///< pool size; 0 = hardware concurrency
  std::uint64_t seed = 1;         ///< base of the per-run seed derivation
  /// Optional persistent result store. When set, every backend run first
  /// consults the store (a hit skips compilation AND simulation — the
  /// stored report is byte-identical to what the run would produce) and
  /// publishes its report after simulating — one result record per
  /// computed run, nothing else — so results persist across processes
  /// and users. Publication is best-effort: a store that has degraded to
  /// read-only (persistent publish failures, e.g. a full disk) drops the
  /// put, counting it in StoreStats::dropped_publishes, and the
  /// evaluation still completes normally.
  /// Shared ownership: several sessions may point at one store.
  std::shared_ptr<serve::ResultStore> store;
  /// Metrics registry the session instruments itself on (program-cache
  /// counters plus per-phase latency histograms session_*_seconds); must
  /// outlive the session. nullptr = the cache counts on a private
  /// registry, and no histogram records, no timestamps are read.
  obs::Registry* metrics = nullptr;
  /// Record per-stage engine profiles (engine_stage_* on `metrics`) for
  /// every exact run. Requires `metrics`; simulated numbers are
  /// byte-identical either way, and with this off the engine reads no
  /// clocks at all.
  bool profile_engine = false;

  SessionConfig();
};

/// One backend's report within a job.
struct BackendRun {
  std::string backend;
  sim::SimReport report;
  /// Content fingerprint of this run (serve::fingerprint_v1); 0 when the
  /// session has no store attached.
  std::uint64_t fingerprint = 0;
  /// True when the report was served from the persistent store instead
  /// of being simulated.
  bool from_store = false;
};

/// Multi-way outcome of one submitted job: one report per requested
/// backend, in the order the backends were named at submit().
struct EvalResult {
  workload::NetworkConfig net;
  std::string profile_name;
  std::vector<BackendRun> runs;

  /// Report of the named backend; throws ContractError when the job was
  /// not submitted against it.
  const sim::SimReport& report(const std::string& backend) const;

  /// cycles(numerator) / cycles(denominator) — e.g. the Fig. 8 speedup is
  /// cycle_ratio("eyeriss-dense", "sparsetrain").
  double cycle_ratio(const std::string& numerator,
                     const std::string& denominator) const;

  /// on-chip energy(numerator) / on-chip energy(denominator) — e.g. the
  /// Fig. 9 energy efficiency is energy_ratio("eyeriss-dense",
  /// "sparsetrain"). On-chip is the synthesised design plus its buffer,
  /// as in the paper's breakdown; DRAM is reported separately.
  double energy_ratio(const std::string& numerator,
                      const std::string& denominator) const;
};

class Session {
 public:
  /// Names the constructor registers for the two paper architectures.
  static constexpr const char* kSparseBackend = "sparsetrain";
  static constexpr const char* kDenseBackend = "eyeriss-dense";

  /// A submitted job's future. It, not the session, owns the job's
  /// result: copies share it, and it outlives the session that ran it.
  /// A default-constructed handle is empty.
  using JobHandle = std::shared_future<EvalResult>;

  /// Per-job overrides.
  struct JobOptions {
    std::size_t batch = 0;  ///< samples per iteration; 0 = session default
    /// Engine selection + exact-mode parallelism for this job.
    /// `sim.engine = isa::EngineKind::Exact` makes sparse backends re-drive
    /// the program through the tensor-driven exact engine (results are
    /// byte-identical for any worker count / tile size); dense backends
    /// keep the statistical model, which is the only one with dense
    /// semantics. When `sim.exact.workers != 1` the run borrows the
    /// session's own pool (no per-job thread spawn): stage-graph units
    /// and stage tiles interleave with other jobs' tasks in one
    /// two-level schedule.
    sim::SimOptions sim;
    /// Tracing context of the request this job serves (inactive by
    /// default). When active, the job's phase spans (store.lookup,
    /// compile, simulate, store.publish) parent under it.
    obs::SpanContext trace;
  };

  explicit Session(SessionConfig cfg = SessionConfig{});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionConfig& config() const { return cfg_; }

  /// The backend registry. Register ArchConfig variants here before
  /// submitting against their names.
  sim::BackendRegistry& backends() { return registry_; }
  const sim::BackendRegistry& backends() const { return registry_; }

  /// The shared compiled-program cache (hit/miss stats for sweep logs).
  compiler::ProgramCache& program_cache() { return cache_; }
  const compiler::ProgramCache& program_cache() const { return cache_; }

  /// The persistent result store, or nullptr when none is attached.
  const std::shared_ptr<serve::ResultStore>& result_store() const {
    return cfg_.store;
  }

  /// The store key this session would use for one backend run of
  /// (net, profile) under `options` — exactly the fingerprint a
  /// submitted job records in BackendRun::fingerprint. Lets services
  /// coalesce identical requests on the real storage key. Throws on
  /// unknown backend names.
  std::uint64_t run_fingerprint(const workload::NetworkConfig& net,
                                const workload::SparsityProfile& profile,
                                const std::string& backend_name,
                                const JobOptions& options) const;
  std::uint64_t run_fingerprint(const workload::NetworkConfig& net,
                                const workload::SparsityProfile& profile,
                                const std::string& backend_name) const;

  /// Enqueues `net`×`profile` against every named backend, one pool task
  /// per backend run, and returns the job's future: the run that
  /// finishes last resolves it with the result, or with the first run's
  /// error. Each run's phase spans and histograms are closed, and a
  /// computed report published to the store, before the future
  /// resolves. Sparse backends run the submitted profile; dense backends
  /// run an all-dense profile (and the matching program), as in the
  /// paper's comparison. Throws ContractError on unknown backend names,
  /// before any task exists. Results depend only on (session seed,
  /// evaluation inputs, backend name) — not on worker count or
  /// submission order. The session retains nothing of the job.
  JobHandle submit(const workload::NetworkConfig& net,
                   const workload::SparsityProfile& profile,
                   const std::vector<std::string>& backend_names,
                   const JobOptions& options);
  JobHandle submit(const workload::NetworkConfig& net,
                   const workload::SparsityProfile& profile,
                   const std::vector<std::string>& backend_names);

  /// Blocks until the job finishes; rethrows the job's error on every
  /// call. Throws ContractError on an empty handle. The reference stays
  /// valid while any copy of `handle` lives: bind it only from a named
  /// handle, and copy the result out of a temporary one.
  static const EvalResult& wait(const JobHandle& handle);

  /// Runs one job to completion: submit() and a wait on its future.
  /// Rethrows the job's error.
  EvalResult evaluate(const workload::NetworkConfig& net,
                      const workload::SparsityProfile& profile,
                      const std::vector<std::string>& backend_names,
                      const JobOptions& options);
  EvalResult evaluate(const workload::NetworkConfig& net,
                      const workload::SparsityProfile& profile,
                      const std::vector<std::string>& backend_names);

 private:
  SessionConfig cfg_;
  sim::BackendRegistry registry_;
  compiler::ProgramCache cache_;
  /// Per-phase latency histograms (null without SessionConfig::metrics —
  /// and with them null the task path reads no clocks).
  struct PhaseHist {
    obs::Histogram* store_lookup = nullptr;
    obs::Histogram* compile = nullptr;
    obs::Histogram* simulate = nullptr;
    obs::Histogram* store_publish = nullptr;
  };
  PhaseHist hist_;
  std::unique_ptr<obs::EngineProfiler> engine_profiler_;  ///< may be null
  util::ThreadPool pool_;  ///< last member: joins before cache_ dies
};

}  // namespace sparsetrain::core
