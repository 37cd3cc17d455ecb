#include "core/session.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "baseline/eyeriss_like.hpp"
#include "serve/job.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"

namespace sparsetrain::core {

namespace {

/// Times one evaluation phase into a histogram (when instrumented) and a
/// trace span (when the request is sampled); both off = no clock reads
/// beyond the Span no-op check.
class Phase {
 public:
  Phase(obs::Histogram* h, const obs::SpanContext& trace, const char* name)
      : h_(h), span_(trace, name) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~Phase() {
    if (h_ != nullptr) {
      h_->record(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
    }
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  obs::Span& span() { return span_; }

 private:
  obs::Histogram* h_;
  obs::Span span_;
  std::chrono::steady_clock::time_point start_{};
};

/// Derives the backend runs of one job: the profile each run simulates,
/// its compile options, program fingerprint and seed. Dense backends run
/// an all-dense profile with a statistical program (the baseline has no
/// exact semantics). submit and run_fingerprint both derive runs here,
/// so the key a job records in the store and the key services route and
/// coalesce on cannot drift apart. Each profile kind is materialised and
/// fingerprinted at most once per job.
class RunDeriver {
 public:
  struct Run {
    std::shared_ptr<const workload::SparsityProfile> profile;
    compiler::CompileOptions copts;
    std::uint64_t program_fp = 0;
    std::uint64_t seed = 0;

    /// The run's persistent-store key (serve::fingerprint_v1).
    std::uint64_t store_key(const workload::NetworkConfig& net,
                            const sim::Backend& backend) const {
      return serve::fingerprint_v1(net, *profile, copts, backend.name(),
                                   backend.kind(), backend.arch(), seed);
    }
  };

  RunDeriver(const SessionConfig& cfg, const workload::NetworkConfig& net,
             std::shared_ptr<const workload::SparsityProfile> profile,
             const Session::JobOptions& options)
      : session_seed_(cfg.seed), net_(net), submitted_(std::move(profile)) {
    copts_.batch = options.batch != 0 ? options.batch : cfg.batch;
    copts_.engine = options.sim.engine;
  }

  Run operator()(const sim::Backend& backend) {
    std::optional<Run>& kind = backend.sparse() ? sparse_ : dense_;
    if (!kind) {
      Run r;
      r.profile = submitted_;
      r.copts = copts_;
      if (!backend.sparse()) {
        r.profile = std::make_shared<const workload::SparsityProfile>(
            workload::SparsityProfile::dense(net_));
        r.copts.engine = isa::EngineKind::Statistical;
      }
      r.program_fp =
          compiler::ProgramCache::fingerprint(net_, *r.profile, r.copts);
      kind = std::move(r);
    }
    // Seed from the evaluation's content (compiler inputs + backend
    // name), not from submission order: identical evaluations reproduce
    // bit-exactly anywhere in any session.
    Run run = *kind;
    run.seed = mix64(mix64(session_seed_, run.program_fp),
                     fnv1a(backend.name()));
    return run;
  }

 private:
  std::uint64_t session_seed_;
  const workload::NetworkConfig& net_;
  std::shared_ptr<const workload::SparsityProfile> submitted_;
  compiler::CompileOptions copts_;
  std::optional<Run> sparse_;
  std::optional<Run> dense_;
};

/// One submitted job: the result and error slots its runs fill, one each,
/// the promise behind submit()'s future, and the count of runs still
/// going. The acq_rel count orders every slot write before the last run
/// resolves the promise, with the first error in backend order if any.
struct JobState {
  EvalResult result;
  std::vector<std::exception_ptr> errors;
  std::promise<EvalResult> promise;
  std::atomic<std::size_t> left{0};

  void finish_run() {
    if (left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    for (const std::exception_ptr& error : errors) {
      if (error) {
        promise.set_exception(error);
        return;
      }
    }
    promise.set_value(std::move(result));
  }
};

}  // namespace

SessionConfig::SessionConfig()
    : baseline_arch(baseline::eyeriss_like_config()) {
  sparse_arch.name = "SparseTrain";
  sparse_arch.sparse = true;
}

const sim::SimReport& EvalResult::report(const std::string& backend) const {
  for (const auto& r : runs)
    if (r.backend == backend) return r.report;
  ST_REQUIRE(false, "job has no result for backend '" + backend + "'");
  __builtin_unreachable();
}

double EvalResult::cycle_ratio(const std::string& numerator,
                               const std::string& denominator) const {
  const auto& num = report(numerator);
  const auto& den = report(denominator);
  ST_REQUIRE(den.total_cycles > 0,
             "'" + denominator + "' run produced no cycles");
  ST_REQUIRE(num.total_cycles > 0,
             "'" + numerator + "' run produced no cycles");
  return static_cast<double>(num.total_cycles) /
         static_cast<double>(den.total_cycles);
}

double EvalResult::energy_ratio(const std::string& numerator,
                                const std::string& denominator) const {
  const auto& num = report(numerator);
  const auto& den = report(denominator);
  ST_REQUIRE(den.energy.on_chip_pj() > 0.0,
             "'" + denominator + "' run produced no energy");
  ST_REQUIRE(num.energy.on_chip_pj() > 0.0,
             "'" + numerator + "' run produced no energy");
  return num.energy.on_chip_pj() / den.energy.on_chip_pj();
}

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.metrics), pool_(cfg_.workers) {
  ST_REQUIRE(cfg_.batch > 0, "batch must be positive");
  ST_REQUIRE(cfg_.sparse_arch.sparse,
             "the sparse architecture must have sparse semantics");
  ST_REQUIRE(!cfg_.baseline_arch.sparse,
             "the baseline must run in dense mode");
  registry_.register_arch(kSparseBackend, cfg_.sparse_arch);
  registry_.register_arch(kDenseBackend, cfg_.baseline_arch);
  if (cfg_.metrics != nullptr) {
    hist_.store_lookup =
        &cfg_.metrics->histogram("session_store_lookup_seconds");
    hist_.compile = &cfg_.metrics->histogram("session_compile_seconds");
    hist_.simulate = &cfg_.metrics->histogram("session_simulate_seconds");
    hist_.store_publish =
        &cfg_.metrics->histogram("session_store_publish_seconds");
    if (cfg_.profile_engine) {
      engine_profiler_ =
          std::make_unique<obs::EngineProfiler>(*cfg_.metrics);
    }
  }
}

Session::~Session() {
  // Let in-flight jobs finish before members they reference are torn
  // down; a job nobody waits for keeps its result and error to itself.
  pool_.wait_idle();
}

Session::JobHandle Session::submit(
    const workload::NetworkConfig& net,
    const workload::SparsityProfile& profile,
    const std::vector<std::string>& backend_names) {
  return submit(net, profile, backend_names, JobOptions{});
}

Session::JobHandle Session::submit(
    const workload::NetworkConfig& net,
    const workload::SparsityProfile& profile,
    const std::vector<std::string>& backend_names,
    const JobOptions& options) {
  ST_REQUIRE(!backend_names.empty(), "job needs at least one backend");
  ST_REQUIRE(profile.size() == net.layers.size(),
             "profile does not match network");

  // Resolve names up front so bad submissions fail on the caller's
  // thread, not inside the pool.
  std::vector<std::shared_ptr<const sim::Backend>> backends;
  backends.reserve(backend_names.size());
  for (const auto& name : backend_names) {
    auto b = registry_.find(name);
    ST_REQUIRE(b != nullptr, "no backend registered under '" + name + "'");
    for (const auto& seen : backends) {
      ST_REQUIRE(seen->name() != name,
                 "backend '" + name + "' listed twice in one job");
    }
    backends.push_back(std::move(b));
  }

  // Shared immutable inputs for the worker tasks. Every run is derived
  // before any is enqueued, so a derivation error throws on the caller's
  // thread with no task in flight.
  auto shared_net = std::make_shared<const workload::NetworkConfig>(net);
  RunDeriver derive(cfg_, net,
                    std::make_shared<const workload::SparsityProfile>(profile),
                    options);
  std::vector<RunDeriver::Run> runs;
  runs.reserve(backends.size());
  for (const auto& b : backends) runs.push_back(derive(*b));

  auto job = std::make_shared<JobState>();
  job->result.net = net;
  job->result.profile_name = profile.name();
  job->result.runs.resize(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    job->result.runs[i].backend = backends[i]->name();
  }
  job->errors.resize(backends.size());
  job->left.store(backends.size());
  JobHandle future = job->promise.get_future().share();

  // Exact jobs borrow the session's own pool instead of spawning one per
  // run: the engine's stage tiles and the stage-graph units then
  // interleave with other jobs' tasks in one two-level schedule on one
  // set of threads (safe because the engine claims work instead of
  // blocking on the queue; results are independent of any pool, so
  // sharing changes wall-clock only). An explicitly borrowed pool or a
  // serial request (workers == 1, the default) is left alone.
  sim::ExactOptions exact_opts = options.sim.exact;
  if (exact_opts.shared_pool == nullptr && exact_opts.workers != 1) {
    exact_opts.shared_pool = &pool_;
  }
  if (exact_opts.profiler == nullptr && engine_profiler_ != nullptr) {
    exact_opts.profiler = engine_profiler_.get();
  }

  // An enqueue failure (the pool is shutting down) throws to the caller;
  // runs already enqueued finish unobserved.
  for (std::size_t i = 0; i < backends.size(); ++i) {
    pool_.submit([this, job, i, backend = backends[i], shared_net,
                  run = std::move(runs[i]), exact = exact_opts,
                  store = cfg_.store, trace = options.trace] {
      BackendRun* out = &job->result.runs[i];
      const auto simulate_or_replay = [&] {
        // Persistent store first: a hit costs one record read — no
        // compile, no simulation — and is byte-identical to the run it
        // replaces (serve::fingerprint_v1 covers every input the
        // numbers depend on).
        std::uint64_t fp = 0;
        if (store) {
          Phase phase(hist_.store_lookup, trace, "store.lookup");
          phase.span().attr("backend", backend->name());
          fp = run.store_key(*shared_net, *backend);
          out->fingerprint = fp;
          sim::SimReport stored;
          if (store->get_result(fp, stored)) {
            phase.span().attr("hit", "true");
            out->report = std::move(stored);
            out->from_store = true;
            return;
          }
          phase.span().attr("hit", "false");
        }
        compiler::ProgramCache::ProgramPtr program;
        {
          Phase phase(hist_.compile, trace, "compile");
          phase.span().attr("backend", backend->name());
          program = cache_.get(*shared_net, *run.profile, run.copts);
        }
        {
          Phase phase(hist_.simulate, trace, "simulate");
          phase.span().attr("backend", backend->name());
          out->report = backend->run(*program, *shared_net, *run.profile,
                                     run.seed, exact);
        }
        // Publication is strictly best-effort: a store that degraded to
        // read-only (sick disk) drops the put, counting it in
        // dropped_publishes, and the session keeps computing — serving
        // never depends on persistence.
        if (store) {
          Phase phase(hist_.store_publish, trace, "store.publish");
          phase.span().attr("backend", backend->name());
          store->put_result(fp, out->report);
        }
      };
      try {
        simulate_or_replay();
      } catch (...) {
        job->errors[i] = std::current_exception();
      }
      // Every phase of this run has closed: a waiter woken by the count
      // finds its spans, histograms and store record in place.
      job->finish_run();
    });
  }
  return future;
}

std::uint64_t Session::run_fingerprint(const workload::NetworkConfig& net,
                                       const workload::SparsityProfile& profile,
                                       const std::string& backend_name,
                                       const JobOptions& options) const {
  ST_REQUIRE(profile.size() == net.layers.size(),
             "profile does not match network");
  const auto backend = registry_.find(backend_name);
  ST_REQUIRE(backend != nullptr,
             "no backend registered under '" + backend_name + "'");
  RunDeriver derive(cfg_, net,
                    std::make_shared<const workload::SparsityProfile>(profile),
                    options);
  return derive(*backend).store_key(net, *backend);
}

std::uint64_t Session::run_fingerprint(
    const workload::NetworkConfig& net,
    const workload::SparsityProfile& profile,
    const std::string& backend_name) const {
  return run_fingerprint(net, profile, backend_name, JobOptions{});
}

const EvalResult& Session::wait(const JobHandle& handle) {
  ST_REQUIRE(handle.valid(), "empty job handle");
  return handle.get();
}

EvalResult Session::evaluate(const workload::NetworkConfig& net,
                             const workload::SparsityProfile& profile,
                             const std::vector<std::string>& backend_names,
                             const JobOptions& options) {
  return submit(net, profile, backend_names, options).get();
}

EvalResult Session::evaluate(const workload::NetworkConfig& net,
                             const workload::SparsityProfile& profile,
                             const std::vector<std::string>& backend_names) {
  return evaluate(net, profile, backend_names, JobOptions{});
}

}  // namespace sparsetrain::core
