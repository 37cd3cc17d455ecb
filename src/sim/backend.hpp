// Pluggable simulation backends.
//
// A Backend is one named, runnable architecture: the SparseTrain
// accelerator, the Eyeriss-like dense baseline, or any ArchConfig variant
// an ablation wants to sweep. The BackendRegistry maps names to backends
// so drivers select architectures by string ("sparsetrain",
// "eyeriss-dense", "sparsetrain-28g", ...) instead of constructing bespoke
// Accelerator objects — core::Session evaluates submitted workloads
// against any subset of the registered backends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/accelerator.hpp"
#include "sim/exact_engine.hpp"

namespace sparsetrain::sim {

/// Per-job simulation options (core::Session::JobOptions carries one).
/// `engine` selects which engine the job's programs are *compiled* for —
/// backends dispatch on the program's metadata, so the choice travels
/// with the program, not this struct. The exact knobs only affect
/// wall-clock time, never results.
struct SimOptions {
  isa::EngineKind engine = isa::EngineKind::Statistical;
  ExactOptions exact;  ///< worker budget / tile size for exact runs
};

/// One named, runnable architecture.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry name (stable identifier used by Session::submit).
  virtual const std::string& name() const = 0;

  /// Execution kind ("accelerator": the engine follows the program's
  /// metadata). Part of the persistent store's job canonicalisation
  /// (serve::fingerprint_v1): two backends with identical architectures
  /// but different kinds produce different reports and must never share
  /// a store key.
  virtual const char* kind() const = 0;

  /// The architecture this backend simulates.
  virtual const ArchConfig& arch() const = 0;

  /// Runs a compiled program with an explicit scheduling seed. `seed`
  /// replaces the architecture's configured seed so a caller (the
  /// Session job queue) can give every job its own deterministic stream.
  /// Which engine runs is the *program's* metadata (Program::engine);
  /// `exact` only sizes the parallelism of exact runs.
  virtual SimReport run(const isa::Program& program,
                        const workload::NetworkConfig& net,
                        const workload::SparsityProfile& profile,
                        std::uint64_t seed,
                        const ExactOptions& exact) const = 0;

  /// Whether the backend exploits sparsity. Dense backends are handed an
  /// all-dense profile (and the matching program) by the Session.
  bool sparse() const { return arch().sparse; }
};

/// Backend wrapping the cycle-level Accelerator engine (both sparse and
/// dense modes — the dense baseline is `cfg.sparse = false`). Programs
/// compiled for the exact engine are re-driven through sim::run_exact
/// with the caller's exact options, provided the architecture is sparse;
/// dense architectures always use the statistical model (the exact
/// engine has no dense semantics).
class AcceleratorBackend : public Backend {
 public:
  AcceleratorBackend(std::string name, ArchConfig cfg);

  const std::string& name() const override { return name_; }
  const char* kind() const override { return "accelerator"; }
  const ArchConfig& arch() const override { return accel_.config(); }

  SimReport run(const isa::Program& program,
                const workload::NetworkConfig& net,
                const workload::SparsityProfile& profile,
                std::uint64_t seed, const ExactOptions& exact) const override;

 private:
  std::string name_;
  Accelerator accel_;
};

/// Name → backend map with stable registration order.
///
/// Mutation (add/register_arch) is not thread-safe; register everything
/// before submitting jobs. Lookups from concurrent readers are fine once
/// registration has stopped.
class BackendRegistry {
 public:
  /// Registers a backend under its own name. Names must be unique and
  /// non-empty.
  void add(std::shared_ptr<Backend> backend);

  /// Convenience: registers an AcceleratorBackend for `cfg` under `name`
  /// and returns it.
  std::shared_ptr<Backend> register_arch(std::string name, ArchConfig cfg);

  /// nullptr when no backend has that name.
  std::shared_ptr<const Backend> find(const std::string& name) const;

  /// Throws ContractError when no backend has that name.
  const Backend& at(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t size() const { return order_.size(); }

  /// Names in registration order.
  std::vector<std::string> names() const;

 private:
  std::vector<std::shared_ptr<Backend>> order_;
  std::unordered_map<std::string, std::shared_ptr<Backend>> by_name_;
};

}  // namespace sparsetrain::sim
