// Memoised compilation.
//
// Compiled Programs depend only on (network geometry, per-layer operand
// densities, compile options) — not on the architecture that will run
// them — so a sweep that evaluates one workload on many backends, or many
// pruning rates on the same dense baseline, needs far fewer compiles than
// jobs. The cache key is a canonical serialisation of every field the
// compiler reads; equal inputs return the *same* immutable Program.
//
// get() is thread-safe (Session pool workers resolve programs
// concurrently) and single-flight: the first worker to request a key
// compiles it (outside the lock) while later requesters block on the
// shared future — so misses == compile() calls exactly, on any core
// count.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "compiler/compiler.hpp"
#include "obs/metrics.hpp"

namespace sparsetrain::compiler {

class ProgramCache {
 public:
  using ProgramPtr = std::shared_ptr<const isa::Program>;

  /// Snapshot of the hit/miss counters (program_cache_hits_total and
  /// program_cache_misses_total), read from the registry they live on.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;  ///< == number of compile() calls
    std::size_t lookups() const { return hits + misses; }
  };

  /// `metrics` is the registry the counters live on and must outlive the
  /// cache; nullptr = a private registry nobody else reads.
  explicit ProgramCache(obs::Registry* metrics = nullptr);

  /// Returns the cached program for (net, profile, options), compiling on
  /// first use.
  ProgramPtr get(const workload::NetworkConfig& net,
                 const workload::SparsityProfile& profile,
                 const CompileOptions& options = {});

  /// Canonical cache key: serialises every compiler input bit-exactly
  /// (densities as IEEE-754 bit patterns, not rounded decimals).
  static std::string key(const workload::NetworkConfig& net,
                         const workload::SparsityProfile& profile,
                         const CompileOptions& options = {});

  /// 64-bit FNV-1a of key() — a compact fingerprint for logging.
  static std::uint64_t fingerprint(const workload::NetworkConfig& net,
                                   const workload::SparsityProfile& profile,
                                   const CompileOptions& options = {});

  Stats stats() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  /// Futures, not plain pointers: an in-flight compile is visible to
  /// other workers immediately, so the same key never compiles twice.
  std::unordered_map<std::string, std::shared_future<ProgramPtr>> cache_;
  std::unique_ptr<obs::Registry> own_metrics_;  ///< null when injected
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
};

}  // namespace sparsetrain::compiler
