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

  /// View over the hit/miss counters (private obs::Counter instances by
  /// default, registry instruments after bind_metrics) — so a "stats"
  /// response and a "metrics" response can never disagree.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;  ///< == number of compile() calls
    std::size_t lookups() const { return hits + misses; }
  };

  /// Re-homes the counters onto `registry` (program_cache_hits_total /
  /// program_cache_misses_total). Call before the first get(): counts
  /// accumulated on the private counters do not transfer.
  void bind_metrics(obs::Registry& registry);

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
  /// Fallback instruments used until (unless) bind_metrics is called.
  obs::Counter own_hits_;
  obs::Counter own_misses_;
  obs::Counter* hits_ = &own_hits_;
  obs::Counter* misses_ = &own_misses_;
};

}  // namespace sparsetrain::compiler
