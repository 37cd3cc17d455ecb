// One evaluation job, canonicalised for content addressing.
//
// The persistent result store keys every stored SimReport by a fingerprint
// of *everything that determines the simulated numbers*: the compiler
// inputs (network geometry, operand densities, compile options — reusing
// compiler::ProgramCache::key so the two canonicalisations cannot drift
// apart), the full architecture configuration (including timing, energy
// prices and the scheduling-sample budget), the backend's registry name
// and execution kind, and the derived per-run scheduling seed. Exact-mode
// parallelism knobs (workers, tile size, shared pool) are deliberately
// excluded: they change wall-clock time, never results.
//
// The canonicalisation is explicit and versioned: fingerprint_v1() is
// frozen — tests/test_serve_store.cpp pins a golden value — so on-disk
// keys cannot silently drift when a field is added somewhere upstream.
// Growing core::Session::JobOptions (or ArchConfig) with a field that
// affects results REQUIRES adding it here and introducing fingerprint_v2
// alongside a store schema bump; forgetting it makes the golden test the
// tripwire reviewers see.
#pragma once

#include <cstdint>
#include <string>

#include "compiler/compiler.hpp"
#include "sim/accelerator.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain::serve {

/// Everything that determines one backend run's SimReport. `profile` and
/// `copts` are the ones actually run (core::Session substitutes an
/// all-dense profile and a statistical-engine compile for dense
/// backends *before* building the job).
struct EvalJob {
  workload::NetworkConfig net;
  workload::SparsityProfile profile;
  compiler::CompileOptions copts;
  std::string backend;       ///< registry name
  std::string backend_kind;  ///< sim::Backend::kind(), e.g. "accelerator"
  sim::ArchConfig arch;
  std::uint64_t run_seed = 0;  ///< seed actually passed to Backend::run
};

/// Canonical v1 serialisation of the job (doubles as IEEE-754 bit
/// patterns, strings length-prefixed). Prefixed with the version tag so a
/// future v2 can never collide with a v1 key. The component-reference
/// form lets core::Session fingerprint a run without copying the network
/// or profile into an EvalJob first.
std::string canonical_job_key_v1(const workload::NetworkConfig& net,
                                 const workload::SparsityProfile& profile,
                                 const compiler::CompileOptions& copts,
                                 const std::string& backend,
                                 const std::string& backend_kind,
                                 const sim::ArchConfig& arch,
                                 std::uint64_t run_seed);
std::string canonical_job_key_v1(const EvalJob& job);

/// 64-bit FNV-1a of canonical_job_key_v1(). The on-disk store key.
std::uint64_t fingerprint_v1(const workload::NetworkConfig& net,
                             const workload::SparsityProfile& profile,
                             const compiler::CompileOptions& copts,
                             const std::string& backend,
                             const std::string& backend_kind,
                             const sim::ArchConfig& arch,
                             std::uint64_t run_seed);
std::uint64_t fingerprint_v1(const EvalJob& job);

}  // namespace sparsetrain::serve
