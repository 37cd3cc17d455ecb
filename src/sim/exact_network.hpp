// Whole-program exact simulation.
//
// run_exact() re-drives a compiled Program through the tensor-driven
// ExactEngine: for every Run instruction it synthesises the layer's
// operands at the profile's densities (deterministically from the run
// seed, so results are a pure function of the inputs) and steps the real
// row ops through the cycle-exact PE model. Every operand — I, dO, the
// ReLU mask and each FC vector — is synthesised as the CompressedRows of
// its nonzero positions (sparse_normal_rows), since no exact stage reads
// a value; no dense tensor is ever built. The program's
// instruction stream supplies the stage structure — which layers/stages
// were compiled, batch, FC lane packing — so exact and statistical runs
// of the same program cover the identical work list and their cycle
// counts are directly comparable (tests/test_exact_agreement_matrix.cpp).
//
// Execution is a whole-program stage graph, not a stage-by-stage sweep:
// every Run instruction is an independent (layer, stage) unit, claimed
// concurrently onto the engine's worker pool and gated only by its
// layer's operand readiness (call_once-guarded lazy synthesis +
// refcounted release). Each unit's tiles then fan out over the same pool
// — two-level parallelism, so a program of many small stages (ResNet on
// CIFAR: 512-task stages) fills the pool even though no single stage
// could. Unit results are assembled in program order, so reports are
// byte-identical to the serial sweep for any worker count.
//
// Scope: exact mode is the *compute-timing* ground truth. It reports
// cycles, busy/MAC/register activity and the energy those events price
// to; it does not model SRAM/DRAM streaming (those counters stay zero),
// which is the statistical engine's footprint model's job.
#pragma once

#include <cstdint>

#include "sim/exact_engine.hpp"
#include "sim/report.hpp"

namespace sparsetrain::sim {

/// Runs `program` exactly on `engine` (a long-lived engine amortises its
/// worker pool across runs). `seed` drives the tensor
/// synthesis; the engine's options only affect wall-clock time (results
/// are byte-identical for any workers/tile combination).
SimReport run_exact(const ExactEngine& engine, const isa::Program& program,
                    const workload::NetworkConfig& net,
                    const workload::SparsityProfile& profile,
                    std::uint64_t seed);

/// Convenience: one-shot engine for the architecture `cfg` (which must
/// be sparse), parallelised per `opts`.
SimReport run_exact(const ArchConfig& cfg, const isa::Program& program,
                    const workload::NetworkConfig& net,
                    const workload::SparsityProfile& profile,
                    std::uint64_t seed, const ExactOptions& opts = {});

}  // namespace sparsetrain::sim
