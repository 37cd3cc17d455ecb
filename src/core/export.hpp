// Machine-readable export of evaluation results.
//
// One CSV row (or JSON object) per (job, backend) run, with the aggregate
// cycle/latency/energy numbers; the JSON form additionally carries the
// per-layer-stage breakdown. Benches use these so sweep output can feed
// plotting scripts directly.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace sparsetrain::core {

/// Header used by export_csv, in column order.
std::vector<std::string> csv_header();

/// Writes one row per (job, backend) run.
void export_csv(const std::vector<EvalResult>& results, std::ostream& out);
void export_csv(const std::vector<EvalResult>& results,
                const std::string& path);

/// JSON array of jobs; each job holds its per-backend reports including
/// the stage breakdown.
void export_json(const std::vector<EvalResult>& results, std::ostream& out);
void export_json(const std::vector<EvalResult>& results,
                 const std::string& path);

/// The "store-stats" report of one session: one JSON object (schema
/// "sparsetrain.store_stats/v3") with the ProgramCache hit/miss counters
/// plus, when a store is attached, the persistent store's counters, read
/// from the registries they live on, so daemons and drivers export
/// service health without log scraping. The store object counts result
/// records, the only records a store keeps.
void export_stats_json(const Session& session, std::ostream& out);

}  // namespace sparsetrain::core
