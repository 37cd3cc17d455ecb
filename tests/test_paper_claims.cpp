// The paper's headline numbers as this reproduction computes them: the
// Fig. 8 speedup aggregates and the Fig. 9 energy-efficiency aggregates.
// The statistical engine runs the workload zoo under the Table-II p = 90%
// profiles on both backends, through the same Session calls
// bench_fig8_latency and bench_fig9_energy make, so this is what those
// benches print. Every aggregate carries its own tolerance. The
// per-workload × per-stage speedups behind them are not pinned again
// here: Session.StatisticalEnginePinnedOnZoo (test_sim.cpp) pins the
// cycles of the same 16 runs exactly. On any miss the test prints the
// aggregates as a report, with `!!!` marking each row that moved past its
// tolerance, followed by the whole per-workload speedup table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

/// A pinned value and how far it may move: half a unit in its third
/// significant figure (0.005 for these aggregates, all between 1× and
/// 10×).
struct Pin {
  double value;
  double tolerance;  ///< absolute
};

/// One pinned aggregate. `paper` is the figure the paper reports.
struct Claim {
  const char* claim;
  const char* workload;
  const char* paper;
  Pin pin;
};

// The paper-six aggregates exclude the two VGG-16 zoo rows, as the
// benches do.
const Claim kAggregates[] = {
    {"Fig. 8 speedup, geomean", "paper six", "~2.7x avg", {3.621, 0.005}},
    {"Fig. 8 speedup, max", "AlexNet/ImageNet", "4.5x (AlexNet)",
     {5.556, 0.005}},
    {"Fig. 9 energy efficiency, geomean", "paper six", "2.2x avg",
     {2.807, 0.005}},
    {"Fig. 9 energy efficiency, min", "paper six", "1.5x", {2.285, 0.005}},
    {"Fig. 9 energy efficiency, max", "paper six", "2.8x", {4.028, 0.005}},
};

/// The report: a markdown table of every claim, pinned vs measured.
class ClaimReport {
 public:
  ClaimReport() {
    text_ =
        "| claim | workload | paper | pinned | measured | tolerance |\n"
        "| --- | --- | --- | --- | --- | --- |\n";
  }

  void check(const std::string& claim, const std::string& workload,
             const std::string& paper, Pin pin, double measured) {
    const bool ok = std::fabs(measured - pin.value) <= pin.tolerance;
    missed_ += ok ? 0 : 1;
    char line[256];
    std::snprintf(line, sizeof line,
                  "| %s%s | %s | %s | %.3f | %.3f | %.3f |\n", ok ? "" : "!!!",
                  claim.c_str(), workload.c_str(), paper.c_str(), pin.value,
                  measured, pin.tolerance);
    text_ += line;
  }

  /// A row that is not a number (say, which workload holds the max).
  void check_name(const std::string& claim, const std::string& pinned,
                  const std::string& measured) {
    const bool ok = pinned == measured;
    missed_ += ok ? 0 : 1;
    text_ += "| " + std::string(ok ? "" : "!!!") + claim + " | " + measured +
             " | - | " + pinned + " | " + measured + " | exact |\n";
  }

  std::size_t missed() const { return missed_; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
  std::size_t missed_ = 0;
};

double stage_speedup(const sim::SimReport& dense, const sim::SimReport& sparse,
                     isa::Stage stage) {
  return static_cast<double>(dense.stage_cycles(stage)) /
         static_cast<double>(sparse.stage_cycles(stage));
}

/// One table row: dense ÷ sparse cycles for the whole step and per stage.
std::string speedup_row(const std::string& workload, double speedup,
                        const sim::SimReport& dense,
                        const sim::SimReport& sparse) {
  char line[256];
  std::snprintf(line, sizeof line, "| %s | %.3f | %.3f | %.3f | %.3f |\n",
                workload.c_str(), speedup,
                stage_speedup(dense, sparse, isa::Stage::Forward),
                stage_speedup(dense, sparse, isa::Stage::GTA),
                stage_speedup(dense, sparse, isa::Stage::GTW));
  return line;
}

TEST(PaperClaims, Fig8AndFig9HeadlinesHoldTheirPins) {
  const auto& zoo = workload::workload_zoo();
  const std::vector<std::string> backends = {core::Session::kSparseBackend,
                                             core::Session::kDenseBackend};
  core::Session session;
  std::vector<core::Session::JobHandle> jobs;
  for (const auto& w : zoo) {
    const auto profile = workload::SparsityProfile::calibrated(
        w.net, workload::paper_act_density(w.family),
        workload::paper_table2_do_density(w.family, w.imagenet, 0.9),
        "table2-p90");
    jobs.push_back(session.submit(w.net, profile, backends));
  }
  ClaimReport report;
  std::string table =
      "| workload | speedup | Fwd x | GTA x | GTW x |\n"
      "| --- | --- | --- | --- | --- |\n";
  double log_speedup = 0.0;
  double log_eff = 0.0;
  std::size_t paper_six = 0;
  double max_speedup = 0.0;
  std::string max_name;
  double min_eff = HUGE_VAL;
  double max_eff = 0.0;
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const core::EvalResult& r = session.wait(jobs[i]);
    const sim::SimReport& sparse = r.report(core::Session::kSparseBackend);
    const sim::SimReport& dense = r.report(core::Session::kDenseBackend);
    const double speedup = r.cycle_ratio(core::Session::kDenseBackend,
                                         core::Session::kSparseBackend);
    table += speedup_row(r.net.name, speedup, dense, sparse);
    if (zoo[i].family == workload::ModelFamily::VGG) continue;
    const double eff = r.energy_ratio(core::Session::kDenseBackend,
                                      core::Session::kSparseBackend);
    log_speedup += std::log(speedup);
    log_eff += std::log(eff);
    ++paper_six;
    if (speedup > max_speedup) {
      max_speedup = speedup;
      max_name = r.net.name;
    }
    min_eff = std::min(min_eff, eff);
    max_eff = std::max(max_eff, eff);
  }
  ASSERT_EQ(paper_six, 6u);

  const double measured[] = {
      std::exp(log_speedup / static_cast<double>(paper_six)), max_speedup,
      std::exp(log_eff / static_cast<double>(paper_six)), min_eff, max_eff};
  for (std::size_t i = 0; i < std::size(kAggregates); ++i) {
    const Claim& c = kAggregates[i];
    report.check(c.claim, c.workload, c.paper, c.pin, measured[i]);
  }
  report.check_name("Fig. 8 speedup, max: workload", kAggregates[1].workload,
                    max_name);

  if (report.missed() != 0) {
    ADD_FAILURE() << report.missed() << " paper claim(s) moved past their "
                  << "tolerance:\n"
                  << report.text() << "\nPer workload, dense ÷ sparse "
                  << "cycles:\n"
                  << table;
  }
}

}  // namespace
}  // namespace sparsetrain
