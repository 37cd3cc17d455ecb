// Coverage for SimReport utilities.
#include <gtest/gtest.h>

#include "sim/report.hpp"

namespace sparsetrain {
namespace {

sim::SimReport make_report() {
  sim::SimReport r;
  r.clock_ghz = 1.0;
  sim::StageReport fwd;
  fwd.stage = isa::Stage::Forward;
  fwd.cycles = 600;
  fwd.activity.busy_cycles = 1200;
  sim::StageReport gta;
  gta.stage = isa::Stage::GTA;
  gta.cycles = 300;
  gta.activity.busy_cycles = 450;
  sim::StageReport gtw;
  gtw.stage = isa::Stage::GTW;
  gtw.cycles = 100;
  gtw.activity.busy_cycles = 150;
  r.stages = {fwd, gta, gtw};
  r.total_cycles = 1000;
  r.activity.busy_cycles = 1800;
  return r;
}

TEST(SimReportUtil, LatencyFromClock) {
  const auto r = make_report();
  // 1000 cycles at 1 GHz = 1 µs = 0.001 ms.
  EXPECT_NEAR(r.latency_ms(), 0.001, 1e-9);
}

TEST(SimReportUtil, StageCyclesSumPerStage) {
  const auto r = make_report();
  EXPECT_EQ(r.stage_cycles(isa::Stage::Forward), 600u);
  EXPECT_EQ(r.stage_cycles(isa::Stage::GTA), 300u);
  EXPECT_EQ(r.stage_cycles(isa::Stage::GTW), 100u);
}

TEST(SimReportUtil, UtilizationIsBusyOverCapacity) {
  const auto r = make_report();
  // 1800 busy PE-cycles over 1000 cycles × 3 PEs.
  EXPECT_NEAR(r.utilization(3), 0.6, 1e-12);
  EXPECT_EQ(r.utilization(0), 0.0);
}

TEST(SimReportUtil, EnergyTotals) {
  sim::EnergyBreakdown a;
  a.comb_pj = 1;
  a.reg_pj = 2;
  a.sram_pj = 3;
  a.dram_pj = 4;
  sim::EnergyBreakdown b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.total_pj(), 20.0);
  EXPECT_DOUBLE_EQ(b.on_chip_pj(), 12.0);
}

}  // namespace
}  // namespace sparsetrain
