// Tests for im2col conv cross-validation, trace export, and Args parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "serve/json.hpp"
#include "sim/trace.hpp"
#include "util/args.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain {
namespace {

TEST(Im2Col, UnfoldsKnownPattern) {
  // 1 channel 2x2 input, K=2, no padding → single column of the 4 values.
  Tensor in(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  nn::Im2ColGeometry geo;
  geo.in_channels = 1;
  geo.out_channels = 1;
  geo.kernel = 2;
  geo.stride = 1;
  geo.padding = 0;
  const Tensor cols = nn::im2col(in, geo);
  EXPECT_EQ(cols.shape(), (Shape{1, 1, 4, 1}));
  EXPECT_FLOAT_EQ(cols.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 0, 3, 0), 4.0f);
}

TEST(Im2Col, PaddingBecomesZeros) {
  Tensor in(Shape{1, 1, 1, 1}, {5.0f});
  nn::Im2ColGeometry geo;
  geo.in_channels = 1;
  geo.out_channels = 1;
  geo.kernel = 3;
  geo.stride = 1;
  geo.padding = 1;
  const Tensor cols = nn::im2col(in, geo);
  EXPECT_EQ(cols.shape(), (Shape{1, 1, 9, 1}));
  EXPECT_FLOAT_EQ(cols.at(0, 0, 4, 0), 5.0f);  // centre tap
  float sum = 0.0f;
  for (float v : cols.flat()) sum += v;
  EXPECT_FLOAT_EQ(sum, 5.0f);  // everything else is padding zeros
}

class Im2ColEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Im2ColEquivalence, MatchesDirectConv) {
  const auto [k, s, p] = GetParam();
  Rng rng(11);
  nn::Conv2DConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 5;
  cfg.kernel = static_cast<std::size_t>(k);
  cfg.stride = static_cast<std::size_t>(s);
  cfg.padding = static_cast<std::size_t>(p);
  nn::Conv2D conv(cfg);
  for (auto* param : conv.params()) param->value.fill_normal(rng, 0.0f, 0.4f);

  Tensor in(Shape{2, 3, 9, 9});
  in.fill_sparse_normal(rng, 0.6);

  nn::Im2ColGeometry geo;
  geo.in_channels = cfg.in_channels;
  geo.out_channels = cfg.out_channels;
  geo.kernel = cfg.kernel;
  geo.stride = cfg.stride;
  geo.padding = cfg.padding;

  const Tensor direct = conv.forward(in, false);
  const Tensor gemm = nn::conv2d_im2col(in, conv.weight().value,
                                        &conv.bias_param().value, geo);
  EXPECT_LT(max_abs_diff(direct, gemm), 1e-4f);
}

std::string im2col_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
  return "k" + std::to_string(std::get<0>(info.param)) + "s" +
         std::to_string(std::get<1>(info.param)) + "p" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Geometries, Im2ColEquivalence,
                         ::testing::Values(std::make_tuple(3, 1, 1),
                                           std::make_tuple(3, 2, 1),
                                           std::make_tuple(1, 1, 0),
                                           std::make_tuple(5, 1, 2)),
                         im2col_case_name);

TEST(TraceExport, WritesValidChromeTrace) {
  sim::SimReport report;
  report.clock_ghz = 1.0;
  sim::StageReport s1;
  s1.layer_name = "conv1";
  s1.stage = isa::Stage::Forward;
  s1.cycles = 1000;
  sim::StageReport s2;
  s2.layer_name = "conv\n2\t\"b\"";  // control characters must be escaped
  s2.stage = isa::Stage::GTW;
  s2.cycles = 500;
  report.stages = {s1, s2};
  report.total_cycles = 1500;

  const std::string path = "test_trace.json";
  ASSERT_TRUE(sim::write_chrome_trace(report, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());

  const serve::JsonValue doc = serve::parse_json(ss.str());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  const auto& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 5u);  // two stages + three lane names
  EXPECT_EQ(events[0].get_string("name", ""), "conv1");
  EXPECT_EQ(events[1].get_string("name", ""), s2.layer_name);
  EXPECT_EQ(events[1].get_string("cat", ""), "GTW");
  EXPECT_EQ(events[2].get_string("name", ""), "thread_name");
}

TEST(ArgsParse, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--p=abc", "--n=12x"};
  Args args(3, argv, {{"p", "pruning rate"}, {"n", "count"}});
  EXPECT_THROW(args.get("p", 0.0), ContractError);
  EXPECT_THROW(args.get("n", 0L), ContractError);
}

TEST(ArgsParse, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args args(1, argv, {{"p", "pruning rate"}, {"n", "count"}});
  EXPECT_DOUBLE_EQ(args.get("p", 0.5), 0.5);
  EXPECT_EQ(args.get("n", 7L), 7L);
  EXPECT_FALSE(args.has("p"));
}

TEST(ArgsStrict, AcceptsDeclaredFlagsOnly) {
  const std::vector<Args::Flag> spec = {{"p", "pruning rate"},
                                        {"quick", "fast subset", false}};
  const char* ok[] = {"prog", "--p", "0.9", "--quick"};
  Args args(4, ok, spec);
  EXPECT_DOUBLE_EQ(args.get("p", 0.0), 0.9);
  EXPECT_TRUE(args.has("quick"));
  EXPECT_FALSE(args.help_requested());

  // A typoed flag is a hard error whose message carries the usage dump.
  const char* typo[] = {"prog", "--worker", "4"};
  try {
    Args bad(3, typo, spec);
    FAIL() << "unknown flag accepted";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--worker"), std::string::npos);
    EXPECT_NE(what.find("usage:"), std::string::npos);
    EXPECT_NE(what.find("pruning rate"), std::string::npos);
  }
}

TEST(ArgsStrict, RejectsPositionalsAndMissingValues) {
  const std::vector<Args::Flag> spec = {{"out", "output path"}};
  const char* positional[] = {"prog", "stray"};
  EXPECT_THROW(Args(2, positional, spec), ContractError);
  const char* missing[] = {"prog", "--out"};
  EXPECT_THROW(Args(2, missing, spec), ContractError);
  // A following --flag is never swallowed as the value (use --out=--x
  // for values that genuinely start with dashes).
  const std::vector<Args::Flag> two = {{"out", "output path"},
                                       {"quick", "fast subset", false}};
  const char* swallow[] = {"prog", "--out", "--quick"};
  EXPECT_THROW(Args(3, swallow, two), ContractError);
  const char* eq_form[] = {"prog", "--out=--quick"};
  EXPECT_EQ(Args(2, eq_form, two).get("out", std::string()), "--quick");
}

TEST(ArgsStrict, BooleanFlagsNeverConsumeTheNextToken) {
  // Boolean flags stand alone: `--quick value` never swallows `value`,
  // which is (correctly) rejected as a positional.
  const std::vector<Args::Flag> spec = {{"quick", "fast subset", false},
                                        {"out", "output path"}};
  const char* argv[] = {"prog", "--quick", "--out", "x.json"};
  Args args(4, argv, spec);
  EXPECT_TRUE(args.has("quick"));
  EXPECT_EQ(args.get("out", std::string()), "x.json");
  const char* bad[] = {"prog", "--quick=1"};
  EXPECT_THROW(Args(2, bad, spec), ContractError);
}

TEST(ArgsStrict, HelpIsAlwaysAccepted) {
  const std::vector<Args::Flag> spec = {{"out", "output path"}};
  const char* argv[] = {"prog", "--help"};
  Args args(2, argv, spec);
  EXPECT_TRUE(args.help_requested());
  const std::string usage = args.usage("prog");
  EXPECT_NE(usage.find("--out"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace sparsetrain
