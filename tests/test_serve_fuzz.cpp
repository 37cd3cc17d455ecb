// Seeded-mutation fuzzing of the decoders that read untrusted bytes:
// serve::parse_json and serve::parse_request (NDJSON request lines from
// any client), serve::parse_response (the response lines a router reads
// from its shards) and serve::parse_report (store records and put
// payloads).
//
// Seeds come from the repo's own encoders (format_request,
// format_response, serialize_report of multi-stage reports); each mutant
// stacks a few deterministic byte flips, inserts, deletes, splices and
// digit-run growths, the last so that counts and numbers get huge. The
// property: every mutant either decodes or throws ContractError. Any
// other exception (std::bad_alloc, std::length_error, ...) fails the
// test, and under the sanitizer build so does any report. An accepted
// report re-serialises to a payload that parses back to an equal report.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "compiler/compiler.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/report_io.hpp"
#include "sim/report.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain {
namespace {

constexpr std::size_t kMutantsPerDecoder = 4000;

/// Bytes the decoders' grammars give meaning to, plus a control byte and
/// a high byte; inserts draw from these half the time.
constexpr std::string_view kSyntax = "{}[]\":,\\=\n-+.eE0123456789 \x01\xff";

class Mutator {
 public:
  Mutator(std::vector<std::string> seeds, std::uint64_t seed)
      : seeds_(std::move(seeds)), rng_(seed) {}

  /// One mutant: a seed with one to four mutations stacked on it.
  std::string next() {
    std::string s = seeds_[pick(seeds_.size())];
    const std::size_t n = 1 + pick(4);
    for (std::size_t i = 0; i < n; ++i) mutate(s);
    return s;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_index(n));
  }

  char byte() {
    return pick(2) == 0 ? kSyntax[pick(kSyntax.size())]
                        : static_cast<char>(pick(256));
  }

  void mutate(std::string& s) {
    switch (pick(5)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          s[pick(s.size())] ^= static_cast<char>(1 << pick(8));
        }
        break;
      case 1:  // insert one byte
        s.insert(pick(s.size() + 1), 1, byte());
        break;
      case 2:  // delete a short run
        if (!s.empty()) {
          const std::size_t at = pick(s.size());
          s.erase(at, 1 + pick(8));
        }
        break;
      case 3: {  // splice in a chunk of any seed
        const std::string& from = seeds_[pick(seeds_.size())];
        const std::size_t at = pick(from.size());
        const std::string chunk = from.substr(at, 1 + pick(32));
        s.insert(pick(s.size() + 1), chunk);
        break;
      }
      default: {  // grow the digit run at or after a random offset
        if (s.empty()) break;
        std::size_t at = pick(s.size());
        while (at < s.size() && (s[at] < '0' || s[at] > '9')) ++at;
        if (at == s.size()) break;
        const char fill =
            pick(2) == 0 ? '9' : static_cast<char>('0' + pick(10));
        s.insert(at + 1, 1 + pick(24), fill);
        break;
      }
    }
  }

  std::vector<std::string> seeds_;
  Rng rng_;
};

/// Runs `decode` on kMutantsPerDecoder mutants. Fails on any exception
/// other than ContractError, and when the corpus never decodes or never
/// fails (a vacuous run).
void fuzz(const char* name, std::vector<std::string> seeds,
          std::uint64_t seed,
          const std::function<void(const std::string&)>& decode) {
  Mutator mutator(std::move(seeds), seed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < kMutantsPerDecoder; ++i) {
    const std::string m = mutator.next();
    try {
      decode(m);
      ++accepted;
    } catch (const ContractError&) {
      ++rejected;
    } catch (const std::exception& e) {
      if (++failures <= 3) {
        ADD_FAILURE() << name << " mutant " << i << " threw "
                      << typeid(e).name() << " (" << e.what()
                      << ") instead of ContractError; mutant: "
                      << testing::PrintToString(m);
      }
    }
  }
  EXPECT_EQ(failures, 0u) << name;
  EXPECT_GT(accepted, 0u) << name << ": no mutant decoded";
  EXPECT_GT(rejected, 0u) << name << ": no mutant was refused";
}

sim::SimReport report_with(std::size_t stages) {
  sim::SimReport r;
  r.program_name = "AlexNet/CIFAR [pruned,p=0.9]\nsecond line";
  r.arch_name = "sparsetrain-168pe";
  r.backend = "sparsetrain";
  r.profile_name = "pruned-p0.9";
  r.engine = stages % 2 == 0 ? isa::EngineKind::Exact
                             : isa::EngineKind::Statistical;
  r.clock_ghz = 1.0 / 3.0;
  r.total_pes = 168;
  r.total_cycles = 987654321;
  r.activity = {11, 22, 33, 44, 55};
  r.energy = {1.0 / 3.0, 3.14159265358979, 2.0 / 7.0, 1e-17};
  for (std::size_t i = 0; i < stages; ++i) {
    sim::StageReport s;
    s.layer_index = i;
    s.layer_name = "conv" + std::to_string(i) + ":a=b,c\nd";
    s.stage = static_cast<isa::Stage>(i % 3);
    s.cycles = 1000 + 7 * i;
    s.activity = {i, i + 1, i + 2, i + 3, i + 4};
    s.energy = {0.1 * static_cast<double>(i + 1), 1.0 / 7.0, 2.0 / 9.0,
                1e300};
    r.stages.push_back(std::move(s));
  }
  return r;
}

std::vector<std::string> request_lines() {
  serve::Request eval;
  eval.type = "eval";
  eval.id = "r\"1\\\n";
  eval.workload = "VGG-16/ImageNet";
  eval.scenario = "calibrated";
  eval.engine = "exact";
  eval.p = 0.75;
  eval.batch = 16;
  eval.timeout_ms = 5000;
  eval.include_report = true;
  eval.trace = 0x0123456789abcdefULL;
  eval.parent_span = 0xfedcba9876543210ULL;

  serve::Request put;
  put.type = "put";
  put.id = "p";
  put.fingerprint = 0x2405b78dd893c8c7ULL;
  put.report_hex = serve::hex_encode(serve::serialize_report(report_with(2)));

  serve::Request metrics;
  metrics.type = "metrics";
  metrics.format = "prometheus";

  serve::Request stats;
  stats.type = "stats";
  stats.id = "s";

  std::vector<std::string> lines;
  for (const serve::Request* r : {&eval, &put, &metrics, &stats}) {
    lines.push_back(serve::format_request(*r));
  }
  return lines;
}

std::vector<std::string> response_lines() {
  serve::Response ok;
  ok.id = "r1";
  ok.source = "computed";
  ok.shard = "127.0.0.1:7001";
  ok.elapsed_ms = 12.5;
  ok.workload = "AlexNet/CIFAR";
  ok.backend = "sparsetrain";
  ok.engine = "statistical";
  ok.fingerprint = 0xdeadbeefcafe1234ULL;
  ok.cycles = 123456789;
  ok.latency_ms = 0.25;
  ok.utilization = 0.5;
  ok.on_chip_uj = 1.5;
  ok.dram_uj = 2.5e-3;
  ok.report_hex = serve::hex_encode(serve::serialize_report(report_with(1)));

  serve::Response err;
  err.id = "e";
  err.status = "error";
  err.error = "json: expected ',' at offset 7 \"quoted\"\ttab";

  serve::Response stats;
  stats.type = "stats";
  stats.payload_json =
      "{\"store\": {\"hits\": 3, \"ratio\": 0.75}, \"list\": [1, -2.5e3, "
      "true, null, \"x\"]}";
  return {serve::format_response(ok), serve::format_response(err),
          serve::format_response(stats)};
}

TEST(ServeFuzz, ParseJsonDecodesOrThrowsContractError) {
  std::vector<std::string> seeds = request_lines();
  for (std::string& line : response_lines()) seeds.push_back(std::move(line));
  fuzz("parse_json", std::move(seeds), 0x5eed0001,
       [](const std::string& m) { (void)serve::parse_json(m); });
}

TEST(ServeFuzz, ParseRequestDecodesOrThrowsContractError) {
  fuzz("parse_request", request_lines(), 0x5eed0002,
       [](const std::string& m) {
         const serve::Request r = serve::parse_request(m);
         // An accepted request holds its integer fields inside their caps.
         EXPECT_LE(r.batch, compiler::kMaxBatch);
         EXPECT_GE(r.timeout_ms, 0);
         EXPECT_LE(r.timeout_ms, serve::kMaxTimeoutMs);
       });
}

TEST(ServeFuzz, ParseResponseDecodesOrThrowsContractError) {
  fuzz("parse_response", response_lines(), 0x5eed0004,
       [](const std::string& m) { (void)serve::parse_response(m); });
}

TEST(ServeFuzz, ParseReportDecodesOrThrowsContractErrorAndRoundTrips) {
  std::vector<std::string> seeds;
  for (const std::size_t stages : {1u, 3u, 7u}) {
    seeds.push_back(serve::serialize_report(report_with(stages)));
  }
  fuzz("parse_report", std::move(seeds), 0x5eed0003,
       [](const std::string& m) {
         const std::string again =
             serve::serialize_report(serve::parse_report(m));
         // Canonical bytes compare every field, doubles bit for bit.
         EXPECT_EQ(serve::serialize_report(serve::parse_report(again)), again);
       });
}

}  // namespace
}  // namespace sparsetrain
