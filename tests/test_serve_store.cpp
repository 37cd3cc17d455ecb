// Persistent result store: byte-exact report serialisation, durability
// (reopen, torn-record recovery, concurrent writers, directories left by
// older versions), LRU eviction under
// a size cap, and the frozen v1 job fingerprint (golden value + per-field
// sensitivity — the tripwire that fires when a result-affecting field is
// added upstream without a canonicalisation version bump).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"
#include "serve/report_io.hpp"
#include "serve/store.hpp"
#include "sim/accelerator.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

using serve::ResultStore;
using serve::StoreOptions;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove_all(dir);
  return dir;
}

/// A report exercising every serialised field, with doubles that do not
/// round-trip through decimal printing (1/3, pi-ish) and a layer name
/// holding the separators the framing must survive.
sim::SimReport sample_report(std::size_t stages = 3) {
  sim::SimReport r;
  r.program_name = "prog:with,separators\nand a newline";
  r.arch_name = "sparsetrain-168pe";
  r.backend = "sparsetrain";
  r.profile_name = "pruned-p0.9";
  r.engine = isa::EngineKind::Statistical;
  r.clock_ghz = 0.1 + 1.0 / 3.0;
  r.total_pes = 168;
  r.total_cycles = 123456789;
  r.activity = {11, 22, 33, 44, 55};
  r.energy = {1.0 / 3.0, 3.14159265358979, 2.0 / 7.0, 1e-17};
  for (std::size_t i = 0; i < stages; ++i) {
    sim::StageReport s;
    s.layer_index = i;
    s.layer_name = "conv" + std::to_string(i) + ":a,b\nc";
    s.stage = i % 2 ? isa::Stage::GTA : isa::Stage::Forward;
    s.cycles = 1000 + i;
    s.activity = {i, i + 1, i + 2, i + 3, i + 4};
    s.energy = {0.1 * static_cast<double>(i + 1), 1.0 / 7.0, 2.0 / 9.0,
                1e300};
    r.stages.push_back(std::move(s));
  }
  return r;
}

TEST(ReportIo, RoundTripIsByteExact) {
  const sim::SimReport r = sample_report();
  const std::string payload = serve::serialize_report(r);
  const sim::SimReport back = serve::parse_report(payload);
  // Byte-exact: re-serialising the parsed report reproduces the payload,
  // which implies every double's bit pattern survived.
  EXPECT_EQ(serve::serialize_report(back), payload);
  EXPECT_EQ(back.program_name, r.program_name);
  EXPECT_EQ(back.stages.size(), r.stages.size());
  EXPECT_EQ(back.stages[1].layer_name, r.stages[1].layer_name);
  EXPECT_EQ(back.total_cycles, r.total_cycles);
  EXPECT_EQ(back.energy.comb_pj, r.energy.comb_pj);  // exact, not near
  EXPECT_EQ(back.clock_ghz, r.clock_ghz);
}

TEST(ReportIo, RejectsCorruptPayloads) {
  const std::string payload = serve::serialize_report(sample_report());
  EXPECT_THROW(serve::parse_report(""), ContractError);
  EXPECT_THROW(serve::parse_report("sparsetrain.report/v2\n"),
               ContractError);
  EXPECT_THROW(
      serve::parse_report(payload.substr(0, payload.size() / 2)),
      ContractError);
  EXPECT_THROW(serve::parse_report(payload + "extra"), ContractError);

  // A stage count far past the records that follow is an ordinary
  // corrupt record, not an allocation failure (std::bad_alloc or
  // std::length_error would escape ResultStore::get_result, which
  // catches ContractError).
  const std::size_t at = payload.find("\nstages=3\n");
  ASSERT_NE(at, std::string::npos);
  for (const char* count : {"100000000000", "18446744073709551615"}) {
    std::string bad = payload;
    bad.replace(at, 10, std::string("\nstages=") + count + "\n");
    EXPECT_THROW(serve::parse_report(bad), ContractError) << count;
  }
}

TEST(Store, PutGetCountersAndReopen) {
  const std::string dir = fresh_dir("put_get");
  const sim::SimReport r = sample_report();
  {
    ResultStore store(dir);
    sim::SimReport out;
    EXPECT_FALSE(store.get_result(1, out));
    store.put_result(1, r);
    EXPECT_TRUE(store.get_result(1, out));
    EXPECT_EQ(serve::serialize_report(out), serve::serialize_report(r));
    const auto s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.puts, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
  }
  // A fresh instance on the same directory sees everything.
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().entries, 1u);
  sim::SimReport out;
  ASSERT_TRUE(reopened.get_result(1, out));
  EXPECT_EQ(serve::serialize_report(out), serve::serialize_report(r));
  fs::remove_all(dir);
}

TEST(Store, TornRecordIsSkippedAtOpen) {
  const std::string dir = fresh_dir("torn");
  {
    ResultStore store(dir);
    store.put_result(1, sample_report());
    store.put_result(2, sample_report(5));
  }
  // Tear the second record the way a crash mid-write would (the rename
  // discipline makes this impossible in normal operation, but a record
  // can still rot on disk).
  std::size_t torn = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/results")) {
    if (torn == 0) {
      const auto size = fs::file_size(entry.path());
      fs::resize_file(entry.path(), size / 2);
      ++torn;
    }
  }
  ASSERT_EQ(torn, 1u);

  ResultStore reopened(dir);
  const auto s = reopened.stats();
  EXPECT_EQ(s.torn_skipped, 1u);
  EXPECT_EQ(s.entries, 1u);
  // The intact record still reads; the torn one is a clean miss.
  sim::SimReport out;
  EXPECT_EQ(reopened.get_result(1, out) ? 1 : 0,
            reopened.get_result(2, out) ? 0 : 1);
  // And the torn file was removed, so the next open is quiet.
  ResultStore again(dir);
  EXPECT_EQ(again.stats().torn_skipped, 0u);
  EXPECT_EQ(again.stats().entries, 1u);
  fs::remove_all(dir);
}

/// A record file in the sparsetrain.store/v1 format: one header line
/// ("sparsetrain.store/v1 <kind> <fp hex> <payload bytes> <fnv1a hex>")
/// followed by the payload.
std::string v1_record(const char* kind, std::uint64_t fp,
                      const std::string& payload) {
  char header[96];
  std::snprintf(header, sizeof header, "sparsetrain.store/v1 %s %016llx %zu "
                "%016llx\n", kind, static_cast<unsigned long long>(fp),
                payload.size(),
                static_cast<unsigned long long>(fnv1a(payload)));
  return header + payload;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(Store, OlderLayoutWithProgramsDirectoryStillOpens) {
  // Older stores also kept compiled-program metadata records under
  // programs/. Such a directory opens as it is: its result records serve
  // byte-identically, and programs/ is neither read, counted nor touched
  // (not even its torn file).
  const std::string dir = fresh_dir("older_layout");
  const fs::path results = fs::path(dir) / "results";
  const fs::path programs = fs::path(dir) / "programs";
  fs::create_directories(results);
  fs::create_directories(programs);
  const std::string report = serve::serialize_report(sample_report());
  write_file(results / "0000000000000001.rec", v1_record("result", 1, report));
  const std::string program = v1_record(
      "program", 7, "name=7:tiny-b1\nengine=0\nbatch=1\ninstructions=42\n");
  const std::string torn =
      "sparsetrain.store/v1 program 0000000000000009 999 0\nhalf a rec";
  write_file(programs / "0000000000000007.rec", program);
  write_file(programs / "0000000000000009.rec", torn);

  {
    ResultStore store(dir);
    const auto s = store.stats();
    EXPECT_EQ(s.torn_skipped, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, report.size());
    sim::SimReport out;
    ASSERT_TRUE(store.get_result(1, out));
    EXPECT_EQ(serve::serialize_report(out), report);
    // A new record lands beside the old one in the same format.
    ASSERT_TRUE(store.put_result(2, sample_report(5)));
    EXPECT_EQ(read_file(results / "0000000000000002.rec"),
              v1_record("result", 2,
                        serve::serialize_report(sample_report(5))));
  }
  EXPECT_EQ(std::distance(fs::directory_iterator(programs),
                          fs::directory_iterator{}),
            2);
  EXPECT_EQ(read_file(programs / "0000000000000007.rec"), program);
  EXPECT_EQ(read_file(programs / "0000000000000009.rec"), torn);
  fs::remove_all(dir);
}

TEST(Store, ConcurrentWritersAreSafe) {
  const std::string dir = fresh_dir("concurrent");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 16;
  {
    ResultStore store(dir);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t]() {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          store.put_result(t * 1000 + i, sample_report(1 + i % 3));
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(store.stats().entries, kThreads * kPerThread);
  }
  // Every record survives a reopen intact.
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().entries, kThreads * kPerThread);
  EXPECT_EQ(reopened.stats().torn_skipped, 0u);
  sim::SimReport out;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      ASSERT_TRUE(reopened.get_result(t * 1000 + i, out));
    }
  }
  fs::remove_all(dir);
}

TEST(Store, EvictionRespectsCapAndRecency) {
  const std::string dir = fresh_dir("evict");
  const sim::SimReport r = sample_report();
  const std::uint64_t one =
      static_cast<std::uint64_t>(serve::serialize_report(r).size());
  StoreOptions opts;
  opts.max_bytes = 3 * one + one / 2;  // room for three records
  ResultStore store(dir, opts);
  store.put_result(1, r);
  store.put_result(2, r);
  store.put_result(3, r);
  EXPECT_EQ(store.stats().evictions, 0u);

  // Touch 1 so it is more recent than 2; the next put evicts 2 (LRU).
  sim::SimReport out;
  ASSERT_TRUE(store.get_result(1, out));
  store.put_result(4, r);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().entries, 3u);
  EXPECT_LE(store.stats().bytes, opts.max_bytes);
  EXPECT_TRUE(store.contains_result(1));
  EXPECT_FALSE(store.contains_result(2));
  EXPECT_TRUE(store.contains_result(3));
  EXPECT_TRUE(store.contains_result(4));

  // A cap smaller than one record still keeps the just-published record.
  const std::string dir2 = fresh_dir("evict_small");
  StoreOptions tiny;
  tiny.max_bytes = 1;
  ResultStore small(dir2, tiny);
  small.put_result(1, r);
  EXPECT_TRUE(small.contains_result(1));
  small.put_result(2, r);
  EXPECT_FALSE(small.contains_result(1));
  EXPECT_TRUE(small.contains_result(2));
  fs::remove_all(dir);
  fs::remove_all(dir2);
}

TEST(Store, RecencySurvivesReopen) {
  const std::string dir = fresh_dir("recency");
  const sim::SimReport r = sample_report();
  const std::uint64_t one =
      static_cast<std::uint64_t>(serve::serialize_report(r).size());
  {
    ResultStore store(dir);
    store.put_result(1, r);
    store.put_result(2, r);
  }
  StoreOptions opts;
  opts.max_bytes = 2 * one + one / 2;
  ResultStore reopened(dir, opts);
  // Oldest-by-mtime is 1; publishing a third record evicts it.
  reopened.put_result(3, r);
  EXPECT_EQ(reopened.stats().evictions, 1u);
  EXPECT_FALSE(reopened.contains_result(1));
  EXPECT_TRUE(reopened.contains_result(2));
  EXPECT_TRUE(reopened.contains_result(3));
  fs::remove_all(dir);
}

// ---------------------------------------------------------- fingerprints

serve::EvalJob golden_job() {
  serve::EvalJob job;
  job.net = workload::tiny_workload();
  job.profile = workload::SparsityProfile::pruned(job.net, 0.9);
  job.copts = compiler::CompileOptions{};
  job.backend = "sparsetrain";
  job.backend_kind = "accelerator";
  job.arch = sim::ArchConfig{};
  job.run_seed = 42;
  return job;
}

TEST(Fingerprint, GoldenValueIsFrozen) {
  // The v1 fingerprint of this fixed job is part of the on-disk format:
  // if this value changes, every existing store goes silently cold. Do
  // NOT update the constant to make the test pass — add a result-
  // affecting field to canonical_job_key_v1 only together with a v2
  // canonicalisation (see serve/job.hpp).
  const std::uint64_t fp = serve::fingerprint_v1(golden_job());
  const std::uint64_t kGolden = 0x2405b78dd893c8c7u;
  EXPECT_EQ(fp, kGolden) << "actual fingerprint: 0x" << std::hex << fp;
}

TEST(Fingerprint, SensitiveToEveryResultAffectingField) {
  const serve::EvalJob base = golden_job();
  const std::uint64_t fp = serve::fingerprint_v1(base);

  auto differs = [&](auto mutate) {
    serve::EvalJob j = golden_job();
    mutate(j);
    return serve::fingerprint_v1(j) != fp;
  };
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.run_seed = 43; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.backend = "other"; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.backend_kind = "exact"; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.arch.pe_groups += 1; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.arch.clock_ghz *= 2.0; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.arch.seed += 1; }));
  EXPECT_TRUE(
      differs([](serve::EvalJob& j) { j.arch.max_sched_samples += 1; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) { j.copts.batch = 2; }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) {
    j.copts.engine = isa::EngineKind::Exact;
  }));
  EXPECT_TRUE(differs([](serve::EvalJob& j) {
    j.profile = workload::SparsityProfile::pruned(j.net, 0.8);
  }));
  // The component form and the EvalJob form agree.
  EXPECT_EQ(serve::fingerprint_v1(base.net, base.profile, base.copts,
                                  base.backend, base.backend_kind, base.arch,
                                  base.run_seed),
            fp);
}

}  // namespace
}  // namespace sparsetrain
