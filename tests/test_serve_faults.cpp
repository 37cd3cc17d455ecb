// Store fault injection: the exhaustive crash matrix (killing publication
// at every I/O step leaves the store openable with byte-identical replay),
// checked-write failures (ENOSPC, EIO, short writes, fsync/rename
// failures) that never corrupt the previous record, graceful degradation
// to read-only after persistent publish failure, stale tmp cleanup that
// spares live writers' publications, two stores on one directory
// publishing one fingerprint at once, a core::Session that keeps
// computing while its store is sick (and a DSE sweep that reports the
// degradation), and a session's publication cost: one record per
// computed evaluation, nothing beside results/ and tmp/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/session.hpp"
#include "dse/explorer.hpp"
#include "serve/io_hooks.hpp"
#include "serve/report_io.hpp"
#include "serve/store.hpp"
#include "workload/layer_config.hpp"
#include "workload/sparsity_profile.hpp"

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

using serve::FaultIoHooks;
using serve::InjectedCrash;
using serve::ResultStore;
using serve::StoreOptions;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove_all(dir);
  return dir;
}

sim::SimReport report_with_cycles(std::uint64_t cycles) {
  sim::SimReport r;
  r.program_name = "prog";
  r.arch_name = "sparsetrain-168pe";
  r.backend = "sparsetrain";
  r.profile_name = "pruned-p0.9";
  r.engine = isa::EngineKind::Statistical;
  r.clock_ghz = 1.0;
  r.total_pes = 168;
  r.total_cycles = cycles;
  r.activity = {1, 2, 3, 4, 5};
  r.energy = {1.0 / 3.0, 3.14159, 2.0 / 7.0, 1e-17};
  return r;
}

StoreOptions with_hooks(const std::shared_ptr<FaultIoHooks>& hooks) {
  StoreOptions opts;
  opts.hooks = hooks;
  return opts;
}

/// One clean publication's hooked-I/O op count — the crash matrix runs
/// once per index in [1, N].
std::uint64_t publication_op_count() {
  const std::string dir = fresh_dir("faults_opcount");
  auto hooks = std::make_shared<FaultIoHooks>();
  ResultStore store(dir, with_hooks(hooks));
  hooks->arm({});
  EXPECT_TRUE(store.put_result(1, report_with_cycles(1)));
  const std::uint64_t n = hooks->ops();
  fs::remove_all(dir);
  return n;
}

TEST(StoreFaults, PublicationOpCountCoversEveryStep) {
  // open + 2 writes + flush + fsync + close + rename: the matrix below
  // must cover at least these; if the publication path grows a step the
  // count (and the matrix) follows automatically.
  EXPECT_GE(publication_op_count(), 7u);
}

TEST(StoreFaults, CrashMatrixEveryStepRecoversByteIdentical) {
  const std::uint64_t n = publication_op_count();
  ASSERT_GE(n, 7u);
  const sim::SimReport before = report_with_cycles(100);
  const sim::SimReport after = report_with_cycles(200);
  const std::string before_bytes = serve::serialize_report(before);
  const std::string after_bytes = serve::serialize_report(after);

  for (std::uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE("crash at io op " + std::to_string(k));
    const std::string dir = fresh_dir("faults_crash_" + std::to_string(k));
    auto hooks = std::make_shared<FaultIoHooks>();
    {
      ResultStore store(dir, with_hooks(hooks));
      ASSERT_TRUE(store.put_result(7, before));  // the record at risk
      hooks->arm({.crash_at = k});
      EXPECT_THROW(store.put_result(7, after), InjectedCrash);
    }
    // "Process death" at step k: reopen and the previous record must
    // replay byte-identically — the torn publication never made it in.
    hooks->arm({});
    ResultStore reopened(dir, with_hooks(hooks));
    EXPECT_EQ(reopened.stats().torn_skipped, 0u);
    sim::SimReport out;
    ASSERT_TRUE(reopened.get_result(7, out));
    EXPECT_EQ(serve::serialize_report(out), before_bytes);
    // The store stayed fully writable: the interrupted overwrite now
    // lands.
    EXPECT_FALSE(reopened.read_only());
    EXPECT_TRUE(reopened.put_result(7, after));
    ASSERT_TRUE(reopened.get_result(7, out));
    EXPECT_EQ(serve::serialize_report(out), after_bytes);
    fs::remove_all(dir);
  }
}

TEST(StoreFaults, CrashOnFirstPublicationLeavesNoRecord) {
  const std::uint64_t n = publication_op_count();
  for (std::uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE("crash at io op " + std::to_string(k));
    const std::string dir = fresh_dir("faults_first_" + std::to_string(k));
    auto hooks = std::make_shared<FaultIoHooks>();
    {
      ResultStore store(dir, with_hooks(hooks));
      hooks->arm({.crash_at = k});
      EXPECT_THROW(store.put_result(7, report_with_cycles(1)),
                   InjectedCrash);
    }
    hooks->arm({});
    ResultStore reopened(dir, with_hooks(hooks));
    // All-or-nothing: either the crash hit after the rename was issued
    // (impossible here — the crash replaces the op) or no record exists.
    sim::SimReport out;
    EXPECT_FALSE(reopened.get_result(7, out));
    EXPECT_EQ(reopened.stats().torn_skipped, 0u);
    fs::remove_all(dir);
  }
}

TEST(StoreFaults, FailedStepKeepsOldRecordAndReportsFailure) {
  const std::uint64_t n = publication_op_count();
  const sim::SimReport before = report_with_cycles(100);
  const std::string before_bytes = serve::serialize_report(before);
  for (std::uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE("fail at io op " + std::to_string(k));
    const std::string dir = fresh_dir("faults_fail_" + std::to_string(k));
    auto hooks = std::make_shared<FaultIoHooks>();
    ResultStore store(dir, with_hooks(hooks));
    ASSERT_TRUE(store.put_result(7, before));
    hooks->arm({.fail_at = k, .error = EIO});
    EXPECT_FALSE(store.put_result(7, report_with_cycles(200)));
    const serve::StoreStats s = store.stats();
    EXPECT_EQ(s.publish_failures, 1u);
    EXPECT_FALSE(s.read_only);  // one failure is not degradation
    EXPECT_NE(store.last_publish_error(), "");
    // The old record is still served, and the tmp debris is gone.
    sim::SimReport out;
    ASSERT_TRUE(store.get_result(7, out));
    EXPECT_EQ(serve::serialize_report(out), before_bytes);
    EXPECT_TRUE(fs::is_empty(fs::path(dir) / "tmp"));
    // A later healthy put recovers and resets the failure streak.
    EXPECT_TRUE(store.put_result(7, report_with_cycles(300)));
    fs::remove_all(dir);
  }
}

TEST(StoreFaults, ShortWriteNeverPublishesTornBytes) {
  const std::string dir = fresh_dir("faults_short");
  auto hooks = std::make_shared<FaultIoHooks>();
  ResultStore store(dir, with_hooks(hooks));
  // Op 3 is the payload write: half the bytes land, then EIO.
  hooks->arm({.fail_at = 3, .error = EIO, .short_write = true});
  EXPECT_FALSE(store.put_result(9, report_with_cycles(1)));
  EXPECT_EQ(store.stats().publish_failures, 1u);
  sim::SimReport out;
  EXPECT_FALSE(store.get_result(9, out));
  // Nothing under results/, nothing under tmp/ — the torn file was
  // discarded, not renamed into place.
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "results"));
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "tmp"));
  fs::remove_all(dir);
}

TEST(StoreFaults, PersistentEnospcFlipsReadOnlyGetsKeepServing) {
  const std::string dir = fresh_dir("faults_enospc");
  auto hooks = std::make_shared<FaultIoHooks>();
  StoreOptions opts = with_hooks(hooks);
  opts.read_only_after = 3;
  ResultStore store(dir, opts);
  const sim::SimReport kept = report_with_cycles(42);
  ASSERT_TRUE(store.put_result(1, kept));

  // The disk fills: every subsequent operation reports ENOSPC.
  hooks->arm({.fail_at = 1, .error = ENOSPC, .sticky = true});
  EXPECT_FALSE(store.put_result(2, report_with_cycles(2)));
  EXPECT_FALSE(store.read_only());
  EXPECT_FALSE(store.put_result(3, report_with_cycles(3)));
  EXPECT_FALSE(store.read_only());
  EXPECT_FALSE(store.put_result(4, report_with_cycles(4)));
  EXPECT_TRUE(store.read_only());  // third consecutive failure degrades

  // Read-only is sticky even after the disk recovers: puts are dropped
  // without touching the filesystem, gets serve what was published.
  hooks->arm({});
  EXPECT_FALSE(store.put_result(5, report_with_cycles(5)));
  sim::SimReport out;
  ASSERT_TRUE(store.get_result(1, out));
  EXPECT_EQ(serve::serialize_report(out), serve::serialize_report(kept));

  const serve::StoreStats s = store.stats();
  EXPECT_TRUE(s.read_only);
  EXPECT_EQ(s.publish_failures, 3u);
  EXPECT_EQ(s.dropped_publishes, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_NE(store.last_publish_error().find("errno"), std::string::npos);

  // A reopen (operator fixed the disk, restarted the daemon) is writable
  // again — degradation is per-instance, not persisted.
  ResultStore reopened(dir, opts);
  EXPECT_FALSE(reopened.read_only());
  EXPECT_TRUE(reopened.put_result(6, report_with_cycles(6)));
  fs::remove_all(dir);
}

TEST(StoreFaults, StaleTmpFilesAreCleanedAtOpen) {
  const std::string dir = fresh_dir("faults_tmp");
  { ResultStore store(dir); }  // create the layout
  std::ofstream(fs::path(dir) / "tmp" / "deadbeef.1.tmp") << "half a rec";
  std::ofstream(fs::path(dir) / "tmp" / "deadbeef.2.tmp") << "more debris";
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().tmp_cleaned, 2u);
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "tmp"));
  fs::remove_all(dir);
}

/// Real I/O, except that the first fsync first runs `between`: a second
/// store's whole publication then lands while this store's tmp file is
/// written but not yet renamed.
class InterleavingHooks : public serve::IoHooks {
 public:
  std::function<void()> between;

  int sync(std::FILE* f) override {
    if (between) std::exchange(between, nullptr)();
    return IoHooks::sync(f);
  }
};

TEST(StoreFaults, StoresSharingADirectoryNeverShareATmpFile) {
  // Two instances on one directory publish fingerprint 7 at once. With
  // per-instance tmp names both would write <fp>.1.tmp: the second
  // rename would find its tmp file gone and count a publish failure.
  const std::string dir = fresh_dir("faults_shared_tmp");
  auto hooks = std::make_shared<InterleavingHooks>();
  StoreOptions opts;
  opts.hooks = hooks;
  ResultStore a(dir, opts);
  ResultStore b(dir);
  const std::string a_bytes = serve::serialize_report(report_with_cycles(1));
  const std::string b_bytes = serve::serialize_report(report_with_cycles(2));
  bool b_published = false;
  hooks->between = [&] {
    b_published = b.put_result(7, report_with_cycles(2));
  };
  EXPECT_TRUE(a.put_result(7, report_with_cycles(1)));
  EXPECT_TRUE(b_published);
  EXPECT_EQ(a.stats().publish_failures, 0u);
  EXPECT_EQ(b.stats().publish_failures, 0u);
  EXPECT_EQ(a.last_publish_error(), "");
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "tmp"));

  ResultStore reopened(dir);
  EXPECT_EQ(reopened.stats().torn_skipped, 0u);
  sim::SimReport out;
  ASSERT_TRUE(reopened.get_result(7, out));
  const std::string got = serve::serialize_report(out);
  EXPECT_TRUE(got == a_bytes || got == b_bytes);
  fs::remove_all(dir);
}

TEST(StoreFaults, OpeningAStoreLeavesAPublicationInFlight) {
  // A second store opened on the directory while the first store's tmp
  // file is written but not yet renamed must leave that file in place:
  // removing it would fail the first store's rename.
  const std::string dir = fresh_dir("faults_open_in_flight");
  auto hooks = std::make_shared<InterleavingHooks>();
  StoreOptions opts;
  opts.hooks = hooks;
  ResultStore a(dir, opts);
  std::size_t cleaned = 1;
  hooks->between = [&] { cleaned = ResultStore(dir).stats().tmp_cleaned; };
  EXPECT_TRUE(a.put_result(7, report_with_cycles(1)))
      << a.last_publish_error();
  EXPECT_EQ(cleaned, 0u);
  EXPECT_EQ(a.stats().publish_failures, 0u);
  sim::SimReport out;
  EXPECT_TRUE(ResultStore(dir).get_result(7, out));
  fs::remove_all(dir);
}

#ifndef _WIN32
TEST(StoreFaults, LiveProcessTmpFileSurvivesUntilItsWriterIsReaped) {
  const std::string dir = fresh_dir("faults_live_pid");
  { ResultStore store(dir); }  // create the layout
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The stand-in writer lives until the parent closes the pipe.
    ::close(fds[1]);
    char c = 0;
    while (::read(fds[0], &c, 1) < 0 && errno == EINTR) {
    }
    ::_exit(0);
  }
  ::close(fds[0]);
  const fs::path tmp = fs::path(dir) / "tmp" /
                       ("0000000000000007." + std::to_string(child) +
                        ".1.tmp");
  std::ofstream(tmp) << "half a record";
  EXPECT_EQ(ResultStore(dir).stats().tmp_cleaned, 0u);
  EXPECT_TRUE(fs::exists(tmp));

  ::close(fds[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_EQ(ResultStore(dir).stats().tmp_cleaned, 1u);
  EXPECT_FALSE(fs::exists(tmp));
  fs::remove_all(dir);
}
#endif

TEST(SessionFaults, SessionKeepsComputingWithASickStore) {
  const std::string dir = fresh_dir("faults_session");
  auto hooks = std::make_shared<FaultIoHooks>();
  StoreOptions sopts = with_hooks(hooks);
  sopts.read_only_after = 1;  // degrade on the first failed publication
  core::SessionConfig cfg;
  cfg.workers = 2;
  cfg.store = std::make_shared<ResultStore>(dir, sopts);
  core::Session session(cfg);

  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::pruned(net, 0.9);

  // Disk dies before the first evaluation publishes.
  hooks->arm({.fail_at = 1, .error = ENOSPC, .sticky = true});
  const core::EvalResult first = session.wait(
      session.submit(net, profile, {core::Session::kSparseBackend}));
  EXPECT_FALSE(first.runs[0].from_store);
  EXPECT_GT(first.runs[0].report.total_cycles, 0u);  // the eval succeeded
  EXPECT_TRUE(session.result_store()->read_only());

  // Serving continues: the next evaluation computes again (nothing was
  // persisted) and does not attempt to publish.
  const core::EvalResult second = session.wait(
      session.submit(net, profile, {core::Session::kSparseBackend}));
  EXPECT_FALSE(second.runs[0].from_store);
  EXPECT_EQ(second.runs[0].report.total_cycles,
            first.runs[0].report.total_cycles);
  EXPECT_EQ(session.result_store()->stats().puts, 0u);

  // Operators can see the degradation in the stats export.
  std::ostringstream os;
  core::export_stats_json(session, os);
  EXPECT_NE(os.str().find("\"read_only\": true"), std::string::npos);
  EXPECT_NE(os.str().find("\"publish_failures\": 1"), std::string::npos);
  fs::remove_all(dir);
}

TEST(SessionFaults, ExplorationReportsAStoreThatDegradedMidSweep) {
  const std::string dir = fresh_dir("faults_explore");
  auto hooks = std::make_shared<FaultIoHooks>();
  StoreOptions sopts = with_hooks(hooks);
  sopts.read_only_after = 1;
  core::SessionConfig cfg;
  cfg.workers = 2;
  cfg.store = std::make_shared<ResultStore>(dir, sopts);
  core::Session session(cfg);

  dse::SpaceSpec space;
  space.pe_groups = {4, 8};
  space.pes_per_group = {2};
  space.buffer_bytes = {64 * 1024};
  space.sparse = {true};
  space.scenarios = {dse::Scenario::pruned(0.9)};
  // The disk dies before the sweep's first publication.
  hooks->arm({.fail_at = 1, .error = ENOSPC, .sticky = true});
  dse::Explorer explorer(session);
  const dse::ExploreResult r =
      explorer.explore(space, {workload::tiny_workload()}, {});

  EXPECT_EQ(r.evaluations, 2u);  // the sweep itself completed
  EXPECT_TRUE(r.store.read_only);
  EXPECT_GT(r.store.publish_failures, 0u);
  EXPECT_GT(r.store.dropped_publishes, 0u);
  EXPECT_EQ(r.store.puts, 0u);
  fs::remove_all(dir);
}

TEST(StorePublication, ComputedEvaluationPublishesOneRecord) {
  // A cold evaluation's store traffic is one lookup (an index miss, no
  // I/O) and one publication: exactly the hooked ops of one put_result.
  const std::uint64_t one_publication = publication_op_count();
  const std::string dir = fresh_dir("publish_once");
  auto hooks = std::make_shared<FaultIoHooks>();
  core::SessionConfig cfg;
  cfg.workers = 1;
  cfg.store = std::make_shared<ResultStore>(dir, with_hooks(hooks));
  core::Session session(cfg);
  const auto net = workload::tiny_workload();
  const auto profile = workload::SparsityProfile::pruned(net, 0.9);

  hooks->arm({});
  const core::EvalResult r = session.wait(
      session.submit(net, profile, {core::Session::kSparseBackend}));
  EXPECT_FALSE(r.runs[0].from_store);
  EXPECT_EQ(hooks->ops(), one_publication);
  EXPECT_EQ(session.result_store()->stats().puts, 1u);
  fs::remove_all(dir);
}

TEST(StorePublication, CapBoundsTheStoreDirectory) {
  // N distinct evaluations on a capped store: everything the store
  // writes lives under results/ (bounded by the cap) and tmp/ (empty
  // between publications).
  const auto net = workload::tiny_workload();
  const auto profile = [&](int i) {
    return workload::SparsityProfile::pruned(net, 0.5 + 0.05 * i);
  };
  std::uint64_t record = 0;
  {
    core::SessionConfig plain_cfg;
    plain_cfg.workers = 1;
    core::Session plain(plain_cfg);
    const core::EvalResult r = plain.wait(
        plain.submit(net, profile(0), {core::Session::kSparseBackend}));
    record = serve::serialize_report(r.runs[0].report).size();
  }
  const std::string dir = fresh_dir("publish_capped");
  StoreOptions opts;
  opts.max_bytes = 2 * record + record / 2;  // room for about two records
  core::SessionConfig cfg;
  cfg.workers = 1;
  cfg.store = std::make_shared<ResultStore>(dir, opts);
  core::Session session(cfg);
  constexpr int kEvaluations = 8;
  for (int i = 0; i < kEvaluations; ++i) {
    const core::EvalResult r = session.wait(
        session.submit(net, profile(i), {core::Session::kSparseBackend}));
    EXPECT_FALSE(r.runs[0].from_store);
  }

  std::vector<std::string> top;
  for (const auto& de : fs::directory_iterator(dir)) {
    top.push_back(de.path().filename().string());
  }
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, (std::vector<std::string>{"results", "tmp"}));
  EXPECT_TRUE(fs::is_empty(fs::path(dir) / "tmp"));

  // The payload resident under results/ (each file minus its header
  // line) is what the cap bounds.
  std::size_t files = 0;
  std::uint64_t payload = 0;
  for (const auto& de : fs::directory_iterator(fs::path(dir) / "results")) {
    std::ifstream in(de.path(), std::ios::binary);
    std::string header;
    std::getline(in, header);
    payload += fs::file_size(de.path()) - (header.size() + 1);
    ++files;
  }
  const serve::StoreStats s = session.result_store()->stats();
  EXPECT_EQ(s.puts, static_cast<std::size_t>(kEvaluations));
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(files, s.entries);
  EXPECT_EQ(payload, s.bytes);
  EXPECT_LE(payload, opts.max_bytes);
  fs::remove_all(dir);
}

TEST(StoreFaults, EvictingPutIsNeverAPublishFailure) {
  // Eviction runs inside the successful-put path; even at the harshest
  // degradation threshold (one failure flips read-only) a store that
  // evicts on every put must stay healthy and writable.
  const std::string dir = fresh_dir("faults_evict_ok");
  const std::uint64_t record =
      serve::serialize_report(report_with_cycles(100)).size();
  StoreOptions opts;
  opts.max_bytes = record + record / 2;  // room for one record, not two
  opts.read_only_after = 1;
  ResultStore store(dir, opts);

  for (std::uint64_t fp = 1; fp <= 5; ++fp) {
    ASSERT_TRUE(store.put_result(fp, report_with_cycles(100 + fp)));
  }
  const serve::StoreStats s = store.stats();
  EXPECT_FALSE(s.read_only);
  EXPECT_EQ(s.publish_failures, 0u);
  EXPECT_EQ(s.evictions, 4u);  // each put past the first evicted one
  EXPECT_EQ(s.entries, 1u);
  sim::SimReport out;
  EXPECT_TRUE(store.get_result(5, out));  // newest survived
  EXPECT_FALSE(store.get_result(1, out));
  fs::remove_all(dir);
}

TEST(StoreFaults, EvictRemoveFailureDoesNotFailThePut) {
  const std::string dir = fresh_dir("faults_evict_remove");
  auto hooks = std::make_shared<FaultIoHooks>();
  const std::uint64_t record =
      serve::serialize_report(report_with_cycles(100)).size();
  StoreOptions opts = with_hooks(hooks);
  opts.max_bytes = record + record / 2;
  opts.read_only_after = 1;
  ResultStore store(dir, opts);
  ASSERT_TRUE(store.put_result(1, report_with_cycles(100)));

  // The publication itself is 7 hooked ops; the eviction's remove is the
  // 8th. Failing it must not fail the put, mark the store degraded, or
  // leave the victim in the index (the orphan file is reindexed only by
  // a reopen).
  hooks->arm({.fail_at = 8, .error = EIO});
  ASSERT_TRUE(store.put_result(2, report_with_cycles(200)));
  const serve::StoreStats s = store.stats();
  EXPECT_FALSE(s.read_only);
  EXPECT_EQ(s.publish_failures, 0u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);
  sim::SimReport out;
  EXPECT_TRUE(store.get_result(2, out));
  EXPECT_FALSE(store.get_result(1, out));
  fs::remove_all(dir);
}

TEST(StoreFaults, ReadOnlyStoreNeverEvictsAndDropsStayDropped) {
  // A degraded (read-only) store under a size cap: dropped puts must not
  // trigger eviction of healthy records, must not count as publish
  // failures, and must not resurrect after a reopen.
  const std::string dir = fresh_dir("faults_ro_lru");
  auto hooks = std::make_shared<FaultIoHooks>();
  const std::uint64_t record =
      serve::serialize_report(report_with_cycles(100)).size();
  StoreOptions opts = with_hooks(hooks);
  opts.max_bytes = 3 * record;  // fits the two survivors comfortably
  opts.read_only_after = 2;
  ResultStore store(dir, opts);
  ASSERT_TRUE(store.put_result(1, report_with_cycles(100)));
  ASSERT_TRUE(store.put_result(2, report_with_cycles(200)));

  hooks->arm({.fail_at = 1, .error = ENOSPC, .sticky = true});
  EXPECT_FALSE(store.put_result(3, report_with_cycles(300)));
  EXPECT_FALSE(store.put_result(4, report_with_cycles(400)));
  ASSERT_TRUE(store.read_only());
  const serve::StoreStats degraded = store.stats();

  // The disk heals, but this instance stays read-only: a burst of puts
  // (enough to overflow the cap, were they admitted) is dropped without
  // evicting anything or touching the failure counters.
  hooks->arm({});
  for (std::uint64_t fp = 10; fp < 16; ++fp) {
    EXPECT_FALSE(store.put_result(fp, report_with_cycles(fp)));
  }
  const serve::StoreStats s = store.stats();
  EXPECT_EQ(s.evictions, degraded.evictions);
  EXPECT_EQ(s.publish_failures, degraded.publish_failures);
  EXPECT_EQ(s.dropped_publishes, degraded.dropped_publishes + 6);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, degraded.bytes);
  sim::SimReport out;
  EXPECT_TRUE(store.get_result(1, out));
  EXPECT_TRUE(store.get_result(2, out));

  // Reopen: the survivors are there, the dropped puts are gone for good
  // (dropping never left half-written records to resurrect).
  ResultStore reopened(dir, opts);
  EXPECT_FALSE(reopened.read_only());
  EXPECT_TRUE(reopened.get_result(1, out));
  EXPECT_TRUE(reopened.get_result(2, out));
  for (std::uint64_t fp = 3; fp < 16; ++fp) {
    EXPECT_FALSE(reopened.get_result(fp, out));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sparsetrain
