// Content-addressed on-disk result store.
//
// Maps a job fingerprint (serve::fingerprint_v1) to a serialized
// SimReport, persistently across processes and users. core::Session
// consults an attached store before simulating and publishes after, so a
// warm store serves repeat evaluation traffic with zero simulations and
// zero compiles.
//
// Layout: <dir>/results holds one record per file, named by the
// fingerprint hex (<16 hex digits>.rec), and <dir>/tmp holds
// publications in flight. A record is a one-line versioned header
// ("sparsetrain.store/v1 result <fp> <payload bytes> <checksum>") and the
// payload. Records are written to tmp/ — every write/flush checked,
// fsync'd before publication — and published by atomic rename, so
// readers (and other store instances on the same directory) never
// observe a half-written record and a torn tmp file is never renamed into
// place. open() rebuilds the in-memory index by scanning results/;
// torn/truncated/corrupt records are skipped (and removed) rather than
// trusted, and stale tmp files left by a crash mid-publication are
// cleaned up — a crash at any point costs at most the record being
// written. Older stores also kept compiled-program metadata under
// <dir>/programs; that directory is never read, counted or removed, and
// may be deleted by hand.
//
// Fault tolerance: all file I/O goes through an injectable serve::IoHooks
// seam (StoreOptions::hooks), so tests can fail or kill any individual
// step. A failed publication NEVER throws out of put_result — the put
// reports failure, and after `read_only_after` consecutive publication
// failures (a sick disk, not a one-off) the store degrades to read-only:
// gets keep serving, puts are dropped and counted, and the read_only flag
// is exported through stats() so operators see it. The attached Session
// keeps computing either way — serving never dies because the disk did.
//
// Eviction: when `max_bytes > 0`, publishing a result evicts
// least-recently-used result records until the resident payload size is
// back under the cap (the record just published is never evicted, so a
// single oversized record still persists its run). Recency is seeded
// from file modification times at open and bumped by hits and puts.
//
// Concurrency: all operations are thread-safe within one instance (a
// single mutex — store traffic is tiny next to a simulation). Two
// instances on one directory, in one process or in two, are safe against
// corruption thanks to the rename discipline, but each instance only
// sees the other's records published before its own open(); a get()
// whose file was evicted by another instance degrades to a miss. Tmp
// files are named <fp hex>.<pid>.<n>.tmp, with n from a process-wide
// counter, so two instances publishing the same fingerprint never share
// a tmp file: both renames land, and the later one's record stays.
// open() removes only tmp files no writer still owns: names of another
// form, names whose pid is no live process, and this process's names
// that are not in flight (a publication registers its n process-wide
// before it opens the file and leaves on every exit path). The pid test
// sees one pid namespace only: instances sharing a directory across
// hosts or containers can still remove each other's publications in
// flight (the record is lost, never torn), and debris whose pid a live
// process reused stays until that process exits. Windows builds cannot
// test a pid and remove every other process's tmp files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "serve/io_hooks.hpp"
#include "sim/report.hpp"

namespace sparsetrain::serve {

/// Internal signal that one publication step failed (carries the step and
/// errno text). Never escapes put_result — it is what the
/// degradation path catches. Distinct from InjectedCrash, which simulates
/// process death and must propagate.
class StoreIoError : public std::runtime_error {
 public:
  explicit StoreIoError(const std::string& what) : std::runtime_error(what) {}
};

struct StoreOptions {
  /// Cap on the total result-payload bytes resident on disk; 0 = no cap.
  std::uint64_t max_bytes = 0;
  /// Consecutive publication failures before the store flips read-only
  /// (0 = never degrade, keep attempting every put).
  int read_only_after = 3;
  /// File-I/O seam; nullptr = real file I/O (IoHooks::real()).
  std::shared_ptr<IoHooks> hooks;
  /// Registry the store's counters live on (store_hits_total, ...); the
  /// registry must outlive the store. nullptr = the store keeps a private
  /// registry, and stats() works the same either way.
  obs::Registry* metrics = nullptr;
};

/// Counter snapshot (process-lifetime for this instance, plus the
/// resident index sizes). A view assembled from the store's registry
/// instruments, so a "stats" response and a "metrics" response can never
/// disagree.
struct StoreStats {
  std::size_t hits = 0;          ///< get_result found a record
  std::size_t misses = 0;        ///< get_result found nothing
  std::size_t puts = 0;          ///< result records published
  std::size_t evictions = 0;     ///< result records evicted by the cap
  std::size_t torn_skipped = 0;  ///< corrupt records skipped at open()
  std::size_t tmp_cleaned = 0;   ///< stale tmp files removed at open()
  std::size_t publish_failures = 0;   ///< failed publication attempts
  std::size_t dropped_publishes = 0;  ///< puts dropped while read-only
  bool read_only = false;        ///< store degraded: serving gets only
  std::size_t entries = 0;       ///< result records in the index
  std::uint64_t bytes = 0;       ///< resident result payload bytes

  std::size_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }
};

class ResultStore {
 public:
  /// Opens (creating directories as needed), cleans stale tmp files, and
  /// rebuilds the index.
  explicit ResultStore(std::string dir, StoreOptions opts = {});

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& dir() const { return dir_; }

  /// Loads the stored report for `fp` into `out`. Counts a hit or miss;
  /// an unreadable/corrupt record degrades to a miss.
  bool get_result(std::uint64_t fp, sim::SimReport& out);

  /// Publishes `report` under `fp` (checked write + fsync + atomic
  /// rename), then applies the eviction cap. Overwrites any previous
  /// record for `fp`. Returns false — without throwing — when the
  /// publication failed or the store is read-only; the previous record
  /// for `fp`, if any, stays intact and readable.
  bool put_result(std::uint64_t fp, const sim::SimReport& report);

  /// True when a result record for `fp` is resident (no stat counted).
  bool contains_result(std::uint64_t fp) const;

  /// True once the store has degraded to read-only (see StoreOptions::
  /// read_only_after). Reads keep working; puts are dropped.
  bool read_only() const;

  /// Cause of the most recent publication failure ("" when none).
  std::string last_publish_error() const;

  StoreStats stats() const;

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;  ///< LRU recency (higher = more recent)
  };

  std::string result_path(std::uint64_t fp) const;
  /// Header + tmp-write + fsync + rename to result_path(fp). Throws
  /// StoreIoError (with the tmp file removed) on any failed step.
  void publish(std::uint64_t fp, const std::string& payload);
  /// Records one publication failure; flips read-only after
  /// `read_only_after` consecutive ones.
  void note_publish_failure(const std::string& cause);
  /// Validates the record file for `fp` and returns its payload; false
  /// when the record is torn/corrupt/missing.
  bool read_record(std::uint64_t fp, std::string& payload_out) const;
  void scan_results();
  void clean_tmp();
  void evict_over_cap(std::uint64_t keep_fp);

  std::string dir_;
  StoreOptions opts_;
  std::shared_ptr<IoHooks> io_;  ///< never null after construction
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> results_;
  /// Counter handles, resolved in the constructor (before the recovery
  /// scan, which already counts) from StoreOptions::metrics or the
  /// private fallback registry.
  struct Counters {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* puts = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* torn_skipped = nullptr;
    obs::Counter* tmp_cleaned = nullptr;
    obs::Counter* publish_failures = nullptr;
    obs::Counter* dropped_publishes = nullptr;
  };
  std::unique_ptr<obs::Registry> own_metrics_;
  Counters c_;
  int consecutive_publish_failures_ = 0;
  bool read_only_ = false;
  std::string last_publish_error_;
  std::uint64_t bytes_ = 0;     ///< resident result payload bytes
  std::uint64_t next_seq_ = 1;  ///< LRU clock
};

}  // namespace sparsetrain::serve
