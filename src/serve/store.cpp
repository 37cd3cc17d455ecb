#include "serve/store.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "serve/report_io.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"
#include "util/syscall.hpp"

namespace sparsetrain::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "sparsetrain.store/v1";
/// Record kind in the header. Result records are the only kind; the word
/// stays so directories written by older versions keep opening.
constexpr const char* kKind = "result";

/// Tmp-file sequence shared by every store instance in the process: with
/// the pid it makes each publication's tmp name unique on a shared
/// directory.
std::atomic<std::uint64_t> g_tmp_seq{0};

/// Sequence numbers of this process's publications in flight, across
/// every store instance: clean_tmp() leaves their tmp files in place.
std::mutex g_in_flight_mu;
std::unordered_set<std::uint64_t> g_in_flight;  ///< under g_in_flight_mu

/// Keeps one publication's sequence number in g_in_flight for its
/// lifetime, so it leaves on every exit path, an InjectedCrash unwinding
/// included.
class InFlight {
 public:
  explicit InFlight(std::uint64_t seq) : seq_(seq) {
    std::lock_guard lock(g_in_flight_mu);
    g_in_flight.insert(seq_);
  }
  ~InFlight() {
    std::lock_guard lock(g_in_flight_mu);
    g_in_flight.erase(seq_);
  }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

 private:
  const std::uint64_t seq_;
};

template <typename T>
bool parse_decimal(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return !s.empty() && ec == std::errc{} && end == s.data() + s.size();
}

/// True when a tmp/ entry named `name` must stay: a publication in flight
/// in this process or in another live one. Names that are not
/// "<fp hex>.<pid>.<n>.tmp" are debris.
bool tmp_file_in_flight(std::string_view name) {
  if (!name.ends_with(".tmp")) return false;
  name.remove_suffix(4);
  const std::size_t dot1 = name.find('.');
  const std::size_t dot2 = name.find('.', dot1 + 1);
  std::uint64_t fp = 0;
  int pid = 0;
  std::uint64_t seq = 0;
  if (dot1 == std::string_view::npos || dot2 == std::string_view::npos ||
      !parse_hex16(name.substr(0, dot1), fp) ||
      !parse_decimal(name.substr(dot1 + 1, dot2 - dot1 - 1), pid) ||
      !parse_decimal(name.substr(dot2 + 1), seq)) {
    return false;
  }
  if (pid != util::process_id()) return util::process_alive(pid);
  std::lock_guard lock(g_in_flight_mu);
  return g_in_flight.count(seq) != 0;
}

/// Releases the FILE* on every exit path — including an InjectedCrash
/// unwinding out of a hooked write — so a publication that "dies"
/// mid-step never leaks the stream. The unwind path closes with plain
/// fclose (not the hooks) so cleanup cannot itself fault or shift the
/// injected op sequence.
class FileGuard {
 public:
  explicit FileGuard(std::FILE* f) : f_(f) {}
  ~FileGuard() {
    if (f_ != nullptr) std::fclose(f_);
  }
  FileGuard(const FileGuard&) = delete;
  FileGuard& operator=(const FileGuard&) = delete;
  std::FILE* release() {
    std::FILE* f = f_;
    f_ = nullptr;
    return f;
  }

 private:
  std::FILE* f_;
};

}  // namespace

ResultStore::ResultStore(std::string dir, StoreOptions opts)
    : dir_(std::move(dir)), opts_(opts),
      io_(opts.hooks ? opts.hooks : IoHooks::real()) {
  ST_REQUIRE(!dir_.empty(), "result store needs a directory");
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "results", ec);
  ST_REQUIRE(!ec, "cannot create store directory '" + dir_ + "': " +
                      ec.message());
  fs::create_directories(fs::path(dir_) / "tmp", ec);
  ST_REQUIRE(!ec, "cannot create store directory '" + dir_ + "': " +
                      ec.message());
  obs::Registry* reg = opts_.metrics;
  if (reg == nullptr) {
    own_metrics_ = std::make_unique<obs::Registry>();
    reg = own_metrics_.get();
  }
  c_.hits = &reg->counter("store_hits_total");
  c_.misses = &reg->counter("store_misses_total");
  c_.puts = &reg->counter("store_puts_total");
  c_.evictions = &reg->counter("store_evictions_total");
  c_.torn_skipped = &reg->counter("store_torn_skipped_total");
  c_.tmp_cleaned = &reg->counter("store_tmp_cleaned_total");
  c_.publish_failures = &reg->counter("store_publish_failures_total");
  c_.dropped_publishes = &reg->counter("store_dropped_publishes_total");
  clean_tmp();
  scan_results();
}

std::string ResultStore::result_path(std::uint64_t fp) const {
  return (fs::path(dir_) / "results" / (hex16(fp) + ".rec")).string();
}

void ResultStore::clean_tmp() {
  // A tmp file whose publication is no longer in flight never reached
  // its rename: a crash mid-write. The record it was replacing (if any)
  // is still intact under results/, so it is pure garbage. One still in
  // flight, in this process or another live one, is left to its writer.
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(fs::path(dir_) / "tmp", ec)) {
    if (tmp_file_in_flight(de.path().filename().string())) continue;
    std::error_code rm;
    fs::remove(de.path(), rm);
    if (!rm) c_.tmp_cleaned->inc();
  }
}

void ResultStore::scan_results() {
  // Recovery: every record must parse and checksum; anything torn (e.g. a
  // record truncated by a crash or a copy of a live directory) is skipped
  // and removed. Recency is seeded from modification times so eviction
  // order survives a reopen; ties (same mtime granularity) break by
  // filename for determinism.
  struct Found {
    std::uint64_t fp;
    std::uint64_t bytes;
    fs::file_time_type mtime;
    std::string name;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (const auto& de :
       fs::directory_iterator(fs::path(dir_) / "results", ec)) {
    const std::string name = de.path().filename().string();
    std::uint64_t fp = 0;
    const bool named_ok = name.size() == 20 &&
                          name.compare(16, 4, ".rec") == 0 &&
                          parse_hex16(name.substr(0, 16), fp);
    std::string payload;
    if (!named_ok || !read_record(fp, payload)) {
      c_.torn_skipped->inc();
      std::error_code rm;
      fs::remove(de.path(), rm);
      continue;
    }
    found.push_back({fp, payload.size(),
                     fs::last_write_time(de.path(), ec), name});
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.name < b.name;
  });
  for (const Found& f : found) {
    results_[f.fp] = Entry{f.bytes, next_seq_++};
    bytes_ += f.bytes;
  }
}

void ResultStore::publish(std::uint64_t fp, const std::string& payload) {
  // Header + payload to a unique tmp file — every step checked, fsync
  // before the rename — then atomic rename: a reader either sees the
  // whole durable record or no record, and a torn tmp file is never
  // renamed into place. Any failed step throws StoreIoError with the tmp
  // removed; an InjectedCrash propagates with the tmp left behind for
  // clean_tmp() at the next open, exactly like a real process death.
  std::ostringstream header;
  header << kMagic << ' ' << kKind << ' ' << hex16(fp) << ' '
         << payload.size() << ' ' << hex16(fnv1a(payload)) << '\n';
  const std::string h = header.str();
  const std::uint64_t seq = ++g_tmp_seq;
  const std::string tmp =
      (fs::path(dir_) / "tmp" /
       (hex16(fp) + "." + std::to_string(util::process_id()) + "." +
        std::to_string(seq) + ".tmp"))
          .string();
  const InFlight in_flight(seq);  // joined before open, left on any exit
  auto fail = [&](const std::string& step) -> StoreIoError {
    const std::string cause = util::errno_text(errno);
    std::remove(tmp.c_str());  // best effort; clean_tmp() catches leftovers
    return StoreIoError(step + " '" + tmp + "': " + cause);
  };
  std::FILE* raw = io_->open(tmp, "wb");
  if (raw == nullptr) throw fail("cannot open");
  {
    FileGuard guard(raw);
    if (io_->write(raw, h.data(), h.size()) != h.size()) {
      throw fail("short write to");
    }
    if (!payload.empty() &&
        io_->write(raw, payload.data(), payload.size()) != payload.size()) {
      throw fail("short write to");
    }
    if (io_->flush(raw) != 0) throw fail("cannot flush");
    if (io_->sync(raw) != 0) throw fail("cannot fsync");
    if (io_->close(guard.release()) != 0) throw fail("cannot close");
  }
  if (io_->rename(tmp, result_path(fp)) != 0) {
    throw fail("cannot publish");
  }
}

void ResultStore::note_publish_failure(const std::string& cause) {
  c_.publish_failures->inc();
  last_publish_error_ = cause;
  ++consecutive_publish_failures_;
  if (opts_.read_only_after > 0 &&
      consecutive_publish_failures_ >= opts_.read_only_after) {
    read_only_ = true;
  }
}

bool ResultStore::read_record(std::uint64_t fp,
                              std::string& payload_out) const {
  std::string content;
  if (!io_->read_file(result_path(fp), content)) return false;
  const std::size_t eol = content.find('\n');
  if (eol == std::string::npos) return false;
  std::istringstream hdr(content.substr(0, eol));
  std::string magic, got_kind, fp_hex, sum_hex;
  std::uint64_t size = 0;
  if (!(hdr >> magic >> got_kind >> fp_hex >> size >> sum_hex)) return false;
  std::uint64_t got_fp = 0, sum = 0;
  if (magic != kMagic || got_kind != kKind || !parse_hex16(fp_hex, got_fp) ||
      got_fp != fp || !parse_hex16(sum_hex, sum)) {
    return false;
  }
  // Torn detection: the payload must be exactly the advertised length and
  // hash to the advertised checksum.
  if (content.size() - (eol + 1) != size) return false;
  std::string payload = content.substr(eol + 1);
  if (fnv1a(payload) != sum) return false;
  payload_out = std::move(payload);
  return true;
}

bool ResultStore::get_result(std::uint64_t fp, sim::SimReport& out) {
  std::lock_guard lock(mu_);
  const auto it = results_.find(fp);
  if (it == results_.end()) {
    c_.misses->inc();
    return false;
  }
  std::string payload;
  if (!read_record(fp, payload)) {
    // Evicted/garbled behind our back (another process): drop and miss.
    bytes_ -= it->second.bytes;
    results_.erase(it);
    c_.misses->inc();
    return false;
  }
  try {
    out = parse_report(payload);
  } catch (const ContractError&) {
    bytes_ -= it->second.bytes;
    results_.erase(it);
    c_.misses->inc();
    return false;
  }
  it->second.seq = next_seq_++;
  c_.hits->inc();
  return true;
}

bool ResultStore::put_result(std::uint64_t fp, const sim::SimReport& report) {
  const std::string payload = serialize_report(report);
  std::lock_guard lock(mu_);
  if (read_only_) {
    c_.dropped_publishes->inc();
    return false;
  }
  try {
    publish(fp, payload);
  } catch (const StoreIoError& e) {
    note_publish_failure(e.what());
    return false;
  }
  consecutive_publish_failures_ = 0;
  const std::uint64_t bytes = payload.size();
  auto& entry = results_[fp];
  bytes_ += bytes - entry.bytes;  // overwrite replaces the old payload
  entry.bytes = bytes;
  entry.seq = next_seq_++;
  c_.puts->inc();
  if (opts_.max_bytes > 0) evict_over_cap(fp);
  return true;
}

void ResultStore::evict_over_cap(std::uint64_t keep_fp) {
  while (bytes_ > opts_.max_bytes && results_.size() > 1) {
    auto victim = results_.end();
    for (auto it = results_.begin(); it != results_.end(); ++it) {
      if (it->first == keep_fp) continue;
      if (victim == results_.end() || it->second.seq < victim->second.seq) {
        victim = it;
      }
    }
    if (victim == results_.end()) break;
    io_->remove(result_path(victim->first));  // failure: reopen reindexes it
    bytes_ -= victim->second.bytes;
    results_.erase(victim);
    c_.evictions->inc();
  }
}

bool ResultStore::contains_result(std::uint64_t fp) const {
  std::lock_guard lock(mu_);
  return results_.count(fp) != 0;
}

bool ResultStore::read_only() const {
  std::lock_guard lock(mu_);
  return read_only_;
}

std::string ResultStore::last_publish_error() const {
  std::lock_guard lock(mu_);
  return last_publish_error_;
}

StoreStats ResultStore::stats() const {
  std::lock_guard lock(mu_);
  StoreStats s;
  s.hits = c_.hits->value();
  s.misses = c_.misses->value();
  s.puts = c_.puts->value();
  s.evictions = c_.evictions->value();
  s.torn_skipped = c_.torn_skipped->value();
  s.tmp_cleaned = c_.tmp_cleaned->value();
  s.publish_failures = c_.publish_failures->value();
  s.dropped_publishes = c_.dropped_publishes->value();
  s.read_only = read_only_;
  s.entries = results_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace sparsetrain::serve
