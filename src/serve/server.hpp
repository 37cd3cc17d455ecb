// The evaluation daemon.
//
// serve::Server wraps a core::Session (with an optional persistent
// ResultStore attached) behind the NDJSON protocol of serve/protocol.hpp.
// Three properties the loop guarantees:
//
//  * Single-flight coalescing — concurrent requests whose store
//    fingerprints (Session::run_fingerprint) are identical share one
//    evaluation: the first becomes the owner, later arrivals attach to
//    its future and answer with source "coalesced".
//  * Bounded admission — at most `max_queue` evaluations may be pending
//    at once; excess requests get an immediate "rejected" response
//    instead of growing an unbounded queue.
//  * Graceful drain — EOF or a shutdown request stops intake, waits for
//    every in-flight evaluation, then answers with a final "bye" line.
//
// A per-request timeout (request field or server default) bounds how
// long the *requester* waits; a timed-out evaluation keeps running in
// the background and still publishes its report to the store, so the
// retry is a store hit.
//
// The control plane — parse errors, status provenance, metrics,
// shutdown, tracing, and socket serving through serve_listener — is the
// shared serve::Daemon skeleton (serve/daemon.hpp). The server adds
// eval and put handling, its payloads, and serve(in, out), the NDJSON
// loop over a stream pair (the CLI uses stdin/stdout); handle(line)
// answers one request synchronously for in-process use and tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/session.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace sparsetrain::serve {

/// Shared request → session translation, used by Server and Router so
/// both resolve an eval request to exactly the same network / profile /
/// job options (and therefore the same store fingerprint).
workload::NetworkConfig request_network(const Request& r);
workload::SparsityProfile request_profile(const workload::NetworkConfig& net,
                                          const Request& r);
core::Session::JobOptions request_job_options(const Request& r);

struct ServerOptions : DaemonOptions {
  /// Session configuration (arches, batch, sim workers, seed). The
  /// `store` field is overridden when `store_dir` is set.
  core::SessionConfig session;
  /// Persistent store directory; empty = serve without a store (every
  /// eval simulates, coalescing still applies).
  std::string store_dir;
  std::uint64_t store_max_bytes = 0;  ///< 0 = unbounded
  /// Threads answering requests (waiters/responders). Evaluations run on
  /// a separate internal pool of the same size, so a thread waiting on a
  /// coalesced future never starves the evaluation it waits for.
  std::size_t request_workers = 2;
  /// Max evaluations admitted at once; further evals are rejected.
  std::size_t max_queue = 64;
  long default_timeout_ms = 0;  ///< 0 = wait forever
  /// Record per-stage exact-engine profiles into the metrics registry.
  bool profile_engine = false;
  /// Test seam: runs in the evaluator thread right before the session
  /// submit (e.g. to hold an evaluation open while coalescers arrive).
  std::function<void()> before_eval;
};

class Server : public Daemon {
 public:
  explicit Server(ServerOptions opts = {});

  core::Session& session() { return session_; }
  const core::Session& session() const { return session_; }

  /// Evaluations currently admitted (owners + waiters).
  std::size_t inflight() const { return pending_.load(); }

  /// NDJSON loop: one request per input line, one response line each
  /// (responses complete in evaluation order, not input order). Returns
  /// after EOF or a "shutdown" request, once every in-flight evaluation
  /// drained and the final "bye" line was written.
  void serve(std::istream& in, std::ostream& out);

 private:
  struct EvalOutcome {
    std::string error;  ///< nonempty = evaluation failed
    bool from_store = false;
    std::uint64_t fingerprint = 0;
    std::string workload;
    std::string engine;
    std::uint64_t cycles = 0;
    double latency_ms = 0.0;
    double utilization = 0.0;
    double on_chip_uj = 0.0;
    double dram_uj = 0.0;
    std::string report_payload;  ///< serialized report (report_io v1)
  };
  using OutcomeFuture = std::shared_future<std::shared_ptr<const EvalOutcome>>;

  Response answer(const Request& req, Clock::time_point admitted) override;
  void status_fields(std::ostream& os) override;
  std::string stats_payload() override;
  std::string bye_payload() override;
  void sample_gauges() override;
  void drain() override;

  /// Admission control: claims a pending slot, or fills `rejected` when
  /// `max_queue` evaluations are already in flight.
  bool admit(const Request& req, Response& rejected);
  /// Evaluates an admitted request (the caller releases its slot).
  Response process_eval(const Request& req, Clock::time_point admitted);
  Response put_response(const Request& req);

  ServerOptions opts_;
  core::Session session_;
  std::atomic<std::size_t> pending_{0};

  /// Counter handles into metrics(), resolved once in the constructor;
  /// the "status" and "bye" payloads read them directly.
  struct CounterSet {
    obs::Counter* completed = nullptr;   ///< ok eval responses
    obs::Counter* computed = nullptr;    ///< ok evals that simulated
    obs::Counter* store_hits = nullptr;  ///< ok evals served from the store
    obs::Counter* coalesced = nullptr;   ///< ok evals joined to a twin
    obs::Counter* rejected = nullptr;    ///< admission-control rejections
    obs::Counter* timeouts = nullptr;    ///< requester gave up waiting
    obs::Counter* puts = nullptr;        ///< replicated reports accepted
  };
  CounterSet c_;
  obs::Histogram* queue_hist_ = nullptr;  ///< server_queue_seconds

  std::mutex inflight_mu_;
  std::unordered_map<std::uint64_t, OutcomeFuture> inflight_;

  /// Declared last: members destroy in reverse order, so the pool joins
  /// its evaluator threads while session_ (which they use) is still
  /// alive.
  util::ThreadPool eval_pool_;
};

}  // namespace sparsetrain::serve
