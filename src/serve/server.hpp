// The evaluation daemon.
//
// serve::Server wraps a core::Session (with an optional persistent
// ResultStore attached) behind the NDJSON protocol of serve/protocol.hpp.
// The Session's pool is the daemon's only worker pool: a request's own
// thread (a connection's, or the stdio loop's) starts the evaluation
// there and waits on its future. Three properties it guarantees:
//
//  * Single-flight coalescing — requests whose store fingerprints
//    (Session::run_fingerprint) are identical share one evaluation. One
//    critical section finds a twin's evaluation or starts a new one, so
//    exactly one requester owns it; the others attach to its future and
//    answer with source "coalesced". A finished evaluation is swept at
//    the next lookup; its report is already published (a run publishes
//    before its future resolves), so a later twin is a store hit.
//  * Bounded admission — at most `max_queue` evaluations may be pending
//    at once; excess requests get an immediate "rejected" response
//    instead of growing an unbounded queue.
//  * Graceful drain — EOF or a shutdown request stops intake, waits for
//    every started evaluation (those of timed-out requesters too), then
//    answers with a final "bye" line.
//
// A per-request timeout (request field or server default) bounds how
// long the *requester* waits; a timed-out evaluation keeps running in
// the background and still publishes its report to the store, so the
// retry is a store hit.
//
// The control plane — parse errors, status provenance, metrics,
// shutdown, tracing, and serving a listener or a stream pair — is the
// shared serve::Daemon skeleton (serve/daemon.hpp). The server adds
// eval and put handling and its payloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/session.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace sparsetrain::serve {

/// Shared request → session translation, used by Server and Router so
/// both resolve an eval request to exactly the same network / profile /
/// job options (and therefore the same store fingerprint).
workload::NetworkConfig request_network(const Request& r);
workload::SparsityProfile request_profile(const workload::NetworkConfig& net,
                                          const Request& r);
core::Session::JobOptions request_job_options(const Request& r);

struct ServerOptions : DaemonOptions {
  /// Session configuration (arches, batch, seed, `profile_engine`, and
  /// `workers`: the size of the session's pool, the daemon's only worker
  /// pool). The `store` field is replaced when `store_dir` is set, and
  /// `metrics` always points at the daemon's registry.
  core::SessionConfig session;
  /// Persistent store directory; empty = serve with `session.store` (by
  /// default none: every eval simulates, coalescing still applies).
  std::string store_dir;
  std::uint64_t store_max_bytes = 0;  ///< 0 = unbounded
  /// Max evaluations admitted at once; further evals are rejected.
  std::size_t max_queue = 64;
  long default_timeout_ms = 0;  ///< 0 = wait forever
};

class Server : public Daemon {
 public:
  explicit Server(ServerOptions opts = {});

  core::Session& session() { return session_; }
  const core::Session& session() const { return session_; }

  /// Evaluations currently admitted (owners + waiters).
  std::size_t inflight() const { return pending_.load(); }

 private:
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
  /// Started evaluations by store fingerprint; finished ones are swept
  /// at the next lookup (guarded by inflight_mu_).
  std::unordered_map<std::uint64_t, core::Session::JobHandle> inflight_;
};

}  // namespace sparsetrain::serve
