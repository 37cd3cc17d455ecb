// Replicated shard router — the serving tier that survives node loss.
//
// serve::Router fronts a pool of evaluation daemons (serve::Server
// behind serve::Listener endpoints). Each eval request is placed on a
// consistent-hash ring (serve/ring.hpp) by its *store fingerprint* —
// computed with the same Session::run_fingerprint the daemons key their
// stores and single-flight coalescing on — so identical requests always
// land on the same shard and its warm store, no matter which client or
// router instance sent them.
//
// Fault tolerance, in routing order:
//
//  * Per-shard circuit breaker — `breaker_threshold` consecutive
//    transport failures open the breaker: the shard is Down and skipped
//    instantly (no connect timeout paid per request). After
//    `breaker_cooldown_ms` the breaker half-opens and admits one probe
//    request; success closes it, failure re-opens it.
//  * Failover — a request whose preferred shard is down (or fails) walks
//    the ring's successor list, so it lands exactly where replicas were
//    sent. Losing k of N shards loses no requests, only warm-store
//    locality for the keys the dead shards owned.
//  * Replication — an "ok" evaluation is re-submitted (best effort, as a
//    "put" carrying the serialized report) to the next `replicas`
//    distinct shards after the one that served it, so a later failover
//    for the same key finds a store hit instead of recomputing. A down
//    replica is skipped and counted, never waited on.
//  * Health probing — with `probe_interval_ms > 0` a background thread
//    pings non-Up shards with "status" requests; a recovered daemon
//    rejoins the pool without a router restart.
//
// Degraded behavior is explicit: when every shard is down the router
// answers a "rejected" response naming the condition ("all shards
// down") within the per-forward deadline, never a hang.
//
// Requests the router answers itself: "stats" returns the
// router_stats/v1 payload (per-shard health + forward/failover/
// replication counters); "status" a liveness summary; "metrics" its
// registry; "shutdown" stops the serving loop with a "bye". Everything
// else — eval errors, store semantics — is the backend shard's answer,
// annotated with "shard": the endpoint that served it. The control
// plane behind those answers, tracing, and socket serving through
// serve_listener are the shared serve::Daemon skeleton
// (serve/daemon.hpp).
//
// In-process callers hand Router::handle a request line
// (format_request(req)); tools/sparsetrain_route serves the same NDJSON
// protocol over a listener, so existing serve::Client code talks to the
// pool unchanged.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/ring.hpp"

namespace sparsetrain::serve {

struct RouterOptions : DaemonOptions {
  /// Backend daemon endpoints (unix paths or host:port specs). Must be
  /// non-empty and distinct.
  std::vector<std::string> endpoints;
  /// Successor shards each ok evaluation is replicated to (capped at
  /// pool size - 1). 0 = no replication.
  std::size_t replicas = 1;
  /// Consecutive transport failures that open a shard's breaker.
  int breaker_threshold = 3;
  /// How long an open breaker rejects before half-opening one probe.
  long breaker_cooldown_ms = 1000;
  /// Per-forward client config. retries stays 0 here by default — the
  /// router's failover IS the retry policy; deadline_ms and
  /// connect_timeout_ms bound how long one shard may be tried.
  ClientOptions client = client_defaults();
  /// Background health-probe period (0 = no prober). Probes target
  /// non-Up shards only, with `probe_deadline_ms` per ping.
  long probe_interval_ms = 0;
  long probe_deadline_ms = 250;

  static ClientOptions client_defaults() {
    ClientOptions c;
    c.retries = 0;
    c.deadline_ms = 5000;
    c.connect_timeout_ms = 500;
    return c;
  }
};

/// The router is the usual trace edge: it mints trace ids for eval and
/// put requests arriving without one and propagates them to the shards
/// as "trace"/"span" wire fields. Its registry holds the router
/// counters, per-shard counters and forward-latency histograms, and the
/// per-endpoint client counters.
class Router : public Daemon {
 public:
  explicit Router(RouterOptions opts);
  ~Router() override;

  const Ring& ring() const { return ring_; }

  /// The ring placement key for an eval request: the store fingerprint
  /// the daemons themselves key on; for requests the fingerprint cannot
  /// be computed for (unknown workload/backend — the shard will answer
  /// the error), a deterministic hash of the request's identity fields.
  std::uint64_t placement_key(const Request& req) const;

 private:
  /// Breaker state of one shard, as exported in router_stats/v1.
  enum class Health { Up, Open, HalfOpen };

  struct Shard {
    std::string endpoint;
    mutable std::mutex mu;  ///< guards everything below + the client
    std::unique_ptr<Client> client;
    Health health = Health::Up;
    int consecutive_failures = 0;
    Clock::time_point open_until{};
    /// Handles into the router registry, labeled {shard=endpoint};
    /// resolved once in the constructor. Counter increments are atomic,
    /// so they need no mu (the payload writers' reads neither).
    struct Handles {
      obs::Counter* forwards = nullptr;  ///< requests sent (probes not)
      obs::Counter* served = nullptr;    ///< responses returned to callers
      obs::Counter* failures = nullptr;  ///< transport failures observed
      obs::Counter* skipped = nullptr;   ///< times bypassed while down
      obs::Counter* replications = nullptr;  ///< puts accepted
      obs::Counter* replication_failures = nullptr;  ///< puts failed
      obs::Counter* replication_skipped = nullptr;   ///< puts not tried
      obs::Counter* probes = nullptr;      ///< health pings sent
      obs::Counter* recoveries = nullptr;  ///< Down -> Up transitions
      obs::Histogram* forward_seconds = nullptr;
    };
    Handles c;

    Health current_health() const {
      std::lock_guard<std::mutex> lock(mu);
      return health;
    }
  };

  /// One forward to one shard (takes the shard's mu, so per-shard
  /// traffic — requests, replication puts, probes — fully serializes).
  enum class ForwardResult {
    Skipped,   ///< breaker open: not sent
    Answered,  ///< shard responded (any status) — resp filled
    Failed,    ///< transport failure — counted against the breaker
  };
  ForwardResult forward(std::size_t shard, const std::string& line,
                        Response* resp);

  /// Breaker admission for shard `s` (mu held by caller): true = send.
  bool admit_locked(Shard& s, Clock::time_point now);
  void on_success_locked(Shard& s);
  void on_failure_locked(Shard& s, Clock::time_point now);

  Response route_eval(const Request& req, const obs::SpanContext& trace);
  Response route_put(const Request& req, const obs::SpanContext& trace);
  /// `fwd` is re-formatted per attempt so each hop carries its own span
  /// id ("router.forward" for the preferred shard, "router.failover"
  /// past it).
  Response route(const Request& req, std::uint64_t key, const Request& fwd,
                 const obs::SpanContext& trace, bool replicate_ok);
  void replicate(std::uint64_t key, std::size_t served_by,
                 const Response& ok_resp, const obs::SpanContext& trace);
  Response all_down_response(const Request& req);

  Response answer(const Request& req, Clock::time_point admitted) override;
  void status_fields(std::ostream& os) override;
  std::string stats_payload() override;
  std::string bye_payload() override;
  void sample_gauges() override;
  static const char* health_name(Health h);

  void prober_loop();
  void probe(std::size_t shard);

  RouterOptions opts_;
  Ring ring_;
  /// Placement-only session: fingerprints requests exactly as the shards
  /// do; never simulates (workers = 1, no store).
  core::Session session_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Router-level counter handles, resolved once in the constructor.
  struct CounterSet {
    obs::Counter* routed = nullptr;     ///< evals/puts answered by a shard
    obs::Counter* failovers = nullptr;  ///< answers past the preferred shard
    obs::Counter* rejected = nullptr;   ///< all shards down or rejecting
  };
  CounterSet c_;

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
  std::thread prober_;  ///< declared last: joined before members die
};

/// Splits "a:1234,b:1235,unix:/tmp/s.sock" into endpoint specs
/// (whitespace around entries trimmed; empty entries rejected).
std::vector<std::string> split_endpoints(const std::string& spec);

}  // namespace sparsetrain::serve
