// Client side of the evaluation daemon.
//
// One Client = one connection to a daemon endpoint — a unix-socket path
// or "host:port" for TCP (see serve::parse_endpoint); request() sends one
// NDJSON line and blocks for the matching response line (the daemon
// answers each connection's requests in order). Open several clients for
// concurrent submissions — identical in-flight jobs coalesce server-side.
//
// Resilience: with `retries > 0` the client survives a daemon restart.
// A failed connect, a dropped connection mid-exchange, or an admission
// rejection ("rejected" status) is retried after an exponential backoff
// with decorrelated jitter — each retry reconnects from scratch. This is
// safe for eval requests because evaluations are idempotent: the daemon
// keys work by the store fingerprint, so a retried request coalesces with
// a surviving twin or is served from the store rather than recomputed.
// `deadline_ms` bounds the whole exchange (connect + retries + response
// wait); past it the client throws instead of retrying further. The
// final attempt's "rejected" response, if any, is returned as-is so the
// caller sees why.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "util/rng.hpp"

namespace sparsetrain::serve {

struct ClientOptions {
  /// Extra attempts after the first (0 = fail fast, the default).
  int retries = 0;
  /// Overall budget in ms for one request() call, covering connects,
  /// backoff sleeps, and the response wait; 0 = no deadline.
  long deadline_ms = 0;
  /// Per-attempt connect budget (non-blocking connect + poll). Without
  /// it a TCP connect to a blackholed host blocks for the kernel's SYN
  /// retry default (~2 minutes), defeating deadline_ms; with it the
  /// attempt fails after this long and the retry/deadline machinery
  /// stays in charge. When deadline_ms is also set, each connect is
  /// additionally capped by the time remaining. 0 = blocking connect.
  long connect_timeout_ms = 0;
  /// Backoff: sleep_n = min(cap, uniform(base, 3 * sleep_{n-1})) —
  /// exponential growth with decorrelated jitter, so a burst of clients
  /// retrying against a restarting daemon spreads out instead of
  /// stampeding in lockstep.
  long backoff_base_ms = 25;
  long backoff_cap_ms = 1000;
  std::uint64_t backoff_seed = 0x5eed;
  /// Test seam: called with each backoff duration instead of sleeping.
  std::function<void(long)> sleeper;
  /// Registry the client's counters live on, labeled {endpoint=<the
  /// endpoint spec>}: client_attempts_total (request transmissions
  /// tried), client_connects_total (successful connects),
  /// client_reconnects_total (connects after the first),
  /// client_retries_total (backoff sleeps taken) and
  /// client_rejected_retries_total (retries caused by "rejected"). Must
  /// outlive the client. A process holding many clients shares one (the
  /// router labels one counter family per shard; counts survive client
  /// recreation because the registry deduplicates instruments). nullptr
  /// = a private registry nobody else reads.
  obs::Registry* metrics = nullptr;
};

class Client {
 public:
  /// Parses `endpoint_spec` and connects. With `retries == 0` an
  /// unreachable daemon throws ContractError immediately (fail fast);
  /// with retries the first request() keeps trying instead.
  explicit Client(const std::string& endpoint_spec, ClientOptions opts = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return conn_.valid(); }

  /// Sends one request line, returns the raw response line (no newline).
  /// Retries per ClientOptions; throws ContractError once retries and/or
  /// the deadline are exhausted.
  std::string request_raw(const std::string& json_line);

  /// request_raw + parse_response.
  Response request(const std::string& json_line);

  /// Convenience wrappers over request().
  Response submit(const Request& eval_request);
  Response stats();
  Response status();
  Response shutdown();

 private:
  /// `budget_ms` caps the connect attempt (<= 0 = opts_ default only).
  bool ensure_connected(std::string& error, long budget_ms = 0);
  long remaining_ms(long elapsed_ms) const;
  long connect_budget_ms(long elapsed_ms) const;

  Endpoint ep_;
  ClientOptions opts_;
  Conn conn_;
  /// Counter handles, resolved in the constructor from
  /// ClientOptions::metrics or the private fallback registry.
  struct Counters {
    obs::Counter* attempts = nullptr;
    obs::Counter* connects = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* rejected_retries = nullptr;
  };
  std::unique_ptr<obs::Registry> own_metrics_;
  Counters c_;
  Rng rng_;
};

/// Formats `r` as one request line (inverse of parse_request for the
/// fields the protocol defines).
std::string format_request(const Request& r);

}  // namespace sparsetrain::serve
