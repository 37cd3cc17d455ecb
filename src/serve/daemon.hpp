// The control plane both serving daemons share.
//
// serve::Daemon is the skeleton of serve::Server (the evaluation daemon,
// server.hpp) and serve::Router (the shard router, router.hpp). It owns
// each control-plane idea once:
//
//  * Metrics state — the registry, the tracer, the start time, and the
//    instruments every daemon exports under its role prefix ("server" or
//    "router"): <role>_requests_received_total, <role>_errors_total,
//    <role>_connections_overloaded_total,
//    <role>_connections_idle_closed_total and the latency histogram
//    <role>_request_seconds{type,status}.
//  * Request handling — a malformed line answers an "error" response;
//    every response is stamped with elapsed_ms (intake to assembly — the
//    router's figure therefore includes the network to its shards) and
//    recorded in the latency histogram; "status" ends with provenance
//    (pid, uptime_s, tracing state, schema versions); "metrics" answers
//    the registry snapshot as sparsetrain.metrics/v1 JSON or wrapped
//    Prometheus text; "shutdown" drains, then answers "bye".
//  * Lifecycle — serve_listener runs the NDJSON accept loop: one handler
//    thread per connection, a connection cap answered with an explicit
//    rejection line (never a silent hang), a per-connection idle timeout
//    (a told close, and counted), and a clean stop when a "bye" is
//    answered; serve_stream answers a stream pair (stdin/stdout) in
//    order, like one connection; request_shutdown is the
//    async-signal-safe drain trigger; ShutdownSignals routes
//    SIGTERM/SIGINT to it; run_daemon is the tools' bind-announce-serve
//    entry point.
//
// A subclass answers eval and put requests and supplies its own
// payloads: the leading "status" fields, "stats", "bye", the gauges
// sampled before a metrics snapshot, and what a drain waits for.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "util/args.hpp"

namespace sparsetrain::serve {

struct DaemonOptions {
  /// Socket serving only: connections above this count are answered with
  /// one "rejected" line and closed (0 = unlimited).
  std::size_t max_connections = 64;
  /// Socket serving only: a connection that sends no complete request
  /// line for this long is told "idle timeout" and closed (0 = never).
  long idle_timeout_ms = 0;
  /// JSONL trace log path; empty = tracing disabled (requests carrying a
  /// trace id are still parsed, just not recorded).
  std::string trace_path;
  /// Fraction of edge-started traces sampled (requests arriving WITH a
  /// trace id are always recorded — the upstream edge already decided).
  double trace_sample_rate = 0.0;
};

/// Appends the DaemonOptions command-line flags (--max-connections,
/// --idle-timeout-ms, --trace, --trace-sample-rate) to a tool's own flag
/// list.
std::vector<Args::Flag> with_daemon_flags(std::vector<Args::Flag> flags);

/// Reads the with_daemon_flags() flags into `opts`. On the command line
/// a given --trace samples every edge trace unless --trace-sample-rate
/// says otherwise.
void read_daemon_flags(const Args& args, DaemonOptions& opts);

class Daemon {
 public:
  virtual ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The daemon's metrics registry: everything a "metrics" request
  /// snapshots.
  obs::Registry& metrics() { return metrics_; }

  /// Parses and answers one request line synchronously. Never throws:
  /// malformed input becomes a status "error" response. A "shutdown"
  /// request drains and answers "bye" (the next handle() still works —
  /// lifecycle belongs to the serving loop).
  Response handle(const std::string& line);

  /// Accepts connections from `listener`, one NDJSON loop per connection
  /// (each in its own thread). Returns 0 after a clean shutdown-drain: a
  /// "shutdown" request answers "bye", stops the listener, and kicks the
  /// remaining connections. A drain started by request_shutdown() writes
  /// its "bye" to stderr instead, since no connection asked for it.
  int serve_listener(Listener& listener);

  /// NDJSON over a stream pair (the CLI uses stdin/stdout), answered in
  /// input order like one socket connection: each line is handled and
  /// its response written before the next line is read. Returns after a
  /// "shutdown" request's "bye"; at end of input, or once
  /// request_shutdown() was called (a signal also interrupts a blocked
  /// read), it drains and writes a "bye" of its own. Blank lines are
  /// skipped, not answered.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Async-signal-safe shutdown trigger: an atomic store plus a
  /// shutdown(2) kick of the active listener. serve_listener then drains
  /// as if a "shutdown" request had arrived. A trigger that lands before
  /// serve_listener published its listener is honoured as soon as it
  /// does, so a signal during startup is never lost.
  void request_shutdown();

 protected:
  using Clock = std::chrono::steady_clock;

  /// `role` prefixes the shared instruments, `trace_process` names this
  /// process in span logs, and `schemas` lists the members the "status"
  /// provenance adds after "metrics" in its "schemas" object.
  Daemon(const std::string& role, const std::string& trace_process,
         std::string schemas, const DaemonOptions& opts);

  /// Answers an eval or put request. The caller stamps and records the
  /// returned response.
  virtual Response answer(const Request& req, Clock::time_point admitted) = 0;
  /// Writes the leading members of the "status" payload (no braces);
  /// the provenance members follow them.
  virtual void status_fields(std::ostream& os) = 0;
  virtual std::string stats_payload() = 0;  ///< the "stats" payload object
  virtual std::string bye_payload() = 0;    ///< the "bye" payload object
  /// Refreshes sampled gauges right before a metrics snapshot.
  virtual void sample_gauges() {}
  /// Waits for in-flight work before a "bye" is answered.
  virtual void drain() {}

  /// Tracing context of an incoming request: joins a propagated trace,
  /// or (for `edge` = true) mints a new one.
  obs::SpanContext trace_context(const Request& req, bool edge);

  static double seconds_since(Clock::time_point start);

  /// Shared counter handles into the registry, resolved once.
  obs::Counter* received_ = nullptr;     ///< lines read / handle() calls
  obs::Counter* errors_ = nullptr;       ///< malformed / failed requests
  obs::Counter* overloaded_ = nullptr;   ///< connections refused at the cap
  obs::Counter* idle_closed_ = nullptr;  ///< connections closed idle

 private:
  /// Stamps `elapsed_ms` and records <role>_request_seconds{type,status}.
  /// Every response that carries a measurement passes through here
  /// exactly once.
  void finish(Response& resp, Clock::time_point admitted,
              const std::string& type_label);
  Response status_response(const Request& req);
  Response metrics_response(const Request& req);
  Response bye_response(const Request& req);
  /// serve_listener's accept loop: runs until the listener stops — by an
  /// answered "bye", an external Listener::shutdown() (request_shutdown)
  /// or an unrecoverable listener error — and joins every connection
  /// thread before returning. Blank input lines are skipped, not
  /// answered.
  void serve_connections(Listener& listener);

  const std::string latency_name_;  ///< <role>_request_seconds
  const std::string schemas_;
  const DaemonOptions daemon_opts_;
  obs::Registry metrics_;
  std::unique_ptr<obs::Tracer> tracer_;  ///< null = tracing disabled
  const Clock::time_point started_ = Clock::now();
  std::atomic<Listener*> active_listener_{nullptr};
  std::atomic<bool> shutdown_requested_{false};
};

/// While alive, SIGTERM and SIGINT call daemon.request_shutdown() — the
/// graceful drain a "shutdown" request takes, so the store is never left
/// mid-publication. The handlers are installed without SA_RESTART, so a
/// blocked read fails with EINTR and a stdio loop drains too. One
/// instance per process.
class ShutdownSignals {
 public:
  explicit ShutdownSignals(Daemon& daemon);
  ~ShutdownSignals();

  ShutdownSignals(const ShutdownSignals&) = delete;
  ShutdownSignals& operator=(const ShutdownSignals&) = delete;
};

/// The daemon tools' entry point: installs ShutdownSignals, binds
/// `listen_spec` (parse_endpoint grammar), prints one
/// "listening on <endpoint>" line to stderr — with the resolved port
/// when the spec asked for port 0 — and serves until shutdown. Returns
/// serve_listener's exit code; a bind failure throws ContractError.
int run_daemon(Daemon& daemon, const std::string& listen_spec);

}  // namespace sparsetrain::serve
