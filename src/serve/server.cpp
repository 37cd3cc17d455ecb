#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include <memory>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "isa/instruction.hpp"
#include "serve/line_server.hpp"
#include "serve/report_io.hpp"
#include "util/require.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <csignal>
#include <unistd.h>
#endif

namespace sparsetrain::serve {

namespace {

std::shared_ptr<ResultStore> open_store(const ServerOptions& opts,
                                        obs::Registry& metrics) {
  if (opts.store_dir.empty()) return nullptr;
  StoreOptions so;
  so.max_bytes = opts.store_max_bytes;
  so.metrics = &metrics;
  return std::make_shared<ResultStore>(opts.store_dir, so);
}

core::SessionConfig session_config(const ServerOptions& opts,
                                   obs::Registry& metrics) {
  core::SessionConfig cfg = opts.session;
  cfg.store = open_store(opts, metrics);
  cfg.metrics = &metrics;
  cfg.profile_engine = opts.profile_engine;
  return cfg;
}

std::unique_ptr<obs::Tracer> make_tracer(const ServerOptions& opts) {
  if (opts.trace_path.empty()) return nullptr;
  obs::TracerOptions to;
  to.path = opts.trace_path;
  to.sample_rate = opts.trace_sample_rate;
  to.seed = opts.trace_seed;
  to.process = "serve";
  return std::make_unique<obs::Tracer>(std::move(to));
}

int process_id() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(getpid());
#endif
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Collapses a pretty-printed JSON document onto one NDJSON-safe line.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n') c = ' ';
  }
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

}  // namespace

workload::NetworkConfig request_network(const Request& r) {
  return r.workload == "tiny" ? workload::tiny_workload()
                              : workload::find_workload(r.workload).net;
}

workload::SparsityProfile request_profile(const workload::NetworkConfig& net,
                                          const Request& r) {
  if (r.scenario == "dense") return workload::SparsityProfile::dense(net);
  if (r.scenario == "natural") {
    return workload::SparsityProfile::natural(net, r.act_density);
  }
  if (r.scenario == "pruned") {
    return workload::SparsityProfile::pruned(net, r.p, r.act_density);
  }
  return workload::SparsityProfile::calibrated(net, r.act_density,
                                               r.do_density);
}

core::Session::JobOptions request_job_options(const Request& r) {
  core::Session::JobOptions options;
  options.batch = r.batch;
  if (r.engine == "exact") options.sim.engine = isa::EngineKind::Exact;
  return options;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      tracer_(make_tracer(opts_)),
      session_(session_config(opts_, metrics_)),
      eval_pool_(opts_.request_workers ? opts_.request_workers : 1) {
  c_.received = &metrics_.counter("server_requests_received_total");
  c_.completed = &metrics_.counter("server_evals_completed_total");
  c_.computed =
      &metrics_.counter("server_evals_total", {{"source", "computed"}});
  c_.store_hits =
      &metrics_.counter("server_evals_total", {{"source", "store"}});
  c_.coalesced =
      &metrics_.counter("server_evals_total", {{"source", "coalesced"}});
  c_.errors = &metrics_.counter("server_errors_total");
  c_.rejected = &metrics_.counter("server_rejected_total");
  c_.timeouts = &metrics_.counter("server_timeouts_total");
  c_.overloaded = &metrics_.counter("server_connections_overloaded_total");
  c_.idle_closed = &metrics_.counter("server_connections_idle_closed_total");
  c_.puts = &metrics_.counter("server_puts_total");
  queue_hist_ = &metrics_.histogram("server_queue_seconds");
}

Server::~Server() = default;

Server::Counters Server::counters() const {
  Counters c;
  c.received = c_.received->value();
  c.completed = c_.completed->value();
  c.computed = c_.computed->value();
  c.store_hits = c_.store_hits->value();
  c.coalesced = c_.coalesced->value();
  c.errors = c_.errors->value();
  c.rejected = c_.rejected->value();
  c.timeouts = c_.timeouts->value();
  c.overloaded = c_.overloaded->value();
  c.idle_closed = c_.idle_closed->value();
  c.puts = c_.puts->value();
  return c;
}

void Server::finish(Response& resp, Clock::time_point admitted,
                    const char* type_label) {
  const double seconds = seconds_since(admitted);
  // An inner layer (a shard behind a router) may already have measured;
  // the outermost unmeasured layer stamps.
  if (resp.elapsed_ms < 0.0) resp.elapsed_ms = seconds * 1e3;
  metrics_
      .histogram("server_request_seconds",
                 {{"type", type_label}, {"status", resp.status}})
      .record(seconds);
}

obs::SpanContext Server::trace_context(const Request& req, bool edge) {
  if (tracer_ == nullptr) return {};
  if (req.trace != 0) return tracer_->join(req.trace, req.parent_span);
  return edge ? tracer_->start_trace() : obs::SpanContext{};
}

Response Server::handle(const std::string& line) {
  const Clock::time_point admitted = Clock::now();
  c_.received->inc();
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    c_.errors->inc();
    Response resp;
    resp.status = "error";
    resp.error = e.what();
    finish(resp, admitted, "parse");
    return resp;
  }
  return process(req, admitted);
}

Response Server::process(const Request& req, Clock::time_point admitted) {
  if (req.type == "stats") {
    Response resp = stats_response(req);
    finish(resp, admitted, "stats");
    return resp;
  }
  if (req.type == "status") {
    Response resp = status_response(req);
    finish(resp, admitted, "status");
    return resp;
  }
  if (req.type == "metrics") {
    Response resp = metrics_response(req);
    finish(resp, admitted, "metrics");
    return resp;
  }
  if (req.type == "put") {
    Response resp = put_response(req);
    finish(resp, admitted, "put");
    return resp;
  }
  if (req.type == "shutdown") {
    eval_pool_.wait_idle();  // drain in-flight evaluations
    Response resp = bye_response(req);
    finish(resp, admitted, "shutdown");
    return resp;
  }
  // eval: admission first — a full queue answers immediately instead of
  // growing without bound.
  if (pending_.load() >= opts_.max_queue) {
    c_.rejected->inc();
    Response resp;
    resp.id = req.id;
    resp.status = "rejected";
    resp.error =
        "queue full (" + std::to_string(opts_.max_queue) + " in flight)";
    finish(resp, admitted, "eval");
    return resp;
  }
  ++pending_;
  Response resp = process_eval(req, admitted);
  --pending_;
  return resp;
}

Response Server::process_eval(const Request& req,
                              Clock::time_point admitted) {
  // Root (or joined) span of the whole request. Built retroactively from
  // the admission stamp so its duration covers queue wait too.
  obs::Span req_span(trace_context(req, /*edge=*/true), "daemon.request",
                     admitted);
  if (req_span.active()) {
    if (!req.id.empty()) req_span.attr("id", req.id);
    req_span.attr("workload", req.workload);
    req_span.attr("backend", req.backend);
  }
  {
    // Queue wait: admission to the moment an evaluator thread picked the
    // request up (i.e. now) — the scope closes immediately.
    obs::Span queue_span(req_span.context(), "daemon.queue", admitted);
  }
  queue_hist_->record(seconds_since(admitted));

  // Every exit funnels through here: span status attr, elapsed stamp,
  // request-latency histogram.
  const auto done = [&](Response resp) {
    if (req_span.active()) {
      req_span.attr("status", resp.status);
      if (!resp.source.empty()) req_span.attr("source", resp.source);
    }
    finish(resp, admitted, "eval");
    return resp;
  };

  Response resp;
  resp.id = req.id;
  try {
    const workload::NetworkConfig net = request_network(req);
    const workload::SparsityProfile profile = request_profile(net, req);
    core::Session::JobOptions options = request_job_options(req);
    // Phase spans (store lookup / compile / simulate / publish) hang off
    // the request span; the context is plain values, safe to outlive us
    // when the requester times out but the evaluation keeps running.
    options.trace = req_span.context();

    // The single-flight key is the store's own fingerprint, so "identical
    // request" means exactly "would hit the same store record".
    const std::uint64_t fp =
        session_.run_fingerprint(net, profile, req.backend, options);

    OutcomeFuture future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      const auto it = inflight_.find(fp);
      if (it != inflight_.end()) {
        future = it->second;
      } else {
        owner = true;
      }
    }
    if (owner) {
      auto promise = std::make_shared<
          std::promise<std::shared_ptr<const EvalOutcome>>>();
      future = promise->get_future().share();
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.emplace(fp, future);
      }
      eval_pool_.submit([this, promise, fp, net, profile,
                         backend = req.backend, options]() {
        auto outcome = std::make_shared<EvalOutcome>();
        try {
          if (opts_.before_eval) opts_.before_eval();
          const core::EvalResult result =
              session_.evaluate(net, profile, {backend}, options);
          const core::BackendRun& run = result.runs.front();
          outcome->from_store = run.from_store;
          outcome->fingerprint = run.fingerprint != 0 ? run.fingerprint : fp;
          outcome->workload = net.name;
          outcome->engine = isa::engine_name(run.report.engine);
          outcome->cycles = run.report.total_cycles;
          outcome->latency_ms = run.report.latency_ms();
          outcome->utilization = run.report.utilization();
          outcome->on_chip_uj = run.report.energy.on_chip_pj() * 1e-6;
          outcome->dram_uj = run.report.energy.dram_pj * 1e-6;
          // Serialized unconditionally: any of the coalesced requesters
          // may have asked for it, and the record is small next to the
          // simulation that produced it.
          outcome->report_payload = serialize_report(run.report);
        } catch (const std::exception& e) {
          outcome->error = e.what();
        }
        // Erase BEFORE resolving the promise: anyone who answers after
        // this evaluation completed must have either grabbed the future
        // while the entry existed (coalesced) or missed it entirely — in
        // which case the store (already published above) serves them. A
        // waiter can therefore never observe a completed response while
        // the entry lingers.
        {
          std::lock_guard<std::mutex> lock(inflight_mu_);
          inflight_.erase(fp);
        }
        promise->set_value(std::move(outcome));
      });
    }

    const long timeout_ms =
        req.timeout_ms > 0 ? req.timeout_ms : opts_.default_timeout_ms;
    if (timeout_ms > 0 &&
        future.wait_for(std::chrono::milliseconds(timeout_ms)) !=
            std::future_status::ready) {
      // The evaluation keeps running and still publishes to the store —
      // only this requester stops waiting.
      c_.timeouts->inc();
      resp.status = "timeout";
      resp.error = "evaluation still running after " +
                   std::to_string(timeout_ms) + " ms";
      return done(std::move(resp));
    }

    const std::shared_ptr<const EvalOutcome> outcome = future.get();
    if (!outcome->error.empty()) {
      c_.errors->inc();
      resp.status = "error";
      resp.error = outcome->error;
      return done(std::move(resp));
    }

    resp.status = "ok";
    resp.source = !owner ? "coalesced"
                         : (outcome->from_store ? "store" : "computed");
    resp.workload = outcome->workload;
    resp.backend = req.backend;
    resp.engine = outcome->engine;
    resp.fingerprint = outcome->fingerprint;
    resp.cycles = outcome->cycles;
    resp.latency_ms = outcome->latency_ms;
    resp.utilization = outcome->utilization;
    resp.on_chip_uj = outcome->on_chip_uj;
    resp.dram_uj = outcome->dram_uj;
    if (req.include_report) {
      resp.report_hex = hex_encode(outcome->report_payload);
    }
    c_.completed->inc();
    if (!owner) {
      c_.coalesced->inc();
    } else if (outcome->from_store) {
      c_.store_hits->inc();
    } else {
      c_.computed->inc();
    }
  } catch (const std::exception& e) {
    c_.errors->inc();
    resp.status = "error";
    resp.error = e.what();
  }
  return done(std::move(resp));
}

Response Server::put_response(const Request& req) {
  // Replication hop: adopt the router's trace so the publish appears in
  // the same tree as the forward that produced the report.
  obs::Span put_span(trace_context(req, /*edge=*/false), "daemon.put");
  Response resp;
  resp.id = req.id;
  resp.type = "put";
  try {
    const std::shared_ptr<ResultStore>& store = session_.result_store();
    ST_REQUIRE(store != nullptr,
               "put: this daemon serves without a persistent store");
    // Decode + parse BEFORE touching the store: a corrupt payload must be
    // an error response, never a half-written record.
    const sim::SimReport report = parse_report(hex_decode(req.report_hex));
    if (!store->put_result(req.fingerprint, report)) {
      c_.errors->inc();
      resp.status = "error";
      resp.error = "store did not accept the put (read-only or publish "
                   "failure)";
      if (put_span.active()) put_span.attr("status", resp.status);
      return resp;
    }
    resp.status = "ok";
    resp.source = "replicated";
    resp.fingerprint = req.fingerprint;
    c_.puts->inc();
  } catch (const std::exception& e) {
    c_.errors->inc();
    resp.status = "error";
    resp.error = e.what();
  }
  if (put_span.active()) put_span.attr("status", resp.status);
  return resp;
}

Response Server::stats_response(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.type = "stats";
  std::ostringstream os;
  core::export_stats_json(core::service_stats(session_), os);
  resp.payload_json = one_line(os.str());
  return resp;
}

Response Server::status_response(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.type = "status";
  const Counters c = counters();
  std::ostringstream os;
  os.precision(10);
  os << "{\"inflight\": " << pending_.load()
     << ", \"received\": " << c.received
     << ", \"completed\": " << c.completed
     << ", \"computed\": " << c.computed
     << ", \"store_hits\": " << c.store_hits
     << ", \"coalesced\": " << c.coalesced
     << ", \"errors\": " << c.errors << ", \"rejected\": " << c.rejected
     << ", \"timeouts\": " << c.timeouts
     << ", \"overloaded\": " << c.overloaded
     << ", \"idle_closed\": " << c.idle_closed << ", \"puts\": " << c.puts
     // Provenance: which process is this, how long has it been up, and
     // which schema versions does it speak.
     << ", \"pid\": " << process_id()
     << ", \"uptime_s\": " << seconds_since(started_)
     << ", \"tracing\": " << (tracer_ != nullptr ? "true" : "false")
     << ", \"schemas\": {\"metrics\": \"sparsetrain.metrics/v1\""
     << ", \"stats\": \"sparsetrain.store_stats/v2\""
     << ", \"store\": \"sparsetrain.store/v1\""
     << ", \"report\": \"sparsetrain.report/v1\"}}";
  resp.payload_json = os.str();
  return resp;
}

Response Server::metrics_response(const Request& req) {
  // Sampled state is refreshed at snapshot time — gauges carry the
  // moment's truth, counters and histograms accumulated on their own.
  metrics_.gauge("server_inflight")
      .set(static_cast<double>(pending_.load()));
  metrics_.gauge("process_uptime_seconds").set(seconds_since(started_));
  metrics_.gauge("program_cache_entries")
      .set(static_cast<double>(session_.program_cache().size()));
  if (session_.result_store() != nullptr) {
    const StoreStats ss = session_.result_store()->stats();
    metrics_.gauge("store_resident_bytes")
        .set(static_cast<double>(ss.bytes));
    metrics_.gauge("store_result_entries")
        .set(static_cast<double>(ss.entries));
    metrics_.gauge("store_program_entries")
        .set(static_cast<double>(ss.program_entries));
    metrics_.gauge("store_read_only").set(ss.read_only ? 1.0 : 0.0);
  }

  Response resp;
  resp.id = req.id;
  resp.type = "metrics";
  resp.status = "ok";
  if (req.format == "prometheus") {
    resp.payload_json = "{\"format\": \"prometheus\", \"text\": \"" +
                        json_escape(metrics_.prometheus()) + "\"}";
  } else {
    resp.payload_json = metrics_.json();
  }
  return resp;
}

Response Server::bye_response(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.type = "bye";
  const Counters c = counters();
  std::ostringstream os;
  os << "{\"completed\": " << c.completed << ", \"errors\": " << c.errors
     << ", \"rejected\": " << c.rejected << "}";
  resp.payload_json = os.str();
  return resp;
}

void Server::serve(std::istream& in, std::ostream& out) {
  util::ThreadPool responders(opts_.request_workers ? opts_.request_workers
                                                    : 1);
  std::mutex write_mu;
  const auto write_line = [&write_mu, &out](const Response& r) {
    std::lock_guard<std::mutex> lock(write_mu);
    out << format_response(r) << '\n' << std::flush;
  };

  std::string line;
  Request shutdown_req;
  bool saw_shutdown = false;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Clock::time_point admitted = Clock::now();
    c_.received->inc();
    Request req;
    try {
      req = parse_request(line);
    } catch (const std::exception& e) {
      c_.errors->inc();
      Response err;
      err.status = "error";
      err.error = e.what();
      finish(err, admitted, "parse");
      write_line(err);
      continue;
    }
    if (req.type == "shutdown") {
      shutdown_req = req;
      saw_shutdown = true;
      break;
    }
    if (req.type != "eval") {
      write_line(process(req, admitted));
      continue;
    }
    // Admission on the intake thread: what the cap bounds is dispatched
    // work, so the responder queue can never grow past max_queue.
    if (pending_.load() >= opts_.max_queue) {
      c_.rejected->inc();
      Response rej;
      rej.id = req.id;
      rej.status = "rejected";
      rej.error =
          "queue full (" + std::to_string(opts_.max_queue) + " in flight)";
      finish(rej, admitted, "eval");
      write_line(rej);
      continue;
    }
    ++pending_;
    responders.submit([this, req, admitted, write_line]() {
      const Response resp = process_eval(req, admitted);
      --pending_;
      write_line(resp);
    });
  }
  responders.wait_idle();  // graceful drain: every admitted eval answers
  write_line(bye_response(saw_shutdown ? shutdown_req : Request{}));
}

int Server::serve_listener(Listener& listener) {
#ifndef _WIN32
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
#endif
  LineServerOptions lo;
  lo.max_connections = opts_.max_connections;
  lo.idle_timeout_ms = opts_.idle_timeout_ms;
  {
    Response rej;
    rej.status = "rejected";
    rej.error = "overloaded: " + std::to_string(opts_.max_connections) +
                " connections already open, try again later";
    lo.overloaded_line = format_response(rej);
    Response idle;
    idle.status = "error";
    idle.error = "idle timeout: no request for " +
                 std::to_string(opts_.idle_timeout_ms) +
                 " ms, closing connection";
    lo.idle_line = format_response(idle);
  }
  lo.on_overloaded = [this]() { c_.overloaded->inc(); };
  lo.on_idle_closed = [this]() { c_.idle_closed->inc(); };

  active_listener_.store(&listener);
  const int rc = run_line_server(
      listener, lo, [this](const std::string& line, bool* stop_serving) {
        const Response resp = handle(line);
        if (resp.type == "bye") *stop_serving = true;
        return format_response(resp);
      });
  active_listener_.store(nullptr);
  listener.close();
  eval_pool_.wait_idle();
  if (shutdown_requested_.load()) {
    // Signal-initiated drain: no connection carried a shutdown request,
    // so the final "bye" counters go to stderr instead.
    std::fprintf(stderr, "%s\n",
                 format_response(bye_response(Request{})).c_str());
  }
  return rc;
}

void Server::request_shutdown() {
  // Called from signal handlers: only async-signal-safe steps — an
  // atomic store plus Listener::shutdown() (atomic load + shutdown(2)).
  shutdown_requested_.store(true);
  Listener* listener = active_listener_.load();
  if (listener != nullptr) listener->shutdown();
}

int Server::serve_unix_socket(const std::string& path) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::Unix;
  ep.path = path;
  Listener listener = Listener::listen(ep);
  return serve_listener(listener);
}

int Server::serve_endpoint(const std::string& spec) {
  Listener listener = Listener::listen(spec);
  return serve_listener(listener);
}

}  // namespace sparsetrain::serve
