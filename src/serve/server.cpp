#include "serve/server.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/export.hpp"
#include "isa/instruction.hpp"
#include "serve/report_io.hpp"
#include "util/require.hpp"

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
    : Daemon("server", "serve",
             "\"stats\": \"sparsetrain.store_stats/v3\", "
             "\"store\": \"sparsetrain.store/v1\", "
             "\"report\": \"sparsetrain.report/v1\"",
             opts),
      opts_(std::move(opts)),
      session_(session_config(opts_, metrics())),
      eval_pool_(opts_.request_workers ? opts_.request_workers : 1) {
  obs::Registry& m = metrics();
  c_.completed = &m.counter("server_evals_completed_total");
  c_.computed = &m.counter("server_evals_total", {{"source", "computed"}});
  c_.store_hits = &m.counter("server_evals_total", {{"source", "store"}});
  c_.coalesced = &m.counter("server_evals_total", {{"source", "coalesced"}});
  c_.rejected = &m.counter("server_rejected_total");
  c_.timeouts = &m.counter("server_timeouts_total");
  c_.puts = &m.counter("server_puts_total");
  queue_hist_ = &m.histogram("server_queue_seconds");
}

Response Server::answer(const Request& req, Clock::time_point admitted) {
  if (req.type == "put") return put_response(req);
  Response resp;
  if (!admit(req, resp)) return resp;
  resp = process_eval(req, admitted);
  --pending_;
  return resp;
}

bool Server::admit(const Request& req, Response& rejected) {
  // A full queue answers immediately instead of growing without bound.
  if (pending_.load() < opts_.max_queue) {
    ++pending_;
    return true;
  }
  c_.rejected->inc();
  rejected.id = req.id;
  rejected.status = "rejected";
  rejected.error =
      "queue full (" + std::to_string(opts_.max_queue) + " in flight)";
  return false;
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

  // Every exit funnels through here to label the request span.
  const auto done = [&](Response resp) {
    if (req_span.active()) {
      req_span.attr("status", resp.status);
      if (!resp.source.empty()) req_span.attr("source", resp.source);
    }
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
      errors_->inc();
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
    errors_->inc();
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
      errors_->inc();
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
    errors_->inc();
    resp.status = "error";
    resp.error = e.what();
  }
  if (put_span.active()) put_span.attr("status", resp.status);
  return resp;
}

std::string Server::stats_payload() {
  std::ostringstream os;
  core::export_stats_json(session_, os);
  return one_line(os.str());
}

void Server::status_fields(std::ostream& os) {
  os << "\"inflight\": " << pending_.load()
     << ", \"received\": " << received_->value()
     << ", \"completed\": " << c_.completed->value()
     << ", \"computed\": " << c_.computed->value()
     << ", \"store_hits\": " << c_.store_hits->value()
     << ", \"coalesced\": " << c_.coalesced->value()
     << ", \"errors\": " << errors_->value()
     << ", \"rejected\": " << c_.rejected->value()
     << ", \"timeouts\": " << c_.timeouts->value()
     << ", \"overloaded\": " << overloaded_->value()
     << ", \"idle_closed\": " << idle_closed_->value()
     << ", \"puts\": " << c_.puts->value();
}

void Server::sample_gauges() {
  obs::Registry& m = metrics();
  m.gauge("server_inflight").set(static_cast<double>(pending_.load()));
  m.gauge("program_cache_entries")
      .set(static_cast<double>(session_.program_cache().size()));
  if (session_.result_store() != nullptr) {
    const StoreStats ss = session_.result_store()->stats();
    m.gauge("store_resident_bytes").set(static_cast<double>(ss.bytes));
    m.gauge("store_result_entries").set(static_cast<double>(ss.entries));
    m.gauge("store_read_only").set(ss.read_only ? 1.0 : 0.0);
  }
}

std::string Server::bye_payload() {
  std::ostringstream os;
  os << "{\"completed\": " << c_.completed->value()
     << ", \"errors\": " << errors_->value()
     << ", \"rejected\": " << c_.rejected->value() << "}";
  return os.str();
}

void Server::drain() { eval_pool_.wait_idle(); }

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
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Clock::time_point admitted = Clock::now();
    Request req;
    Response resp;
    if (!parse(line, admitted, req, resp)) {
      write_line(resp);
      continue;
    }
    if (req.type == "shutdown") {
      shutdown_req = req;
      break;
    }
    if (req.type != "eval") {
      write_line(process(req, admitted));
      continue;
    }
    // Admission on the intake thread: what the cap bounds is dispatched
    // work, so the responder queue can never grow past max_queue.
    if (!admit(req, resp)) {
      finish(resp, admitted, "eval");
      write_line(resp);
      continue;
    }
    responders.submit([this, req, admitted, write_line]() {
      Response resp = process_eval(req, admitted);
      --pending_;
      finish(resp, admitted, "eval");
      write_line(resp);
    });
  }
  responders.wait_idle();  // graceful drain: every admitted eval answers
  write_line(bye_response(shutdown_req));
}

}  // namespace sparsetrain::serve
