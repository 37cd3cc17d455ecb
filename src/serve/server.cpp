#include "serve/server.hpp"

#include <chrono>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "isa/instruction.hpp"
#include "serve/report_io.hpp"
#include "util/require.hpp"

namespace sparsetrain::serve {

namespace {

std::shared_ptr<ResultStore> open_store(const ServerOptions& opts,
                                        obs::Registry& metrics) {
  StoreOptions so;
  so.max_bytes = opts.store_max_bytes;
  so.metrics = &metrics;
  return std::make_shared<ResultStore>(opts.store_dir, so);
}

core::SessionConfig session_config(const ServerOptions& opts,
                                   obs::Registry& metrics) {
  core::SessionConfig cfg = opts.session;
  if (!opts.store_dir.empty()) cfg.store = open_store(opts, metrics);
  cfg.metrics = &metrics;
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
      session_(session_config(opts_, metrics())) {
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
    // Queue wait: admission to the moment this request's own thread (a
    // connection's, or the stdio loop's) got to it, i.e. now — the scope
    // closes immediately.
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

    core::Session::JobHandle job;
    bool owner = false;
    {
      // Find-or-start in one critical section: of twins arriving
      // together exactly one starts the evaluation. Finished entries are
      // swept first; each one's report was published before its future
      // resolved, so a twin arriving now starts again and replays it
      // from the store.
      std::lock_guard<std::mutex> lock(inflight_mu_);
      std::erase_if(inflight_, [](const auto& entry) {
        return entry.second.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
      });
      const auto it = inflight_.find(fp);
      if (it != inflight_.end()) {
        job = it->second;
      } else {
        job = session_.submit(net, profile, {req.backend}, options);
        inflight_.emplace(fp, job);
        owner = true;
      }
    }

    const long timeout_ms =
        req.timeout_ms > 0 ? req.timeout_ms : opts_.default_timeout_ms;
    if (timeout_ms > 0 &&
        job.wait_for(std::chrono::milliseconds(timeout_ms)) !=
            std::future_status::ready) {
      // The evaluation keeps running and still publishes to the store —
      // only this requester stops waiting.
      c_.timeouts->inc();
      resp.status = "timeout";
      resp.error = "evaluation still running after " +
                   std::to_string(timeout_ms) + " ms";
      return done(std::move(resp));
    }

    const core::EvalResult& result = job.get();  // rethrows its error
    const core::BackendRun& run = result.runs.front();
    resp.status = "ok";
    resp.source = !owner ? "coalesced"
                         : (run.from_store ? "store" : "computed");
    resp.workload = result.net.name;
    resp.backend = req.backend;
    resp.engine = isa::engine_name(run.report.engine);
    resp.fingerprint = run.fingerprint != 0 ? run.fingerprint : fp;
    resp.cycles = run.report.total_cycles;
    resp.latency_ms = run.report.latency_ms();
    resp.utilization = run.report.utilization();
    resp.on_chip_uj = run.report.energy.on_chip_pj() * 1e-6;
    resp.dram_uj = run.report.energy.dram_pj * 1e-6;
    if (req.include_report) {
      resp.report_hex = hex_encode(serialize_report(run.report));
    }
    c_.completed->inc();
    if (!owner) {
      c_.coalesced->inc();
    } else if (run.from_store) {
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

void Server::drain() {
  std::vector<core::Session::JobHandle> started;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (const auto& entry : inflight_) started.push_back(entry.second);
  }
  for (const auto& job : started) job.wait();
}

}  // namespace sparsetrain::serve
