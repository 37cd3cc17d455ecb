#include "serve/daemon.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "serve/line_server.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <csignal>
#include <unistd.h>
#endif

namespace sparsetrain::serve {

namespace {

std::unique_ptr<obs::Tracer> make_tracer(const DaemonOptions& opts,
                                         const std::string& process) {
  if (opts.trace_path.empty()) return nullptr;
  obs::TracerOptions to;
  to.path = opts.trace_path;
  to.sample_rate = opts.trace_sample_rate;
  to.seed = opts.trace_seed;
  to.process = process;
  return std::make_unique<obs::Tracer>(std::move(to));
}

int process_id() {
#ifdef _WIN32
  return _getpid();
#else
  return static_cast<int>(getpid());
#endif
}

/// The daemon the signal handlers drive; null outside a ShutdownSignals
/// scope.
std::atomic<Daemon*> g_signal_target{nullptr};

#ifndef _WIN32
extern "C" void handle_terminate_signal(int) {
  Daemon* daemon = g_signal_target.load();
  if (daemon != nullptr) daemon->request_shutdown();
}
#endif

}  // namespace

std::vector<Args::Flag> with_daemon_flags(std::vector<Args::Flag> flags) {
  flags.insert(
      flags.end(),
      {
          {"max-connections",
           "socket serving: connections beyond this are refused "
           "(0 = unlimited)",
           true},
          {"idle-timeout-ms",
           "socket serving: close connections idle this long (0 = never)",
           true},
          {"trace", "append sampled request spans to this JSONL file", true},
          {"trace-sample-rate",
           "fraction of edge-started traces sampled (propagated traces "
           "always record)",
           true},
          {"trace-seed", "trace-id / sampling seed (determinism)", true},
      });
  return flags;
}

void read_daemon_flags(const Args& args, DaemonOptions& opts) {
  opts.max_connections =
      static_cast<std::size_t>(args.get("max-connections", 64L));
  opts.idle_timeout_ms = args.get("idle-timeout-ms", 0L);
  opts.trace_path = args.get("trace", std::string{});
  opts.trace_sample_rate = args.get("trace-sample-rate", 1.0);
  opts.trace_seed = static_cast<std::uint64_t>(args.get("trace-seed", 1L));
}

Daemon::Daemon(const std::string& role, const std::string& trace_process,
               std::string schemas, const DaemonOptions& opts)
    : latency_name_(role + "_request_seconds"),
      schemas_(std::move(schemas)),
      daemon_opts_(opts),
      tracer_(make_tracer(opts, trace_process)) {
  received_ = &metrics_.counter(role + "_requests_received_total");
  errors_ = &metrics_.counter(role + "_errors_total");
  overloaded_ = &metrics_.counter(role + "_connections_overloaded_total");
  idle_closed_ = &metrics_.counter(role + "_connections_idle_closed_total");
}

Daemon::~Daemon() = default;

double Daemon::seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Daemon::finish(Response& resp, Clock::time_point admitted,
                    const std::string& type_label) {
  const double seconds = seconds_since(admitted);
  // Overwrites an inner layer's figure on purpose: a router's stamp over
  // its shard's includes forwarding, failover walking and replication.
  resp.elapsed_ms = seconds * 1e3;
  metrics_
      .histogram(latency_name_,
                 {{"type", type_label}, {"status", resp.status}})
      .record(seconds);
}

obs::SpanContext Daemon::trace_context(const Request& req, bool edge) {
  if (tracer_ == nullptr) return {};
  if (req.trace != 0) return tracer_->join(req.trace, req.parent_span);
  return edge ? tracer_->start_trace() : obs::SpanContext{};
}

bool Daemon::parse(const std::string& line, Clock::time_point admitted,
                   Request& req, Response& err) {
  received_->inc();
  try {
    req = parse_request(line);
    return true;
  } catch (const std::exception& e) {
    errors_->inc();
    err.status = "error";
    err.error = e.what();
    finish(err, admitted, "parse");
    return false;
  }
}

Response Daemon::handle(const std::string& line) {
  const Clock::time_point admitted = Clock::now();
  Request req;
  Response resp;
  if (parse(line, admitted, req, resp)) resp = process(req, admitted);
  return resp;
}

Response Daemon::process(const Request& req, Clock::time_point admitted) {
  Response resp;
  if (req.type == "stats") {
    resp.id = req.id;
    resp.type = "stats";
    resp.payload_json = stats_payload();
  } else if (req.type == "status") {
    resp = status_response(req);
  } else if (req.type == "metrics") {
    resp = metrics_response(req);
  } else if (req.type == "shutdown") {
    drain();
    resp = bye_response(req);
  } else {
    resp = answer(req, admitted);
  }
  finish(resp, admitted, req.type);
  return resp;
}

Response Daemon::status_response(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.type = "status";
  std::ostringstream os;
  os.precision(10);
  os << '{';
  status_fields(os);
  // Provenance: which process is this, how long has it been up, and
  // which schema versions does it speak.
  os << ", \"pid\": " << process_id()
     << ", \"uptime_s\": " << seconds_since(started_)
     << ", \"tracing\": " << (tracer_ != nullptr ? "true" : "false")
     << ", \"schemas\": {\"metrics\": \"sparsetrain.metrics/v1\", "
     << schemas_ << "}}";
  resp.payload_json = os.str();
  return resp;
}

Response Daemon::metrics_response(const Request& req) {
  // Sampled state is refreshed at snapshot time — gauges carry the
  // moment's truth, counters and histograms accumulated on their own.
  sample_gauges();
  metrics_.gauge("process_uptime_seconds").set(seconds_since(started_));

  Response resp;
  resp.id = req.id;
  resp.type = "metrics";
  if (req.format == "prometheus") {
    resp.payload_json = "{\"format\": \"prometheus\", \"text\": \"" +
                        json_escape(metrics_.prometheus()) + "\"}";
  } else {
    resp.payload_json = metrics_.json();
  }
  return resp;
}

Response Daemon::bye_response(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.type = "bye";
  resp.payload_json = bye_payload();
  return resp;
}

int Daemon::serve_listener(Listener& listener) {
#ifndef _WIN32
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
#endif
  LineServerOptions lo;
  lo.max_connections = daemon_opts_.max_connections;
  lo.idle_timeout_ms = daemon_opts_.idle_timeout_ms;
  {
    Response rej;
    rej.status = "rejected";
    rej.error = "overloaded: " + std::to_string(daemon_opts_.max_connections) +
                " connections already open, try again later";
    lo.overloaded_line = format_response(rej);
    Response idle;
    idle.status = "error";
    idle.error = "idle timeout: no request for " +
                 std::to_string(daemon_opts_.idle_timeout_ms) +
                 " ms, closing connection";
    lo.idle_line = format_response(idle);
  }
  lo.on_overloaded = [this]() { overloaded_->inc(); };
  lo.on_idle_closed = [this]() { idle_closed_->inc(); };

  active_listener_.store(&listener);
  // A trigger that fired before the listener was published had nothing
  // to kick; honour it now, or accept() would block until the next
  // connection.
  if (shutdown_requested_.load()) listener.shutdown();
  const int rc = run_line_server(
      listener, lo, [this](const std::string& line, bool* stop_serving) {
        const Response resp = handle(line);
        if (resp.type == "bye") *stop_serving = true;
        return format_response(resp);
      });
  active_listener_.store(nullptr);
  listener.close();
  drain();
  if (shutdown_requested_.load()) {
    // Signal-initiated drain: no connection carried a shutdown request,
    // so the final "bye" goes to stderr instead.
    std::fprintf(stderr, "%s\n",
                 format_response(bye_response(Request{})).c_str());
  }
  return rc;
}

void Daemon::request_shutdown() {
  // Called from signal handlers: only async-signal-safe steps — an
  // atomic store plus Listener::shutdown() (atomic load + shutdown(2)).
  shutdown_requested_.store(true);
  Listener* listener = active_listener_.load();
  if (listener != nullptr) listener->shutdown();
}

ShutdownSignals::ShutdownSignals(Daemon& daemon) {
  g_signal_target.store(&daemon);
#ifndef _WIN32
  struct sigaction sa = {};
  sa.sa_handler = handle_terminate_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads/accepts fail with EINTR
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
#endif
}

ShutdownSignals::~ShutdownSignals() { g_signal_target.store(nullptr); }

int run_daemon(Daemon& daemon, const std::string& listen_spec) {
  const ShutdownSignals signals(daemon);
  Listener listener = Listener::listen(listen_spec);
  std::fprintf(stderr, "listening on %s\n",
               listener.endpoint().describe().c_str());
  return daemon.serve_listener(listener);
}

}  // namespace sparsetrain::serve
