#include "serve/daemon.hpp"

#include <cstdio>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/require.hpp"
#include "util/syscall.hpp"

#ifndef _WIN32
#include <csignal>
#endif

namespace sparsetrain::serve {

namespace {

std::unique_ptr<obs::Tracer> make_tracer(const DaemonOptions& opts,
                                         const std::string& process) {
  if (opts.trace_path.empty()) return nullptr;
  obs::TracerOptions to;
  to.path = opts.trace_path;
  to.sample_rate = opts.trace_sample_rate;
  to.process = process;
  return std::make_unique<obs::Tracer>(std::move(to));
}

/// Whitespace-only input lines are skipped, not answered.
bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
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
      });
  return flags;
}

void read_daemon_flags(const Args& args, DaemonOptions& opts) {
  opts.max_connections =
      static_cast<std::size_t>(args.get("max-connections", 64L));
  opts.idle_timeout_ms = args.get("idle-timeout-ms", 0L);
  opts.trace_path = args.get("trace", std::string{});
  opts.trace_sample_rate = args.get("trace-sample-rate", 1.0);
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

Response Daemon::handle(const std::string& line) {
  const Clock::time_point admitted = Clock::now();
  received_->inc();
  Request req;
  Response resp;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    errors_->inc();
    resp.status = "error";
    resp.error = e.what();
    finish(resp, admitted, "parse");
    return resp;
  }
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
  os << ", \"pid\": " << util::process_id()
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
  ST_REQUIRE(listener.valid(), "serve: listener is not listening");
#ifndef _WIN32
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
#endif
  active_listener_.store(&listener);
  // A trigger that fired before the listener was published had nothing
  // to kick; honour it now, or accept() would block until the next
  // connection.
  if (shutdown_requested_.load()) listener.shutdown();
  serve_connections(listener);
  active_listener_.store(nullptr);
  listener.close();
  drain();
  if (shutdown_requested_.load()) {
    // Signal-initiated drain: no connection carried a shutdown request,
    // so the final "bye" goes to stderr instead.
    std::fprintf(stderr, "%s\n",
                 format_response(bye_response(Request{})).c_str());
  }
  return 0;
}

void Daemon::serve_connections(Listener& listener) {
  // Thread discipline: all slot bookkeeping — creation, reaping, the
  // final join — happens on this (the accept) thread; a connection
  // thread touches only its own slot's conn and done flag, plus the
  // other conns' thread-safe shutdown() on stop. A connection thread
  // half-closes its conn; the fd itself is closed here after join, so a
  // late shutdown() kick can never race a close.
  Response rejected;
  rejected.status = "rejected";
  rejected.error = "overloaded: " +
                   std::to_string(daemon_opts_.max_connections) +
                   " connections already open, try again later";
  const std::string overloaded_line = format_response(rejected);
  Response idle;
  idle.status = "error";
  idle.error = "idle timeout: no request for " +
               std::to_string(daemon_opts_.idle_timeout_ms) +
               " ms, closing connection";
  const std::string idle_line = format_response(idle);

  struct ConnSlot {
    Conn conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu;
  std::vector<std::shared_ptr<ConnSlot>> conns;  // guarded by conns_mu
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> active{0};

  const auto reap_finished = [&]() {
    std::vector<std::shared_ptr<ConnSlot>> finished;
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      auto it = conns.begin();
      while (it != conns.end()) {
        if ((*it)->done.load()) {
          finished.push_back(*it);
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& slot : finished) {
      if (slot->thread.joinable()) slot->thread.join();
    }
  };

  while (!stop.load()) {
    Conn conn = listener.accept();
    // accept() already retried every transient failure; an invalid Conn
    // means shutdown() fired or the listener itself is broken.
    if (!conn.valid()) break;
    reap_finished();  // bound the slot list by the live connection count
    if (daemon_opts_.max_connections > 0 &&
        active.load() >= daemon_opts_.max_connections) {
      overloaded_->inc();
      conn.write_line(overloaded_line);
      continue;  // conn closes on scope exit — an explicit no, not a hang
    }
    auto slot = std::make_shared<ConnSlot>();
    slot->conn = std::move(conn);
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.push_back(slot);
    }
    ++active;
    // Raw pointer into the slot: the accept thread keeps the shared_ptr
    // alive until after join (a shared_ptr capture would make the slot's
    // own thread keep the slot alive — a cycle that never frees).
    ConnSlot* s = slot.get();
    slot->thread = std::thread([this, &idle_line, s, &listener, &stop,
                                &conns_mu, &conns, &active]() {
      std::string line;
      for (;;) {
        const Conn::ReadStatus st =
            s->conn.read_line(line, daemon_opts_.idle_timeout_ms);
        if (st == Conn::ReadStatus::Timeout) {
          idle_closed_->inc();
          s->conn.write_line(idle_line);
          break;
        }
        if (st != Conn::ReadStatus::Ok) break;  // Eof / transport error
        if (blank(line)) continue;
        const Response resp = handle(line);
        if (!s->conn.write_line(format_response(resp))) break;
        if (resp.type == "bye") {
          // Shutdown: stop accepting and kick every other connection so
          // their reader loops end and the daemon can drain.
          stop.store(true);
          listener.shutdown();
          std::lock_guard<std::mutex> lock(conns_mu);
          for (const auto& other : conns) {
            if (other.get() != s) other->conn.shutdown();
          }
          break;
        }
      }
      // Half-close only — the fd is closed by the slot's destructor on
      // the accept thread after join, so a late shutdown() kick can
      // never race a concurrent close.
      s->conn.shutdown();
      --active;
      s->done.store(true);
    });
  }

  // Kick any connection still blocked in a read (idempotent after the
  // stop kick), then join everything.
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (const auto& slot : conns) slot->conn.shutdown();
  }
  std::vector<std::shared_ptr<ConnSlot>> remaining;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    remaining.swap(conns);
  }
  for (const auto& slot : remaining) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

void Daemon::serve_stream(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_requested_.load() && std::getline(in, line)) {
    if (blank(line)) continue;
    const Response resp = handle(line);
    out << format_response(resp) << '\n' << std::flush;
    if (resp.type == "bye") return;
  }
  drain();
  out << format_response(bye_response(Request{})) << '\n' << std::flush;
}

void Daemon::request_shutdown() {
  // Called from signal handlers: only async-signal-safe steps — an
  // atomic store plus Listener::shutdown() (atomics + shutdown(2)).
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
