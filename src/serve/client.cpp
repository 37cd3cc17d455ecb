#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "util/format.hpp"
#include "util/require.hpp"

namespace sparsetrain::serve {

namespace {

using Clock = std::chrono::steady_clock;

long ms_since(Clock::time_point start) {
  return static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - start)
                               .count());
}

}  // namespace

std::string format_request(const Request& r) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"type\": \"" << json_escape(r.type) << '"';
  if (!r.id.empty()) os << ", \"id\": \"" << json_escape(r.id) << '"';
  if (r.trace != 0) {
    os << ", \"trace\": \"" << hex16(r.trace) << '"';
    if (r.parent_span != 0) {
      os << ", \"span\": \"" << hex16(r.parent_span) << '"';
    }
  }
  if (r.type == "metrics" && r.format != "json") {
    os << ", \"format\": \"" << json_escape(r.format) << '"';
  }
  if (r.type == "eval") {
    os << ", \"workload\": \"" << json_escape(r.workload)
       << "\", \"backend\": \"" << json_escape(r.backend)
       << "\", \"scenario\": \"" << json_escape(r.scenario)
       << "\", \"p\": " << r.p << ", \"act_density\": " << r.act_density
       << ", \"do_density\": " << r.do_density << ", \"engine\": \""
       << json_escape(r.engine) << "\", \"batch\": " << r.batch
       << ", \"timeout_ms\": " << r.timeout_ms;
    if (r.include_report) os << ", \"include_report\": true";
  } else if (r.type == "put") {
    // The report is hex: it needs no escapes.
    os << ", \"fingerprint\": \"" << hex16(r.fingerprint)
       << "\", \"report\": \"" << r.report_hex << '"';
  }
  os << '}';
  return os.str();
}

Client::Client(const std::string& endpoint_spec, ClientOptions opts)
    : ep_(parse_endpoint(endpoint_spec)), opts_(opts),
      rng_(opts.backoff_seed) {
  obs::Registry* reg = opts_.metrics;
  if (reg == nullptr) {
    own_metrics_ = std::make_unique<obs::Registry>();
    reg = own_metrics_.get();
  }
  const obs::Labels labels = {{"endpoint", endpoint_spec}};
  c_.attempts = &reg->counter("client_attempts_total", labels);
  c_.connects = &reg->counter("client_connects_total", labels);
  c_.reconnects = &reg->counter("client_reconnects_total", labels);
  c_.retries = &reg->counter("client_retries_total", labels);
  c_.rejected_retries =
      &reg->counter("client_rejected_retries_total", labels);
  std::string error;
  if (!ensure_connected(error) && opts_.retries <= 0) {
    ST_REQUIRE(false, "client: cannot connect to " + ep_.describe() + ": " +
                          error);
  }
  // With retries configured an unreachable daemon is not fatal here —
  // the first request() keeps trying (the daemon may be restarting).
}

Client::~Client() = default;

bool Client::ensure_connected(std::string& error, long budget_ms) {
  if (conn_.valid()) return true;
  conn_ = connect_endpoint(ep_, &error,
                           budget_ms > 0 ? budget_ms
                                         : opts_.connect_timeout_ms);
  if (!conn_.valid()) return false;
  c_.connects->inc();
  if (c_.connects->value() > 1) c_.reconnects->inc();
  return true;
}

long Client::remaining_ms(long elapsed_ms) const {
  if (opts_.deadline_ms <= 0) return 0;  // 0 = wait forever downstream
  return std::max(1L, opts_.deadline_ms - elapsed_ms);
}

long Client::connect_budget_ms(long elapsed_ms) const {
  // The tighter of the per-attempt connect timeout and what is left of
  // the overall deadline — so neither can defeat the other.
  const long remain = remaining_ms(elapsed_ms);
  if (opts_.connect_timeout_ms <= 0) return remain;
  if (remain <= 0) return opts_.connect_timeout_ms;
  return std::min(opts_.connect_timeout_ms, remain);
}

std::string Client::request_raw(const std::string& json_line) {
  const Clock::time_point start = Clock::now();
  long sleep_ms = opts_.backoff_base_ms;
  std::string last_error = "no attempt made";
  std::string rejected_line;  // last "rejected" response, returned when
                              // retries run out

  for (int attempt = 0;; ++attempt) {
    const bool last = attempt >= opts_.retries;
    std::string error;
    bool retry_this = false;

    if (!ensure_connected(error, connect_budget_ms(ms_since(start)))) {
      last_error = "cannot connect to " + ep_.describe() + ": " + error;
      retry_this = true;
      if (opts_.deadline_ms > 0 &&
          ms_since(start) >= opts_.deadline_ms) {
        ST_REQUIRE(false, "client: deadline of " +
                              std::to_string(opts_.deadline_ms) +
                              " ms exceeded connecting to " +
                              ep_.describe() + " (" + error + ")");
      }
    } else {
      c_.attempts->inc();
      if (!conn_.write_line(json_line)) {
        last_error = "connection lost while sending";
        conn_.close();
        retry_this = true;
      } else {
        std::string line;
        const Conn::ReadStatus st =
            conn_.read_line(line, remaining_ms(ms_since(start)));
        if (st == Conn::ReadStatus::Timeout) {
          conn_.close();  // the late response would desync the stream
          ST_REQUIRE(false, "client: deadline of " +
                                std::to_string(opts_.deadline_ms) +
                                " ms exceeded waiting for " +
                                ep_.describe());
        }
        if (st != Conn::ReadStatus::Ok) {
          last_error = "connection closed before a response";
          conn_.close();
          retry_this = true;
        } else {
          // An admission rejection is retryable by policy: the daemon is
          // alive but briefly full, exactly what backoff is for.
          bool rejected = false;
          if (!last) {
            try {
              rejected = parse_response(line).status == "rejected";
            } catch (const std::exception&) {
              rejected = false;  // unparseable: hand it to the caller
            }
          }
          if (!rejected) return line;
          rejected_line = line;
          last_error = "request rejected (server overloaded)";
          c_.rejected_retries->inc();
          // Reconnect on the retry: a connection-cap rejection closed the
          // socket server-side (a queue-full one didn't, but a fresh
          // connect is correct for both).
          conn_.close();
          retry_this = true;
        }
      }
    }

    if (!retry_this || last) {
      if (!rejected_line.empty()) return rejected_line;
      ST_REQUIRE(false, "client: " + last_error + " (after " +
                            std::to_string(attempt + 1) + " attempt(s) to " +
                            ep_.describe() + ")");
    }

    // Exponential backoff with decorrelated jitter: each sleep is drawn
    // from [base, 3 * previous], capped — growth without lockstep.
    const double lo = static_cast<double>(opts_.backoff_base_ms);
    const double hi = std::max(lo + 1.0, 3.0 * static_cast<double>(sleep_ms));
    sleep_ms = std::min(opts_.backoff_cap_ms,
                        static_cast<long>(rng_.uniform(lo, hi)));
    if (opts_.deadline_ms > 0 &&
        ms_since(start) + sleep_ms >= opts_.deadline_ms) {
      ST_REQUIRE(false, "client: deadline of " +
                            std::to_string(opts_.deadline_ms) +
                            " ms exceeded retrying " + ep_.describe() +
                            " (last failure: " + last_error + ")");
    }
    c_.retries->inc();
    if (opts_.sleeper) {
      opts_.sleeper(sleep_ms);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
}

Response Client::request(const std::string& json_line) {
  return parse_response(request_raw(json_line));
}

Response Client::submit(const Request& eval_request) {
  return request(format_request(eval_request));
}

Response Client::stats() {
  Request r;
  r.type = "stats";
  return request(format_request(r));
}

Response Client::status() {
  Request r;
  r.type = "status";
  return request(format_request(r));
}

Response Client::shutdown() {
  Request r;
  r.type = "shutdown";
  return request(format_request(r));
}

}  // namespace sparsetrain::serve
