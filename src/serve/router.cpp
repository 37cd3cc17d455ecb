#include "serve/router.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>
#include <utility>

#include "serve/server.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"

namespace sparsetrain::serve {

namespace {

core::SessionConfig placement_session() {
  // The router never simulates — its session exists only to compute the
  // same run_fingerprint the shards key their stores on.
  core::SessionConfig cfg;
  cfg.workers = 1;
  return cfg;
}

/// Stamps one hop's span ids onto the request about to cross the wire,
/// so the shard's spans parent under this hop.
void stamp_trace(Request& r, const obs::SpanContext& hop) {
  if (!hop.active()) return;
  r.trace = hop.trace_id;
  r.parent_span = hop.span_id;
}

}  // namespace

std::vector<std::string> split_endpoints(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(begin, end - begin);
    const std::size_t first = entry.find_first_not_of(" \t");
    const std::size_t last = entry.find_last_not_of(" \t");
    entry = first == std::string::npos
                ? std::string()
                : entry.substr(first, last - first + 1);
    ST_REQUIRE(!entry.empty(),
               "router: empty endpoint in spec '" + spec + "'");
    out.push_back(std::move(entry));
    if (end == spec.size()) break;
    begin = end + 1;
  }
  ST_REQUIRE(!out.empty(), "router: empty endpoint spec");
  return out;
}

Router::Router(RouterOptions opts)
    : Daemon("router", "router", "\"stats\": \"router_stats/v1\"", opts),
      opts_(std::move(opts)),
      ring_(opts_.endpoints),
      session_(placement_session()) {
  // R copies need R distinct successors; a pool of N supports at most
  // N - 1 of them.
  opts_.replicas = std::min(opts_.replicas, ring_.size() - 1);
  ST_REQUIRE(opts_.breaker_threshold > 0,
             "router: breaker_threshold must be positive");
  obs::Registry& m = metrics();
  c_.routed = &m.counter("router_routed_total");
  c_.failovers = &m.counter("router_failovers_total");
  c_.rejected = &m.counter("router_rejected_total");
  shards_.reserve(ring_.size());
  for (const std::string& ep : ring_.endpoints()) {
    auto shard = std::make_unique<Shard>();
    shard->endpoint = ep;
    const obs::Labels labels = {{"shard", ep}};
    Shard::Handles& h = shard->c;
    h.forwards = &m.counter("router_shard_forwards_total", labels);
    h.served = &m.counter("router_shard_served_total", labels);
    h.failures = &m.counter("router_shard_failures_total", labels);
    h.skipped = &m.counter("router_shard_skipped_total", labels);
    h.replications = &m.counter("router_shard_replications_total", labels);
    h.replication_failures =
        &m.counter("router_shard_replication_failures_total", labels);
    h.replication_skipped =
        &m.counter("router_shard_replication_skipped_total", labels);
    h.probes = &m.counter("router_shard_probes_total", labels);
    h.recoveries = &m.counter("router_shard_recoveries_total", labels);
    h.forward_seconds = &m.histogram("router_forward_seconds", labels);
    shards_.push_back(std::move(shard));
  }
  if (opts_.probe_interval_ms > 0) {
    prober_ = std::thread([this]() { prober_loop(); });
  }
}

Router::~Router() {
  {
    std::lock_guard<std::mutex> lock(prober_mu_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::uint64_t Router::placement_key(const Request& req) const {
  if (req.type == "put") return req.fingerprint;
  try {
    const workload::NetworkConfig net = request_network(req);
    const workload::SparsityProfile profile = request_profile(net, req);
    return session_.run_fingerprint(net, profile, req.backend,
                                    request_job_options(req));
  } catch (const std::exception&) {
    // Unknown workload/backend: the shard will answer the error — a
    // deterministic fallback key just has to route it *somewhere*
    // consistently.
    const auto bits = [](double v) {
      std::uint64_t b = 0;
      std::memcpy(&b, &v, sizeof b);
      return b;
    };
    std::uint64_t h = fnv1a(req.workload + '|' + req.backend + '|' +
                            req.scenario + '|' + req.engine);
    h = mix64(h, bits(req.p));
    h = mix64(h, bits(req.act_density));
    h = mix64(h, bits(req.do_density));
    return mix64(h, static_cast<std::uint64_t>(req.batch));
  }
}

bool Router::admit_locked(Shard& s, Clock::time_point now) {
  switch (s.health) {
    case Health::Up:
      return true;
    case Health::HalfOpen:
      // The shard mutex serializes forwards, so at most one half-open
      // probe request is ever in flight.
      return true;
    case Health::Open:
      if (now < s.open_until) return false;
      s.health = Health::HalfOpen;
      return true;
  }
  return true;  // unreachable
}

void Router::on_success_locked(Shard& s) {
  s.consecutive_failures = 0;
  if (s.health != Health::Up) {
    s.health = Health::Up;
    s.c.recoveries->inc();
  }
}

void Router::on_failure_locked(Shard& s, Clock::time_point now) {
  ++s.consecutive_failures;
  if (s.health == Health::HalfOpen ||
      s.consecutive_failures >= opts_.breaker_threshold) {
    s.health = Health::Open;
    s.open_until =
        now + std::chrono::milliseconds(opts_.breaker_cooldown_ms);
  }
}

Router::ForwardResult Router::forward(std::size_t shard,
                                      const std::string& line,
                                      Response* resp) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  const Clock::time_point now = Clock::now();
  if (!admit_locked(s, now)) {
    s.c.skipped->inc();
    return ForwardResult::Skipped;
  }
  try {
    if (!s.client) {
      // retries = 0 makes an unreachable endpoint throw here (fail
      // fast); connect_timeout_ms bounds how long "unreachable" takes.
      // The client's own attempt/connect counters land in the router
      // registry, labeled by endpoint — they survive this reset/remake
      // cycle because the registry dedupes by (name, labels).
      ClientOptions co = opts_.client;
      co.metrics = &metrics();
      s.client = std::make_unique<Client>(s.endpoint, co);
    }
    s.c.forwards->inc();
    *resp = s.client->request(line);
    s.c.forward_seconds->record(seconds_since(now));
    on_success_locked(s);
    return ForwardResult::Answered;
  } catch (const std::exception&) {
    s.c.failures->inc();
    s.client.reset();  // the stream may be desynced: reconnect next time
    on_failure_locked(s, now);
    return ForwardResult::Failed;
  }
}

Response Router::route(const Request& req, std::uint64_t key,
                       const Request& fwd, const obs::SpanContext& trace,
                       bool replicate_ok) {
  // Full preference order: owner first, then every distinct successor —
  // the first 1 + replicas entries are where replicas live, so failover
  // lands on warm stores before cold ones.
  const std::vector<std::size_t> order =
      ring_.successors(key, ring_.size() - 1);
  Response rejected;
  bool saw_rejected = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t idx = order[i];
    // One span per attempt: a failover chain shows up as sibling hops
    // under the request span, each naming its shard and outcome.
    obs::Span hop(trace, i == 0 ? "router.forward" : "router.failover");
    Request attempt = fwd;
    if (hop.active()) {
      hop.attr("shard", ring_.endpoint(idx));
      stamp_trace(attempt, hop.context());
    }
    Response resp;
    const ForwardResult fr = forward(idx, format_request(attempt), &resp);
    if (fr == ForwardResult::Skipped || fr == ForwardResult::Failed) {
      if (hop.active()) {
        hop.attr("outcome", fr == ForwardResult::Skipped
                                ? "skipped"
                                : "transport_failure");
      }
      continue;  // breaker open / transport failure: walk the ring
    }
    resp.shard = ring_.endpoint(idx);
    if (resp.status == "rejected") {
      // The shard is alive but full — remember its answer, try the next
      // successor rather than queueing behind it.
      if (hop.active()) hop.attr("outcome", "rejected");
      saw_rejected = true;
      rejected = resp;
      continue;
    }
    // ok / error / timeout are this shard's authoritative answer.
    if (hop.active()) hop.attr("outcome", resp.status);
    c_.routed->inc();
    if (i > 0) c_.failovers->inc();
    shards_[idx]->c.served->inc();
    if (replicate_ok && resp.status == "ok") {
      replicate(key, idx, resp, trace);
    }
    return resp;
  }
  if (saw_rejected) {
    c_.rejected->inc();
    return rejected;
  }
  return all_down_response(req);
}

void Router::replicate(std::uint64_t key, std::size_t served_by,
                       const Response& ok_resp,
                       const obs::SpanContext& trace) {
  if (opts_.replicas == 0) return;
  if (ok_resp.fingerprint == 0 || ok_resp.report_hex.empty()) return;
  Request put;
  put.type = "put";
  put.id = ok_resp.id;
  put.fingerprint = ok_resp.fingerprint;
  put.report_hex = ok_resp.report_hex;
  // Best effort into the key's preference set (minus whoever already has
  // it): a down replica is skipped and counted, never waited on beyond
  // the breaker's verdict.
  for (const std::size_t idx : ring_.successors(key, opts_.replicas)) {
    if (idx == served_by) continue;
    obs::Span rep(trace, "router.replicate");
    Request attempt = put;
    if (rep.active()) {
      rep.attr("shard", ring_.endpoint(idx));
      stamp_trace(attempt, rep.context());
    }
    Response resp;
    const ForwardResult fr = forward(idx, format_request(attempt), &resp);
    if (fr == ForwardResult::Skipped) {
      shards_[idx]->c.replication_skipped->inc();
      if (rep.active()) rep.attr("outcome", "skipped");
    } else if (fr == ForwardResult::Answered && resp.status == "ok") {
      shards_[idx]->c.replications->inc();
      if (rep.active()) rep.attr("outcome", "ok");
    } else {
      shards_[idx]->c.replication_failures->inc();
      if (rep.active()) rep.attr("outcome", "failed");
    }
  }
}

Response Router::route_eval(const Request& req,
                            const obs::SpanContext& trace) {
  Request fwd = req;
  // Replication needs the serialized report riding on the response; the
  // caller only sees it if they asked.
  if (opts_.replicas > 0) fwd.include_report = true;
  const std::uint64_t key = placement_key(req);
  Response resp = route(req, key, fwd, trace,
                        /*replicate_ok=*/opts_.replicas > 0);
  if (!req.include_report) resp.report_hex.clear();
  return resp;
}

Response Router::route_put(const Request& req,
                           const obs::SpanContext& trace) {
  // A put targets the key's whole replica set, not one shard: ok when
  // any member accepted it.
  const std::uint64_t key = placement_key(req);
  Response first_ok;
  Response last;
  std::size_t ok_idx = 0;
  std::size_t last_idx = 0;
  bool any_answered = false;
  bool any_ok = false;
  for (const std::size_t idx : ring_.successors(key, opts_.replicas)) {
    obs::Span hop(trace, "router.put");
    Request attempt = req;
    if (hop.active()) {
      hop.attr("shard", ring_.endpoint(idx));
      stamp_trace(attempt, hop.context());
    }
    Response resp;
    const ForwardResult fr = forward(idx, format_request(attempt), &resp);
    if (fr != ForwardResult::Answered) {
      if (hop.active()) hop.attr("outcome", "unreachable");
      continue;
    }
    resp.shard = ring_.endpoint(idx);
    if (hop.active()) hop.attr("outcome", resp.status);
    any_answered = true;
    last = resp;
    last_idx = idx;
    if (resp.status == "ok" && !any_ok) {
      any_ok = true;
      first_ok = resp;
      ok_idx = idx;
    }
  }
  if (any_ok) {
    c_.routed->inc();
    shards_[ok_idx]->c.served->inc();
    return first_ok;
  }
  if (any_answered) {
    c_.routed->inc();
    shards_[last_idx]->c.served->inc();
    return last;
  }
  return all_down_response(req);
}

Response Router::all_down_response(const Request& req) {
  c_.rejected->inc();
  Response resp;
  resp.id = req.id;
  resp.status = "rejected";
  resp.error = "all shards down (" + std::to_string(ring_.size()) +
               " endpoint(s) unreachable or circuit-open)";
  return resp;
}

Response Router::answer(const Request& req, Clock::time_point admitted) {
  // eval / put cross the wire: this is the trace edge. The root span
  // covers placement, every forward/failover hop and replication.
  obs::Span root(trace_context(req, /*edge=*/true), "router.request",
                 admitted);
  if (root.active()) {
    if (!req.id.empty()) root.attr("id", req.id);
    root.attr("type", req.type);
  }
  Response resp = req.type == "put" ? route_put(req, root.context())
                                    : route_eval(req, root.context());
  if (root.active()) {
    root.attr("status", resp.status);
    if (!resp.shard.empty()) root.attr("shard", resp.shard);
  }
  return resp;
}

const char* Router::health_name(Health h) {
  switch (h) {
    case Health::Up:
      return "up";
    case Health::Open:
      return "open";
    default:
      return "half_open";
  }
}

std::string Router::stats_payload() {
  std::ostringstream os;
  os << "{\"version\": \"router_stats/v1\", \"received\": "
     << received_->value() << ", \"routed\": " << c_.routed->value()
     << ", \"failovers\": " << c_.failovers->value()
     << ", \"rejected\": " << c_.rejected->value()
     << ", \"errors\": " << errors_->value()
     << ", \"replicas\": " << opts_.replicas << ", \"shards\": [";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    if (i > 0) os << ", ";
    os << "{\"endpoint\": \"" << json_escape(sh.endpoint)
       << "\", \"health\": \"" << health_name(sh.current_health())
       << "\", \"forwards\": " << sh.c.forwards->value()
       << ", \"served\": " << sh.c.served->value()
       << ", \"failures\": " << sh.c.failures->value()
       << ", \"skipped\": " << sh.c.skipped->value()
       << ", \"replications\": " << sh.c.replications->value()
       << ", \"replication_failures\": "
       << sh.c.replication_failures->value()
       << ", \"replication_skipped\": " << sh.c.replication_skipped->value()
       << ", \"probes\": " << sh.c.probes->value()
       << ", \"recoveries\": " << sh.c.recoveries->value() << "}";
  }
  os << "]}";
  return os.str();
}

void Router::status_fields(std::ostream& os) {
  std::size_t up = 0;
  for (const auto& shard : shards_) {
    if (shard->current_health() == Health::Up) ++up;
  }
  os << "\"shards\": " << shards_.size() << ", \"up\": " << up
     << ", \"received\": " << received_->value()
     << ", \"routed\": " << c_.routed->value()
     << ", \"failovers\": " << c_.failovers->value()
     << ", \"rejected\": " << c_.rejected->value();
}

std::string Router::bye_payload() {
  // Stops the router's serving loop only — the backend shards keep
  // running (they belong to their own lifecycles).
  std::ostringstream os;
  os << "{\"routed\": " << c_.routed->value()
     << ", \"failovers\": " << c_.failovers->value()
     << ", \"rejected\": " << c_.rejected->value() << "}";
  return os.str();
}

void Router::sample_gauges() {
  // Breaker state per shard: 1 = up, 0.5 = half-open probing, 0 = open.
  for (const auto& shard : shards_) {
    const Health h = shard->current_health();
    metrics()
        .gauge("router_shard_healthy", {{"shard", shard->endpoint}})
        .set(h == Health::Up ? 1.0 : (h == Health::HalfOpen ? 0.5 : 0.0));
  }
}

void Router::prober_loop() {
  std::unique_lock<std::mutex> lock(prober_mu_);
  for (;;) {
    prober_cv_.wait_for(
        lock, std::chrono::milliseconds(opts_.probe_interval_ms),
        [this]() { return prober_stop_; });
    if (prober_stop_) return;
    lock.unlock();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->current_health() != Health::Up) probe(i);
    }
    lock.lock();
  }
}

void Router::probe(std::size_t shard) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  const Clock::time_point now = Clock::now();
  s.c.probes->inc();
  // A probe deliberately ignores the breaker cooldown — recovery should
  // not wait for live traffic to half-open the shard. No metrics on the
  // throwaway ping client: its connects are not traffic.
  ClientOptions po = opts_.client;
  po.retries = 0;
  po.deadline_ms = opts_.probe_deadline_ms;
  po.connect_timeout_ms =
      po.connect_timeout_ms > 0
          ? std::min(po.connect_timeout_ms, opts_.probe_deadline_ms)
          : opts_.probe_deadline_ms;
  try {
    Client ping(s.endpoint, po);
    Request r;
    r.type = "status";
    r.id = "router-probe";
    (void)ping.request(format_request(r));
    on_success_locked(s);
    s.client.reset();  // traffic reconnects with the real client options
  } catch (const std::exception&) {
    on_failure_locked(s, now);
  }
}

}  // namespace sparsetrain::serve
