// Replicated shard router: deterministic consistent-hash placement
// (order-insensitive, minimal movement on pool resize), zero-loss
// failover with a shard down, replication into ring successors, the
// per-shard circuit breaker's open → half-open → closed cycle, the
// background health prober, the explicit all-shards-down rejection, and
// the exact bytes of both daemons' stats, status and bye payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/ring.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve_hold.hpp"
#include "util/require.hpp"

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

using serve::Client;
using serve::ClientOptions;
using serve::Conn;
using serve::Daemon;
using serve::JsonValue;
using serve::Listener;
using serve::Request;
using serve::Response;
using serve::Ring;
using serve::Router;
using serve::RouterOptions;
using serve::Server;
using serve::ServerOptions;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string fresh_socket(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "sparsetrain_" + name + ".sock";
  fs::remove(path);
  return path;
}

Request tiny_eval(const std::string& id) {
  Request r;
  r.type = "eval";
  r.id = id;
  r.workload = "tiny";
  return r;
}

/// A daemon's "stats" or "status" payload, as operators read it.
JsonValue payload(Daemon& daemon, const std::string& type) {
  return serve::parse_json(
      daemon.handle("{\"type\":\"" + type + "\"}").payload_json);
}

/// Shard `i`'s entry in a router_stats/v1 payload.
JsonValue shard_stats(Router& router, std::size_t i) {
  return payload(router, "stats").find("shards")->as_array().at(i);
}

// ---------------------------------------------------------------------------
// Ring placement

TEST(Ring, PlacementIgnoresEndpointOrder) {
  const Ring a({"alpha:1", "beta:2", "gamma:3"});
  const Ring b({"gamma:3", "alpha:1", "beta:2"});
  for (std::uint64_t key = 0; key < 5000; ++key) {
    const std::uint64_t k = key * 0x9e3779b97f4a7c15ULL;
    EXPECT_EQ(a.endpoint(a.owner(k)), b.endpoint(b.owner(k)));
  }
}

TEST(Ring, SamePoolTwoInstancesAgreeEverywhere) {
  // Placement is a pure function of the endpoint strings: a second
  // router (or a restarted one) computes identical ownership.
  const std::vector<std::string> pool = {"s0", "s1", "s2", "s3"};
  const Ring a(pool);
  const Ring b(pool);
  for (std::uint64_t key = 1; key < 5000; ++key) {
    EXPECT_EQ(a.owner(key * 0xc2b2ae3d27d4eb4fULL),
              b.owner(key * 0xc2b2ae3d27d4eb4fULL));
  }
}

TEST(Ring, AddingShardMovesOnlyKeysItNowOwns) {
  const Ring three({"s0", "s1", "s2"});
  const Ring four({"s0", "s1", "s2", "s3"});
  int moved = 0;
  const int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    const std::uint64_t k =
        static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL + 17;
    const std::string& before = three.endpoint(three.owner(k));
    const std::string& after = four.endpoint(four.owner(k));
    if (before != after) {
      // The only legal destination for a moved key is the new shard.
      EXPECT_EQ(after, "s3");
      ++moved;
    }
  }
  // ~1/4 of the space belongs to the new shard; allow generous slack for
  // virtual-node variance but pin that the vast majority stayed put.
  EXPECT_GT(moved, kKeys / 20);
  EXPECT_LT(moved, kKeys / 2);
}

TEST(Ring, RemovingShardStrandsOnlyItsOwnKeys) {
  const Ring three({"s0", "s1", "s2"});
  const Ring two({"s0", "s1"});
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k =
        static_cast<std::uint64_t>(i) * 0x2545f4914f6cdd1dULL + 3;
    const std::string& before = three.endpoint(three.owner(k));
    const std::string& after = two.endpoint(two.owner(k));
    if (before != "s2") {
      EXPECT_EQ(before, after);  // survivors keep everything they had
    }
  }
}

TEST(Ring, SuccessorsAreDistinctAndStartAtOwner) {
  const Ring ring({"s0", "s1", "s2"});
  for (std::uint64_t key = 1; key < 2000; ++key) {
    const std::uint64_t k = key * 0x9e3779b97f4a7c15ULL;
    const std::vector<std::size_t> order = ring.successors(k, 2);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], ring.owner(k));
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2}));
  }
}

TEST(Ring, RejectsEmptyAndDuplicateEndpoints) {
  EXPECT_THROW(Ring({}), ContractError);
  EXPECT_THROW(Ring({"a", ""}), ContractError);
  EXPECT_THROW(Ring({"a", "b", "a"}), ContractError);
}

TEST(Router, SplitEndpointsTrimsAndRejectsEmpties) {
  EXPECT_EQ(serve::split_endpoints("a:1, b:2 ,unix.sock"),
            (std::vector<std::string>{"a:1", "b:2", "unix.sock"}));
  EXPECT_THROW(serve::split_endpoints("a:1,,b:2"), ContractError);
  EXPECT_THROW(serve::split_endpoints(""), ContractError);
}

// ---------------------------------------------------------------------------
// A pool of real daemons behind the router.

struct ShardDaemon {
  std::string socket;
  std::string store_dir;
  std::unique_ptr<Server> server;
  std::thread thread;

  void start() {
    ServerOptions opts;
    opts.store_dir = store_dir;
    server = std::make_unique<Server>(opts);
    Listener listener = Listener::listen(socket);
    thread = std::thread(
        [this, l = std::move(listener)]() mutable {
          server->serve_listener(l);
        });
  }

  void stop() {
    if (!server) return;
    Client killer(socket, ClientOptions{});
    EXPECT_EQ(killer.shutdown().type, "bye");
    thread.join();
    server.reset();
  }
};

struct Pool {
  std::vector<ShardDaemon> shards;

  explicit Pool(const std::string& name, std::size_t n) {
    shards.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards[i].socket =
          fresh_socket(name + "_shard" + std::to_string(i));
      shards[i].store_dir =
          fresh_dir(name + "_store" + std::to_string(i));
      shards[i].start();
    }
  }

  ~Pool() {
    for (ShardDaemon& s : shards) s.stop();
    for (ShardDaemon& s : shards) fs::remove_all(s.store_dir);
  }

  std::vector<std::string> endpoints() const {
    std::vector<std::string> out;
    for (const ShardDaemon& s : shards) out.push_back(s.socket);
    return out;
  }

  std::size_t index_of(const std::string& endpoint) const {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].socket == endpoint) return i;
    }
    ADD_FAILURE() << "unknown endpoint " << endpoint;
    return 0;
  }
};

RouterOptions pool_router_options(const Pool& pool) {
  RouterOptions opts;
  opts.endpoints = pool.endpoints();
  opts.client.deadline_ms = 30000;  // evals on a loaded CI box take time
  opts.client.connect_timeout_ms = 500;
  return opts;
}

/// A tiny-workload eval whose placement key lands on shard `target`
/// (found by scanning pruning rates — each p is a distinct fingerprint).
Request eval_owned_by(const Router& router, std::size_t target,
                      const std::string& id) {
  for (int i = 0; i < 500; ++i) {
    Request r = tiny_eval(id);
    r.p = 0.30 + 0.001 * i;
    if (router.ring().owner(router.placement_key(r)) == target) return r;
  }
  ADD_FAILURE() << "no tiny eval maps to shard " << target;
  return tiny_eval(id);
}

TEST(Router, RoutesEvalsAndAnnotatesTheServingShard) {
  Pool pool("route_basic", 3);
  Router router(pool_router_options(pool));

  const Request req = tiny_eval("r1");
  const Response resp = router.handle(serve::format_request(req));
  ASSERT_EQ(resp.status, "ok") << resp.error;
  const std::string owner =
      router.ring().endpoint(router.ring().owner(router.placement_key(req)));
  EXPECT_EQ(resp.shard, owner);
  EXPECT_EQ(resp.source, "computed");
  EXPECT_TRUE(resp.report_hex.empty());  // not asked for → not leaked

  // Identical request again: same shard, now a warm hit (store or the
  // session-level store path).
  const Response again =
      router.handle(serve::format_request(tiny_eval("r2")));
  ASSERT_EQ(again.status, "ok") << again.error;
  EXPECT_EQ(again.shard, owner);
  EXPECT_EQ(again.fingerprint, resp.fingerprint);

  Request stats_req;
  stats_req.type = "stats";
  const Response stats = router.handle(serve::format_request(stats_req));
  EXPECT_EQ(stats.type, "stats");
  EXPECT_NE(stats.payload_json.find("router_stats/v1"), std::string::npos);
  EXPECT_NE(stats.payload_json.find("\"health\": \"up\""),
            std::string::npos);

  const JsonValue s = payload(router, "stats");
  EXPECT_EQ(s.get_number("routed", -1), 2);
  EXPECT_EQ(s.get_number("failovers", -1), 0);
  EXPECT_EQ(s.get_number("rejected", -1), 0);
}

TEST(Router, MalformedLinesAnswerErrorWithoutTouchingShards) {
  Pool pool("route_bad", 1);
  RouterOptions opts = pool_router_options(pool);
  Router router(opts);
  const Response resp = router.handle("this is not json");
  EXPECT_EQ(resp.status, "error");
  EXPECT_EQ(payload(router, "stats").get_number("errors", -1), 1);
  EXPECT_EQ(shard_stats(router, 0).get_number("forwards", -1), 0);
}

TEST(Router, ReplicationMakesTheKeyReadableFromTheSuccessor) {
  Pool pool("route_repl", 3);
  RouterOptions opts = pool_router_options(pool);
  opts.replicas = 1;
  Router router(opts);

  const Request req = eval_owned_by(router, 0, "repl");
  const std::uint64_t key = router.placement_key(req);
  const std::size_t successor = router.ring().successors(key, 1)[1];

  const Response first = router.handle(serve::format_request(req));
  ASSERT_EQ(first.status, "ok") << first.error;
  EXPECT_EQ(first.shard, pool.shards[0].socket);
  EXPECT_EQ(first.source, "computed");

  // Replication is synchronous with the response: the successor's
  // counters already show the accepted put...
  const JsonValue s = shard_stats(router, successor);
  EXPECT_EQ(s.get_number("replications", -1), 1);
  EXPECT_EQ(s.get_number("replication_failures", -1), 0);

  // ...and the successor can serve the fingerprint from its own store:
  // ask it directly, bypassing the router.
  Client direct(pool.shards[successor].socket, ClientOptions{});
  Request same = req;
  same.id = "direct";
  const Response from_replica = direct.submit(same);
  ASSERT_EQ(from_replica.status, "ok") << from_replica.error;
  EXPECT_EQ(from_replica.fingerprint, first.fingerprint);
  EXPECT_EQ(from_replica.source, "store");
}

TEST(Router, FailoverWithOneShardDownLosesZeroRequests) {
  Pool pool("route_failover", 3);
  RouterOptions opts = pool_router_options(pool);
  opts.replicas = 1;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_ms = 60000;  // stays down for the whole test
  Router router(opts);

  // Warm every shard with a key it owns (and replicate to successors).
  std::vector<Request> owned;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    owned.push_back(
        eval_owned_by(router, shard, "warm" + std::to_string(shard)));
    const Response resp =
        router.handle(serve::format_request(owned.back()));
    ASSERT_EQ(resp.status, "ok") << resp.error;
  }

  // Kill shard 0. Its keys must fail over to the ring successor — which
  // replication already warmed — and every request still succeeds.
  pool.shards[0].stop();
  const std::uint64_t dead_key = router.placement_key(owned[0]);
  const std::string successor_ep =
      router.ring().endpoint(router.ring().successors(dead_key, 1)[1]);

  for (int i = 0; i < 4; ++i) {
    Request again = owned[i % 3];
    again.id = "after" + std::to_string(i);
    const Response resp = router.handle(serve::format_request(again));
    ASSERT_EQ(resp.status, "ok")
        << "request " << i << " lost: " << resp.error;
  }
  // The dead shard's key specifically: served by its successor, from the
  // replicated store record (no recompute).
  Request dead_again = owned[0];
  dead_again.id = "dead_key";
  const Response failed_over =
      router.handle(serve::format_request(dead_again));
  ASSERT_EQ(failed_over.status, "ok") << failed_over.error;
  EXPECT_EQ(failed_over.shard, successor_ep);
  EXPECT_EQ(failed_over.source, "store");

  const JsonValue s = payload(router, "stats");
  EXPECT_GE(s.get_number("failovers", -1), 1);
  EXPECT_EQ(s.get_number("rejected", -1), 0);
  const std::size_t dead = pool.index_of(pool.shards[0].socket);
  EXPECT_GE(shard_stats(router, dead).get_number("failures", -1), 1);
}

TEST(Router, BreakerOpensHalfOpensAndClosesAgain) {
  // One endpoint, nothing listening: connects fail instantly (ENOENT).
  const std::string socket = fresh_socket("route_breaker");
  RouterOptions opts;
  opts.endpoints = {socket};
  opts.replicas = 0;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_ms = 150;
  opts.client.deadline_ms = 2000;
  opts.client.connect_timeout_ms = 200;
  Router router(opts);

  // Two transport failures open the breaker...
  for (int i = 0; i < 2; ++i) {
    const Response resp =
        router.handle(serve::format_request(tiny_eval("f")));
    EXPECT_EQ(resp.status, "rejected");
    EXPECT_NE(resp.error.find("all shards down"), std::string::npos);
  }
  JsonValue s = shard_stats(router, 0);
  EXPECT_EQ(s.get_string("health", ""), "open");
  EXPECT_EQ(s.get_number("failures", -1), 2);

  // ...and while open the shard is skipped without paying a connect.
  const Response skipped =
      router.handle(serve::format_request(tiny_eval("s")));
  EXPECT_EQ(skipped.status, "rejected");
  s = shard_stats(router, 0);
  EXPECT_GE(s.get_number("skipped", -1), 1);
  EXPECT_EQ(s.get_number("failures", -1), 2);  // no new connect attempt

  // Recovery: bring a real daemon up on the endpoint, wait out the
  // cooldown, and the next request is the half-open probe that closes
  // the breaker.
  ShardDaemon daemon;
  daemon.socket = socket;
  daemon.store_dir = fresh_dir("route_breaker_store");
  daemon.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const Response recovered =
      router.handle(serve::format_request(tiny_eval("r")));
  EXPECT_EQ(recovered.status, "ok") << recovered.error;
  s = shard_stats(router, 0);
  EXPECT_EQ(s.get_string("health", ""), "up");
  EXPECT_EQ(s.get_number("recoveries", -1), 1);

  daemon.stop();
  fs::remove_all(daemon.store_dir);
}

TEST(Router, AllShardsDownRejectsExplicitlyWithinTheDeadline) {
  RouterOptions opts;
  opts.endpoints = {fresh_socket("down_a"), fresh_socket("down_b"),
                    fresh_socket("down_c")};
  opts.breaker_threshold = 1;
  opts.client.deadline_ms = 500;
  opts.client.connect_timeout_ms = 100;
  Router router(opts);

  const auto start = std::chrono::steady_clock::now();
  const Response resp =
      router.handle(serve::format_request(tiny_eval("doomed")));
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);

  EXPECT_EQ(resp.status, "rejected");
  EXPECT_NE(resp.error.find("all shards down"), std::string::npos)
      << resp.error;
  // Three failed unix connects are near-instant; the bound just pins
  // "explicit answer, not a hang".
  EXPECT_LT(elapsed.count(), 3000);

  const JsonValue s = payload(router, "stats");
  EXPECT_EQ(s.get_number("rejected", -1), 1);
  EXPECT_EQ(s.get_number("routed", -1), 0);
}

TEST(Router, ProberRecoversADownShardWithoutTraffic) {
  const std::string socket = fresh_socket("route_probe");
  RouterOptions opts;
  opts.endpoints = {socket};
  opts.replicas = 0;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown_ms = 60000;  // traffic alone would never retry
  opts.probe_interval_ms = 50;
  opts.probe_deadline_ms = 500;
  opts.client.deadline_ms = 2000;
  opts.client.connect_timeout_ms = 200;
  Router router(opts);

  // One failure marks the shard down.
  EXPECT_EQ(router.handle(serve::format_request(tiny_eval("x"))).status,
            "rejected");
  ASSERT_EQ(shard_stats(router, 0).get_string("health", ""), "open");

  // The daemon comes back; the prober must rejoin it with NO request
  // traffic, despite the one-minute breaker cooldown.
  ShardDaemon daemon;
  daemon.socket = socket;
  daemon.store_dir = fresh_dir("route_probe_store");
  daemon.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shard_stats(router, 0).get_string("health", "") != "up" &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const JsonValue s = shard_stats(router, 0);
  EXPECT_EQ(s.get_string("health", ""), "up");
  EXPECT_GE(s.get_number("probes", -1), 1);
  EXPECT_GE(s.get_number("recoveries", -1), 1);

  // And real traffic flows again immediately.
  EXPECT_EQ(router.handle(serve::format_request(tiny_eval("y"))).status,
            "ok");

  daemon.stop();
  fs::remove_all(daemon.store_dir);
}

TEST(Router, ServesTheWireProtocolOverAListener) {
  Pool pool("route_wire", 2);
  RouterOptions opts = pool_router_options(pool);
  Router router(opts);

  Listener listener = Listener::listen(fresh_socket("route_front"));
  const std::string front = listener.endpoint().path;
  std::thread serving([&]() { router.serve_listener(listener); });

  Client client(front, ClientOptions{});
  const Response resp = client.submit(tiny_eval("wire"));
  EXPECT_EQ(resp.status, "ok") << resp.error;
  EXPECT_FALSE(resp.shard.empty());

  // parse_response drops the payload object: check the raw stats line.
  const std::string stats_line =
      client.request_raw("{\"type\":\"stats\"}");
  EXPECT_NE(stats_line.find("router_stats/v1"), std::string::npos);

  EXPECT_EQ(client.shutdown().type, "bye");
  serving.join();
}

// ---------------------------------------------------------------------------
// Payload bytes. One server behind a one-shard router runs a fixed
// request sequence that moves each printed counter it can off zero; the
// "stats" payloads, the "status" payloads up to their provenance and the
// "bye" payloads must then read exactly these bytes.

/// The members of a "status" payload before its provenance ("pid" on).
std::string status_counters(Daemon& daemon) {
  const std::string payload =
      daemon.handle("{\"type\":\"status\"}").payload_json;
  return payload.substr(0, payload.find(", \"pid\": "));
}

TEST(Payloads, StatsStatusAndByeBytesArePinned) {
  const std::string store_dir = fresh_dir("pin_store");
  const std::string socket = fresh_socket("pin_shard");
  auto hold = std::make_shared<HoldPublication>();
  ServerOptions sopts = held_store_options(store_dir, hold);
  sopts.session.workers = 1;
  sopts.max_queue = 1;
  sopts.max_connections = 2;  // the router's connection and one more
  Server server(sopts);
  Listener listener = Listener::listen(socket);
  std::thread serving([&]() { server.serve_listener(listener); });

  RouterOptions ropts;
  ropts.endpoints = {socket};
  ropts.client.deadline_ms = 30000;
  Router router(ropts);
  const auto via_router = [&router](const Request& r) {
    return router.handle(serve::format_request(r));
  };

  // Computed, then a store hit, both through the router.
  Request first = tiny_eval("a");
  first.include_report = true;
  const Response computed = via_router(first);
  ASSERT_EQ(computed.source, "computed") << computed.error;
  ASSERT_EQ(via_router(tiny_eval("b")).source, "store");

  // A malformed line at each daemon.
  EXPECT_EQ(router.handle("not json").status, "error");
  EXPECT_EQ(server.handle("not json").status, "error");

  // A put of the computed report, routed to the shard.
  Request put;
  put.type = "put";
  put.id = "p";
  put.fingerprint = computed.fingerprint;
  put.report_hex = computed.report_hex;
  ASSERT_EQ(via_router(put).status, "ok");

  // Beside the router's connection and one more, a third is refused.
  std::string error;
  Conn second = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(second.valid()) << error;
  Conn third = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(third.valid()) << error;
  std::string line;
  ASSERT_EQ(third.read_line(line, 5000), Conn::ReadStatus::Ok);
  EXPECT_EQ(serve::parse_response(line).status, "rejected");
  third.close();
  second.close();

  // A held evaluation times out its requester; a twin attaches to it and
  // fills the queue, so the next eval the router forwards is rejected.
  hold->hold();
  Request held = tiny_eval("c");
  held.p = 0.5;
  held.timeout_ms = 30;
  EXPECT_EQ(server.handle(serve::format_request(held)).status, "timeout");
  Response twin;
  std::thread waiter([&]() {
    Request again = held;
    again.id = "d";
    again.timeout_ms = 0;
    twin = server.handle(serve::format_request(again));
  });
  while (server.inflight() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Request refused = tiny_eval("e");
  refused.p = 0.7;
  EXPECT_EQ(via_router(refused).status, "rejected");
  hold->release();
  waiter.join();
  EXPECT_EQ(twin.source, "coalesced") << twin.error;

  EXPECT_EQ(server.handle("{\"type\":\"stats\"}").payload_json,
            "{\"schema\": \"sparsetrain.store_stats/v3\",  "
            "\"program_cache\": {\"hits\": 0, \"misses\": 2, "
            "\"lookups\": 2},  \"store_attached\": true,  \"store\": "
            "{\"hits\": 1, \"misses\": 2, \"hit_rate\": 0.3333333333, "
            "\"puts\": 3, \"evictions\": 0, \"torn_skipped\": 0, "
            "\"tmp_cleaned\": 0, \"publish_failures\": 0, "
            "\"dropped_publishes\": 0, \"read_only\": false, "
            "\"entries\": 2, \"bytes\": 2014}}");
  EXPECT_EQ(status_counters(server),
            "{\"inflight\": 0, \"received\": 9, \"completed\": 3, "
            "\"computed\": 1, \"store_hits\": 1, \"coalesced\": 1, "
            "\"errors\": 1, \"rejected\": 1, \"timeouts\": 1, "
            "\"overloaded\": 1, \"idle_closed\": 0, \"puts\": 1");
  const std::string router_stats =
      router.handle("{\"type\":\"stats\"}").payload_json;
  EXPECT_EQ(router_stats,
            "{\"version\": \"router_stats/v1\", \"received\": 6, "
            "\"routed\": 3, \"failovers\": 0, \"rejected\": 1, "
            "\"errors\": 1, \"replicas\": 0, \"shards\": [{\"endpoint\": "
            "\"" + socket + "\", \"health\": \"up\", \"forwards\": 4, "
            "\"served\": 3, \"failures\": 0, \"skipped\": 0, "
            "\"replications\": 0, \"replication_failures\": 0, "
            "\"replication_skipped\": 0, \"probes\": 0, "
            "\"recoveries\": 0}]}");
  // Every routed request, eval or put, is served by exactly one shard.
  const JsonValue rs = serve::parse_json(router_stats);
  double served = 0;
  for (const JsonValue& shard : rs.find("shards")->as_array()) {
    served += shard.get_number("served", 0);
  }
  EXPECT_EQ(served, rs.get_number("routed", -1));
  EXPECT_EQ(status_counters(router),
            "{\"shards\": 1, \"up\": 1, \"received\": 7, \"routed\": 3, "
            "\"failovers\": 0, \"rejected\": 1");
  EXPECT_EQ(server.handle("{\"type\":\"shutdown\"}").payload_json,
            "{\"completed\": 3, \"errors\": 1, \"rejected\": 1}");
  EXPECT_EQ(router.handle("{\"type\":\"shutdown\"}").payload_json,
            "{\"routed\": 3, \"failovers\": 0, \"rejected\": 1}");

  // Stop serving through a connection, the way a drain is joined. The
  // client rides out the cap until the second connection is reaped.
  ClientOptions copts;
  copts.retries = 50;
  copts.backoff_base_ms = 5;
  copts.backoff_cap_ms = 50;
  EXPECT_EQ(Client(socket, copts).shutdown().type, "bye");
  serving.join();
  fs::remove_all(store_dir);
}

// ---------------------------------------------------------------------------
// Protocol additions the router rides on.

TEST(RouterProtocol, HexCodecRoundTripsAndRejectsGarbage) {
  // Split literal: "\x10az" would lex as one out-of-range escape.
  const std::string bytes = std::string("\x00\x7f\xff\x10" "az", 6);
  ASSERT_EQ(bytes[3], '\x10');
  EXPECT_EQ(serve::hex_encode(bytes), "007fff10617a");
  EXPECT_EQ(serve::hex_decode(serve::hex_encode(bytes)), bytes);
  EXPECT_EQ(serve::hex_encode(""), "");
  EXPECT_THROW(serve::hex_decode("abc"), ContractError);   // odd length
  EXPECT_THROW(serve::hex_decode("zz"), ContractError);    // non-hex
}

TEST(RouterProtocol, PutRoundTripsThroughServerStore) {
  // include_report hands back the byte-exact payload; a put of that
  // payload into a second daemon's store serves the fingerprint as a
  // store hit — the replication mechanism, exercised daemon-to-daemon.
  ServerOptions aopts;
  aopts.store_dir = fresh_dir("put_src");
  Server a(aopts);
  Request eval = tiny_eval("src");
  eval.include_report = true;
  const Response got = a.handle(serve::format_request(eval));
  ASSERT_EQ(got.status, "ok") << got.error;
  ASSERT_FALSE(got.report_hex.empty());

  ServerOptions bopts;
  bopts.store_dir = fresh_dir("put_dst");
  Server b(bopts);
  Request put;
  put.type = "put";
  put.id = "copy";
  put.fingerprint = got.fingerprint;
  put.report_hex = got.report_hex;
  const Response accepted = b.handle(serve::format_request(put));
  ASSERT_EQ(accepted.status, "ok") << accepted.error;
  EXPECT_EQ(accepted.type, "put");
  EXPECT_EQ(accepted.source, "replicated");

  Request replay = tiny_eval("replay");
  const Response hit = b.handle(serve::format_request(replay));
  ASSERT_EQ(hit.status, "ok") << hit.error;
  EXPECT_EQ(hit.source, "store");
  EXPECT_EQ(hit.fingerprint, got.fingerprint);
  EXPECT_EQ(hit.cycles, got.cycles);

  EXPECT_EQ(payload(b, "status").get_number("puts", -1), 1);
  fs::remove_all(aopts.store_dir);
  fs::remove_all(bopts.store_dir);
}

TEST(RouterProtocol, PutWithoutAStoreIsAnExplicitError) {
  Server storeless;  // no store_dir
  Request put;
  put.type = "put";
  put.fingerprint = 0x1234;
  put.report_hex = "00";
  const Response resp = storeless.handle(serve::format_request(put));
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("store"), std::string::npos);
}

}  // namespace
}  // namespace sparsetrain
