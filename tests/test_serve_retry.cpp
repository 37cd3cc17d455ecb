// Resilient client: exponential backoff with decorrelated jitter (bounds
// and growth), deadline enforcement, and the headline robustness claim —
// a daemon restart mid-burst loses zero requests, over AF_UNIX and TCP,
// because retries reconnect and evaluations are idempotent.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/require.hpp"

namespace sparsetrain {
namespace {

namespace fs = std::filesystem;

using serve::Client;
using serve::ClientOptions;
using serve::Endpoint;
using serve::Listener;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sparsetrain_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string fresh_socket(const std::string& name) {
  return ::testing::TempDir() + "sparsetrain_" + name + ".sock";
}

Request tiny_eval(const std::string& id) {
  Request r;
  r.type = "eval";
  r.id = id;
  r.workload = "tiny";
  return r;
}

TEST(ClientRetry, BackoffSleepsStayWithinBoundsAndGrow) {
  // Nobody listens here: every attempt fails, every retry sleeps.
  const std::string nowhere = fresh_socket("nobody");
  ClientOptions opts;
  opts.retries = 6;
  opts.backoff_base_ms = 20;
  opts.backoff_cap_ms = 300;
  std::vector<long> sleeps;
  opts.sleeper = [&sleeps](long ms) { sleeps.push_back(ms); };
  obs::Registry metrics;
  opts.metrics = &metrics;

  Client client(nowhere, opts);  // retries > 0: lazy, does not throw yet
  EXPECT_THROW(client.request_raw("{\"type\":\"status\"}"), ContractError);
  ASSERT_EQ(sleeps.size(), 6u);  // one sleep per retry
  long prev = opts.backoff_base_ms;
  for (const long s : sleeps) {
    EXPECT_GE(s, opts.backoff_base_ms);
    EXPECT_LE(s, opts.backoff_cap_ms);
    // Decorrelated jitter: each draw is from [base, 3 * previous].
    EXPECT_LE(s, std::max(opts.backoff_base_ms + 1, 3 * prev));
    prev = s;
  }
  const obs::Labels labels = {{"endpoint", nowhere}};
  EXPECT_EQ(metrics.counter("client_retries_total", labels).value(), 6u);
  EXPECT_EQ(metrics.counter("client_connects_total", labels).value(), 0u);
}

TEST(ClientRetry, BackoffIsDeterministicPerSeed) {
  const std::string nowhere = fresh_socket("nobody2");
  auto capture = [&](std::uint64_t seed) {
    ClientOptions opts;
    opts.retries = 5;
    opts.backoff_seed = seed;
    std::vector<long> sleeps;
    opts.sleeper = [&sleeps](long ms) { sleeps.push_back(ms); };
    Client client(nowhere, opts);
    EXPECT_THROW(client.request_raw("{\"type\":\"status\"}"),
                 ContractError);
    return sleeps;
  };
  EXPECT_EQ(capture(7), capture(7));
  EXPECT_NE(capture(7), capture(8));
}

TEST(ClientRetry, DeadlineBoundsTheWholeExchange) {
  const std::string nowhere = fresh_socket("nobody3");
  ClientOptions opts;
  opts.retries = 1000;  // the deadline must cut this short
  opts.backoff_base_ms = 30;
  opts.backoff_cap_ms = 60;
  opts.deadline_ms = 250;
  Client client(nowhere, opts);
  const auto start = std::chrono::steady_clock::now();
  try {
    client.request_raw("{\"type\":\"status\"}");
    FAIL() << "an unreachable endpoint must throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5000);  // gave up, did not grind 1000 retries
}

/// The headline scenario: a burst of requests with the daemon restarted
/// in the middle. With retries on, every request eventually succeeds —
/// the client reconnects, and evaluation idempotency (store + coalescing
/// keyed by fingerprint) makes the repeat safe.
void restart_mid_burst(const std::string& spec) {
  const std::string store_dir = fresh_dir("retry_store");

  ServerOptions sopts;
  sopts.store_dir = store_dir;

  Server daemon_a(sopts);
  Listener listener_a = Listener::listen(spec);
  const Endpoint bound = listener_a.endpoint();
  const std::string connect_spec =
      bound.kind == Endpoint::Kind::Tcp
          ? bound.host + ":" + std::to_string(bound.port)
          : bound.path;
  std::thread thread_a([&]() { daemon_a.serve_listener(listener_a); });

  ClientOptions copts;
  copts.retries = 30;
  copts.backoff_base_ms = 10;
  copts.backoff_cap_ms = 100;
  obs::Registry metrics;
  copts.metrics = &metrics;
  Client client(connect_spec, copts);

  std::vector<Response> responses;
  for (int i = 0; i < 3; ++i) {
    responses.push_back(client.submit(tiny_eval("a" + std::to_string(i))));
  }

  // Restart: daemon A drains and exits; daemon B comes up on the SAME
  // endpoint a beat later (SO_REUSEADDR makes the TCP rebind immediate).
  EXPECT_EQ(client.shutdown().type, "bye");
  thread_a.join();

  Server daemon_b(sopts);
  std::thread thread_b;
  std::thread delayed_start([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    Listener listener_b = Listener::listen(connect_spec);
    std::thread t([&daemon_b, lb = std::move(listener_b)]() mutable {
      daemon_b.serve_listener(lb);
    });
    thread_b.swap(t);
  });

  // The burst continues against a dead endpoint: these requests must ride
  // the backoff until B is up, then succeed. Zero requests lost.
  for (int i = 0; i < 3; ++i) {
    responses.push_back(client.submit(tiny_eval("b" + std::to_string(i))));
  }
  delayed_start.join();

  ASSERT_EQ(responses.size(), 6u);
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, "ok") << r.error;
    EXPECT_EQ(r.fingerprint, responses.front().fingerprint);
  }
  // The client really did reconnect (daemon A's shutdown kicked it), and
  // daemon B served the repeat fingerprint from the shared store.
  EXPECT_GE(metrics
                .counter("client_reconnects_total",
                         {{"endpoint", connect_spec}})
                .value(),
            1u);
  bool any_from_store = false;
  for (std::size_t i = 3; i < responses.size(); ++i) {
    any_from_store = any_from_store || responses[i].source == "store";
  }
  EXPECT_TRUE(any_from_store);

  EXPECT_EQ(client.shutdown().type, "bye");
  thread_b.join();
  fs::remove_all(store_dir);
}

TEST(ClientRetry, DaemonRestartMidBurstLosesNothingUnix) {
  restart_mid_burst(fresh_socket("restart_unix"));
}

TEST(ClientRetry, DaemonRestartMidBurstLosesNothingTcp) {
  restart_mid_burst("127.0.0.1:0");
}

}  // namespace
}  // namespace sparsetrain
