// Stream transport: endpoint-spec parsing, EINTR-safe syscall wrappers,
// NDJSON round trips over both AF_UNIX and TCP through serve_listener,
// per-connection idle timeouts, the connection cap's explicit rejection
// (counted by both daemons), the oversized-line defense, a shutdown
// requested before serving starts, and a listener stopped from another
// thread while the accept thread closes it.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/require.hpp"
#include "util/syscall.hpp"

namespace sparsetrain {
namespace {

using serve::Client;
using serve::ClientOptions;
using serve::Conn;
using serve::Endpoint;
using serve::Listener;
using serve::Request;
using serve::Response;
using serve::Router;
using serve::RouterOptions;
using serve::Server;
using serve::ServerOptions;

std::string fresh_socket(const std::string& name) {
  return ::testing::TempDir() + "sparsetrain_" + name + ".sock";
}

/// The server's "status" payload: the counters operators read.
serve::JsonValue status_of(Server& server) {
  return serve::parse_json(
      server.handle("{\"type\":\"status\"}").payload_json);
}

TEST(Endpoints, SpecParsing) {
  Endpoint ep = serve::parse_endpoint("127.0.0.1:7117");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7117);

  ep = serve::parse_endpoint("localhost:0");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 0);

  // Anything with a '/' is a unix path, even when it contains ':'.
  ep = serve::parse_endpoint("/tmp/with:colon.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(ep.path, "/tmp/with:colon.sock");

  // The unix: prefix forces a path unconditionally.
  ep = serve::parse_endpoint("unix:relative.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(ep.path, "relative.sock");

  // A non-numeric suffix is not a port — it's a (relative) path.
  ep = serve::parse_endpoint("some.file.name");
  EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);

  EXPECT_THROW(serve::parse_endpoint(""), ContractError);
  EXPECT_THROW(serve::parse_endpoint("host:99999"), ContractError);
}

TEST(Syscalls, RetryEintrRetriesOnlyEintr) {
  int calls = 0;
  const int r = util::retry_eintr([&]() -> int {
    ++calls;
    if (calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 42;
  });
  EXPECT_EQ(r, 42);
  EXPECT_EQ(calls, 3);

  calls = 0;
  const int e = util::retry_eintr([&]() -> int {
    ++calls;
    errno = EIO;
    return -1;
  });
  EXPECT_EQ(e, -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(calls, 1);  // a real failure is not retried
}

TEST(Transport, ListenFailureCarriesErrnoText) {
  try {
    Listener::listen("/this/dir/does/not/exist/x.sock");
    FAIL() << "listen should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("errno"), std::string::npos);
  }
}

/// Runs one daemon round trip against `spec`: eval twice (second one is
/// answered by coalescing/session replay), a malformed line, status, then
/// shutdown.
void round_trip(const std::string& spec) {
  Server server;
  Listener listener = Listener::listen(spec);
  const Endpoint bound = listener.endpoint();
  std::thread daemon([&]() { server.serve_listener(listener); });

  const std::string connect_spec =
      bound.kind == Endpoint::Kind::Tcp
          ? bound.host + ":" + std::to_string(bound.port)
          : bound.path;
  Client client(connect_spec);
  Request eval;
  eval.type = "eval";
  eval.workload = "tiny";

  const Response first = client.submit(eval);
  EXPECT_EQ(first.status, "ok") << first.error;
  EXPECT_EQ(first.source, "computed");
  const Response second = client.submit(eval);
  EXPECT_EQ(second.status, "ok") << second.error;
  EXPECT_GT(second.fingerprint, 0u);
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // A malformed line answers with an error, not a dropped connection.
  const Response bad = client.request("{\"type\":");
  EXPECT_EQ(bad.status, "error");

  // The payload rides inside the response line (parse_response does not
  // re-extract it), so assert on the raw line.
  const std::string status = client.request_raw("{\"type\":\"status\"}");
  EXPECT_NE(status.find("\"completed\": 2"), std::string::npos) << status;

  const Response bye = client.shutdown();
  EXPECT_EQ(bye.type, "bye");
  daemon.join();
}

TEST(Transport, UnixRoundTrip) { round_trip(fresh_socket("rt_unix")); }

TEST(Transport, TcpRoundTrip) { round_trip("127.0.0.1:0"); }

TEST(Transport, IdleConnectionsAreToldAndClosed) {
  ServerOptions opts;
  opts.idle_timeout_ms = 80;
  Server server(opts);
  Listener listener = Listener::listen(fresh_socket("idle"));
  std::thread daemon([&]() { server.serve_listener(listener); });

  std::string error;
  Conn conn = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(conn.valid()) << error;
  // Send nothing: the daemon must cut us loose instead of pinning a
  // thread on a silent connection forever.
  std::string line;
  ASSERT_EQ(conn.read_line(line, 5000), Conn::ReadStatus::Ok);
  const Response resp = serve::parse_response(line);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("idle timeout"), std::string::npos);
  EXPECT_EQ(conn.read_line(line, 5000), Conn::ReadStatus::Eof);
  conn.close();

  // The daemon itself is unharmed — a fresh connection still serves.
  Client client(listener.endpoint().path);
  EXPECT_EQ(client.shutdown().type, "bye");
  daemon.join();
  EXPECT_GE(status_of(server).get_number("idle_closed", -1), 1);
}

TEST(Transport, ConnectionCapRejectsExplicitly) {
  ServerOptions opts;
  opts.max_connections = 1;
  Server server(opts);
  Listener listener = Listener::listen(fresh_socket("cap"));
  std::thread daemon([&]() { server.serve_listener(listener); });

  // First connection occupies the only slot.
  std::string error;
  Conn first = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(first.valid()) << error;

  // Second gets an explicit "rejected: overloaded" line, then EOF — an
  // answer, not a hang.
  Conn second = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(second.valid()) << error;
  std::string line;
  ASSERT_EQ(second.read_line(line, 5000), Conn::ReadStatus::Ok);
  const Response rej = serve::parse_response(line);
  EXPECT_EQ(rej.status, "rejected");
  EXPECT_NE(rej.error.find("overloaded"), std::string::npos);
  EXPECT_EQ(second.read_line(line, 5000), Conn::ReadStatus::Eof);
  second.close();
  first.close();

  // Once the slot frees, new connections are admitted again. The client
  // retries "rejected" responses, so it rides out the reaping delay.
  ClientOptions copts;
  copts.retries = 50;
  copts.backoff_base_ms = 5;
  copts.backoff_cap_ms = 50;
  Client client(listener.endpoint().path, copts);
  EXPECT_EQ(client.shutdown().type, "bye");
  daemon.join();
  EXPECT_GE(status_of(server).get_number("overloaded", -1), 1);
}

TEST(Transport, RouterConnectionCapRejectsAndCounts) {
  RouterOptions opts;
  opts.endpoints = {fresh_socket("cap_shard")};  // never contacted
  opts.max_connections = 1;
  Router router(opts);
  Listener listener = Listener::listen(fresh_socket("router_cap"));
  std::thread serving([&]() { router.serve_listener(listener); });

  std::string error;
  Conn first = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(first.valid()) << error;
  Conn second = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(second.valid()) << error;
  std::string line;
  ASSERT_EQ(second.read_line(line, 5000), Conn::ReadStatus::Ok);
  const Response rej = serve::parse_response(line);
  EXPECT_EQ(rej.status, "rejected");
  EXPECT_NE(rej.error.find("overloaded"), std::string::npos);
  EXPECT_EQ(second.read_line(line, 5000), Conn::ReadStatus::Eof);
  second.close();
  first.close();

  ClientOptions copts;
  copts.retries = 50;
  copts.backoff_base_ms = 5;
  copts.backoff_cap_ms = 50;
  Client client(listener.endpoint().path, copts);
  EXPECT_EQ(client.shutdown().type, "bye");
  serving.join();
  // The refusal shows up in the router's metrics, as it does the
  // server's.
  EXPECT_GE(
      router.metrics().counter("router_connections_overloaded_total").value(),
      1u);
}

/// A shutdown requested before serve_listener publishes its listener —
/// a signal landing while the daemon binds — must still stop it. After
/// 5 s the test shuts the listener itself, so a daemon that missed the
/// request fails the test instead of hanging it.
template <typename D>
void expect_early_shutdown_honoured(D& daemon) {
  Listener listener = Listener::listen("127.0.0.1:0");
  daemon.request_shutdown();
  std::promise<int> served;
  std::future<int> rc = served.get_future();
  std::thread serving(
      [&]() { served.set_value(daemon.serve_listener(listener)); });
  const bool returned = rc.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  if (!returned) listener.shutdown();
  serving.join();
  EXPECT_TRUE(returned)
      << "serve_listener kept accepting after request_shutdown()";
  EXPECT_EQ(rc.get(), 0);
}

TEST(Transport, ServerHonoursShutdownRequestedBeforeServing) {
  Server server;
  expect_early_shutdown_honoured(server);
}

TEST(Transport, RouterHonoursShutdownRequestedBeforeServing) {
  RouterOptions opts;
  opts.endpoints = {fresh_socket("early_shard")};  // never contacted
  Router router(opts);
  expect_early_shutdown_honoured(router);
}

TEST(Transport, ListenerShutdownFromAnotherThreadStopsServing) {
  // Another thread stops a serving daemon through its listener, as
  // Daemon::request_shutdown does from a signal handler, while the accept
  // thread closes that listener on its way out. ThreadSanitizer checks
  // the descriptor's handoff between Listener::shutdown and close.
  Server server;
  Listener listener = Listener::listen(fresh_socket("kick"));
  std::thread serving([&]() { server.serve_listener(listener); });
  Client client(listener.endpoint().path);
  EXPECT_EQ(client.status().status, "ok");
  listener.shutdown();
  serving.join();
  EXPECT_FALSE(listener.valid());
}

TEST(Transport, OversizedLinesDropTheConnection) {
  ServerOptions opts;
  Server server(opts);
  Listener listener = Listener::listen(fresh_socket("oversize"));
  std::thread daemon([&]() { server.serve_listener(listener); });

  std::string error;
  Conn conn = serve::connect_endpoint(listener.endpoint(), &error);
  ASSERT_TRUE(conn.valid()) << error;
  // Stream past the per-line cap without ever sending a newline: the
  // daemon must drop us rather than buffer without bound. The write side
  // may fail midway once the daemon closes — that is the point.
  const std::string chunk(1 << 16, 'x');
  for (std::size_t sent = 0; sent <= Conn::kMaxLine + chunk.size();
       sent += chunk.size()) {
    if (!conn.write_all(chunk.data(), chunk.size())) break;
  }
  std::string line;
  const Conn::ReadStatus st = conn.read_line(line, 10000);
  EXPECT_NE(st, Conn::ReadStatus::Ok) << line;
  EXPECT_NE(st, Conn::ReadStatus::Timeout);
  conn.close();

  Client client(listener.endpoint().path);
  EXPECT_EQ(client.shutdown().type, "bye");
  daemon.join();
}

}  // namespace
}  // namespace sparsetrain
