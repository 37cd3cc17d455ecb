// The evaluation daemon + its CLI client.
//
// Daemon (NDJSON over stdin/stdout, a unix socket, or TCP):
//   sparsetrain_serve --stdio --store serve_store
//   sparsetrain_serve --listen /tmp/sparsetrain.sock --store serve_store
//   sparsetrain_serve --listen 127.0.0.1:7117 --store serve_store
//
// --listen prints "listening on <endpoint>" to stderr once bound (with
// the resolved port for "host:0"). --stdio answers its lines one at a
// time, in order. SIGTERM/SIGINT take the graceful drain path in every
// mode, as a "shutdown" request does.
//
// Client (one request per invocation, response line on stdout; each
// command is one line, wrapped here):
//   sparsetrain_serve --connect /tmp/sparsetrain.sock
//       --submit '{"type":"eval","id":"r1","workload":"AlexNet/CIFAR"}'
//   sparsetrain_serve --connect 127.0.0.1:7117 --stats --retries 5
//   sparsetrain_serve --connect /tmp/sparsetrain.sock --shutdown
//
// --connect takes the same endpoint spec as --listen: "host:port" is TCP,
// anything else a unix-socket path. --retries/--deadline-ms make the
// client ride out a daemon restart: failed exchanges are retried with
// exponential backoff and jitter, which is safe because evaluations are
// idempotent (the daemon coalesces by store fingerprint).
//
// The store directory is shared: every daemon (and every bench driver
// run with --store) pointing at the same directory reuses each other's
// evaluations.
#include <cstddef>
#include <iostream>
#include <string>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"

namespace {

using sparsetrain::Args;

const std::vector<Args::Flag> kFlags = sparsetrain::serve::with_daemon_flags({
    // daemon mode
    {"stdio", "serve NDJSON over stdin/stdout (default mode)", false},
    {"listen",
     "serve on this endpoint (host:port for TCP, else a unix-socket path)",
     true},
    {"store", "persistent result-store directory", true},
    {"max-store-bytes", "store size cap (0 = unbounded)", true},
    {"workers",
     "worker threads, the daemon's one pool (0 = hardware concurrency)",
     true},
    {"max-queue", "max in-flight evaluations before rejecting", true},
    {"timeout-ms", "default per-request timeout (0 = none)", true},
    {"seed", "session base seed", true},
    {"batch", "session default batch size", true},
    {"profile-engine",
     "record per-stage exact-engine profiles into the metrics registry",
     false},
    // client mode
    {"connect",
     "act as a client of the daemon at this endpoint (host:port or path)",
     true},
    {"submit",
     "client: send this request (a JSON line, or a bare workload name)",
     true},
    {"stats", "client: request the store/cache stats report", false},
    {"status", "client: request the liveness counters", false},
    {"metrics", "client: request the metrics registry snapshot", false},
    {"metrics-format",
     "client: metrics snapshot format, json (default) or prometheus", true},
    {"shutdown", "client: ask the daemon to drain and exit", false},
    {"retries", "client: retry failed exchanges this many times", true},
    {"deadline-ms",
     "client: overall per-request budget incl. retries (0 = none)", true},
    {"connect-timeout-ms",
     "client: per-attempt TCP/unix connect budget (0 = blocking)", true},
});

int run_client(const Args& args) {
  sparsetrain::serve::ClientOptions copts;
  copts.retries = static_cast<int>(args.get("retries", 0L));
  copts.deadline_ms = args.get("deadline-ms", 0L);
  copts.connect_timeout_ms = args.get("connect-timeout-ms", 0L);
  sparsetrain::serve::Client client(args.get("connect", std::string{}),
                                    copts);
  bool did = false;
  if (args.has("submit")) {
    std::string line = args.get("submit", std::string{});
    if (line.empty() || line[0] != '{') {
      // Bare workload name → a default eval request for it.
      sparsetrain::serve::Request req;
      req.type = "eval";
      req.workload = line;
      line = sparsetrain::serve::format_request(req);
    }
    std::cout << client.request_raw(line) << '\n';
    did = true;
  }
  if (args.has("stats")) {
    std::cout << client.request_raw("{\"type\":\"stats\"}") << '\n';
    did = true;
  }
  if (args.has("status")) {
    std::cout << client.request_raw("{\"type\":\"status\"}") << '\n';
    did = true;
  }
  if (args.has("metrics")) {
    sparsetrain::serve::Request req;
    req.type = "metrics";
    req.format = args.get("metrics-format", std::string{"json"});
    std::cout << client.request_raw(sparsetrain::serve::format_request(req))
              << '\n';
    did = true;
  }
  if (args.has("shutdown")) {
    std::cout << client.request_raw("{\"type\":\"shutdown\"}") << '\n';
    did = true;
  }
  if (!did) {
    std::cerr << "sparsetrain_serve: --connect needs one of --submit/"
                 "--stats/--status/--metrics/--shutdown\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, kFlags);
    if (args.help_requested()) {
      std::cout << args.usage("sparsetrain_serve");
      return 0;
    }
    if (args.has("connect")) return run_client(args);

    sparsetrain::serve::ServerOptions opts;
    sparsetrain::serve::read_daemon_flags(args, opts);
    opts.store_dir = args.get("store", std::string{});
    opts.store_max_bytes = static_cast<std::uint64_t>(
        args.get("max-store-bytes", 0L));
    opts.session.workers =
        static_cast<std::size_t>(args.get("workers", 0L));
    opts.session.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
    opts.session.batch =
        static_cast<std::size_t>(args.get("batch", 1L));
    opts.max_queue = static_cast<std::size_t>(args.get("max-queue", 64L));
    opts.default_timeout_ms = args.get("timeout-ms", 0L);
    opts.session.profile_engine = args.has("profile-engine");

    sparsetrain::serve::Server server(opts);
    if (args.has("listen")) {
      return sparsetrain::serve::run_daemon(
          server, args.get("listen", std::string{}));
    }
    const sparsetrain::serve::ShutdownSignals signals(server);
    server.serve_stream(std::cin, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sparsetrain_serve: " << e.what() << '\n';
    return 1;
  }
}
