// The shard-router daemon: fronts a pool of sparsetrain_serve daemons
// with consistent-hash placement, circuit-breaker failover, and
// best-effort replication (see src/serve/router.hpp). One command line,
// wrapped here:
//
//   sparsetrain_route --listen 127.0.0.1:7100
//       --shards 127.0.0.1:7117,127.0.0.1:7118,127.0.0.1:7119
//       --replicas 1 --probe-interval-ms 500
//
// Clients speak the exact sparsetrain_serve NDJSON protocol to the
// router's endpoint; "stats" answers the router_stats/v1 payload
// (per-shard health and forward/failover/replication counters) and
// "shutdown" stops the router only — the shards keep running.
// SIGTERM/SIGINT drain the same way and print the final "bye" line to
// stderr. Once bound, the router prints "listening on <endpoint>" to
// stderr (with the resolved port for "host:0").
#include <cstddef>
#include <iostream>
#include <string>

#include "serve/router.hpp"
#include "util/args.hpp"

namespace {

using sparsetrain::Args;

const std::vector<Args::Flag> kFlags = sparsetrain::serve::with_daemon_flags({
    {"listen",
     "serve on this endpoint (host:port for TCP, else a unix-socket path)",
     true},
    {"shards",
     "comma-separated backend endpoints (the pool; order-insensitive)",
     true},
    {"replicas",
     "successor shards each ok evaluation is replicated to", true},
    {"breaker-threshold",
     "consecutive transport failures that mark a shard down", true},
    {"breaker-cooldown-ms",
     "how long a down shard is skipped before a half-open probe", true},
    {"forward-deadline-ms",
     "per-shard forward budget incl. the response wait", true},
    {"connect-timeout-ms", "per-attempt connect budget to a shard", true},
    {"probe-interval-ms",
     "background health-probe period for down shards (0 = off)", true},
    {"probe-deadline-ms", "per-probe budget", true},
});

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, kFlags);
    if (args.help_requested()) {
      std::cout << args.usage("sparsetrain_route");
      return 0;
    }
    const std::string listen = args.get("listen", std::string{});
    const std::string shards = args.get("shards", std::string{});
    if (listen.empty() || shards.empty()) {
      std::cerr << "sparsetrain_route: --listen and --shards are required\n";
      return 1;
    }

    sparsetrain::serve::RouterOptions opts;
    sparsetrain::serve::read_daemon_flags(args, opts);
    opts.endpoints = sparsetrain::serve::split_endpoints(shards);
    opts.replicas = static_cast<std::size_t>(args.get("replicas", 1L));
    opts.breaker_threshold =
        static_cast<int>(args.get("breaker-threshold", 3L));
    opts.breaker_cooldown_ms = args.get("breaker-cooldown-ms", 1000L);
    opts.client.deadline_ms = args.get("forward-deadline-ms", 5000L);
    opts.client.connect_timeout_ms = args.get("connect-timeout-ms", 500L);
    opts.probe_interval_ms = args.get("probe-interval-ms", 500L);
    opts.probe_deadline_ms = args.get("probe-deadline-ms", 250L);

    sparsetrain::serve::Router router(opts);
    return sparsetrain::serve::run_daemon(router, listen);
  } catch (const std::exception& e) {
    std::cerr << "sparsetrain_route: " << e.what() << '\n';
    return 1;
  }
}
