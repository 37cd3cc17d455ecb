#!/usr/bin/env python3
"""End-to-end serving scenarios over the real daemon binaries.

Each scenario starts sparsetrain_serve / sparsetrain_route processes in a
fresh temporary directory (stores, unix sockets, trace logs and daemon
stderr all live there, so reruns and parallel runs never collide), talks
NDJSON to them, and exits nonzero listing every failed gate:

  serve_stdio  one --stdio session: the first eval is computed, the repeat
               is a store hit with an equal fingerprint, a malformed line
               gets an error payload, the final bye carries the shutdown
               request's id, and the daemon exits 0.
  serve_tcp    the same exchange over TCP on 127.0.0.1:0, the port read
               back from the daemon's "listening on" line.
  chaos        three shards behind the router; the busiest shard is
               SIGKILLed mid-burst: zero requests fail and the dead shard
               answers nothing; once restarted, the prober rejoins it
               within 30 s and it serves again; every process exits 0 on
               shutdown / SIGTERM.
  obs          two traced shards behind a traced router: the metrics
               schema is sparsetrain.metrics/v1 and its eval latency count
               equals the evals sent, the router's stats and each shard's
               status equal the matching counters of their metrics
               snapshots, every traced eval has one connected span chain
               across the three logs, status carries pid, uptime_s and
               schemas, and a tracing-off rerun answers byte-identical
               eval lines once elapsed_ms is stripped.

Usage: serve_scenarios.py --serve PATH --route PATH SCENARIO
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

STARTUP_S = 30     # a daemon must print "listening on" within this
EXIT_S = 30        # ... and exit within this once told to stop
ANSWER_S = 120     # per-response socket timeout


class GateError(Exception):
    """A failure that ends the scenario early."""


class Scenario:
    """One run's temp directory, its processes, and its failed gates."""

    def __init__(self, serve, route):
        self.serve, self.route = serve, route
        # AF_UNIX caps socket paths at 107 bytes: short names, short dir.
        self.dir = tempfile.mkdtemp(prefix="st")
        self.procs = []
        self.failures = []

    def path(self, name):
        return os.path.join(self.dir, name)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def start(self, name, argv):
        """Starts a daemon, waits for its "listening on" line, and
        returns (process, endpoint)."""
        log = self.path(name + ".log")
        with open(log, "w") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                    stderr=err)
        self.procs.append((name, proc))
        deadline = time.time() + STARTUP_S
        while time.time() < deadline:
            with open(log) as f:
                m = re.search(r"^listening on (\S+)$", f.read(), re.M)
            if m:
                return proc, m.group(1)
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        raise GateError(f"{name} never came up; its stderr:\n"
                        + open(log).read())

    def shard(self, name, sock, store, *extra):
        return self.start(name, [self.serve, "--listen", self.path(sock),
                                 "--store", self.path(store), *extra])

    def router(self, name, shards, *extra):
        return self.start(name, [self.route,
                                 "--listen", self.path(name + ".sock"),
                                 "--shards", ",".join(shards),
                                 "--replicas", "1",
                                 "--forward-deadline-ms", "30000",
                                 "--probe-interval-ms", "200", *extra])

    def expect_exit(self, name, proc, sig=None):
        """Optionally signals `proc`, then gates on a clean exit."""
        if sig is not None:
            proc.send_signal(sig)
        try:
            code = proc.wait(timeout=EXIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        self.check(code == 0, f"{name} exited {code}")

    def finish(self, label):
        # Nothing outlives the scenario, whichever gate failed.
        for _, proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if self.failures:
            print(f"{label} FAILED (work dir kept: {self.dir})")
            print("\n".join(self.failures))
            return 1
        shutil.rmtree(self.dir, ignore_errors=True)
        print(f"{label} OK")
        return 0


class Conn:
    """One NDJSON connection to an endpoint in parse_endpoint grammar."""

    def __init__(self, endpoint):
        if endpoint.startswith("unix:"):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(ANSWER_S)
            sock.connect(endpoint[len("unix:"):])
        else:
            host, port = endpoint.rsplit(":", 1)
            sock = socket.create_connection((host, int(port)),
                                            timeout=ANSWER_S)
        self.f = sock.makefile("rw", encoding="utf-8", newline="\n")

    def ask_raw(self, line):
        self.f.write(line + "\n")
        self.f.flush()
        return self.f.readline().rstrip("\n")

    def ask(self, request):
        line = request if isinstance(request, str) else json.dumps(request)
        return json.loads(self.ask_raw(line))


def pruned_grid(n_p, densities):
    """DSE-grid-like traffic: each point is a distinct store fingerprint,
    spread across the ring."""
    return [{"type": "eval", "workload": "tiny", "scenario": "pruned",
             "p": round(0.50 + 0.05 * i, 2), "act_density": act}
            for i in range(n_p) for act in densities]


EVAL = {"type": "eval", "workload": "AlexNet/CIFAR"}


def check_round_trip(s, a, b, bad, bye):
    s.check(a.get("source") == "computed", f"first eval not computed: {a}")
    s.check(b.get("source") == "store", f"repeat eval not from store: {b}")
    s.check(a.get("fingerprint") is not None
            and b.get("fingerprint") == a.get("fingerprint"),
            f"fingerprints diverged across the repeat: {a} / {b}")
    s.check(bad.get("status") == "error" and bad.get("error"),
            f"malformed line got no error payload: {bad}")
    s.check(bye.get("type") == "bye" and bye.get("id") == "z",
            f"no final bye for the shutdown request: {bye}")


def serve_stdio(s):
    lines = [json.dumps(dict(EVAL, id="a")), json.dumps(dict(EVAL, id="b")),
             "this line is not json", '{"type":"stats","id":"s"}',
             '{"type":"shutdown","id":"z"}']
    # stdio answers in order, so the first eval publishes to the store
    # before the repeat is read.
    out = subprocess.run(
        [s.serve, "--stdio", "--store", s.path("store")],
        input="\n".join(lines) + "\n", capture_output=True, text=True,
        timeout=ANSWER_S)
    s.check(out.returncode == 0, f"daemon exited {out.returncode}: "
                                 f"{out.stderr}")
    responses = [json.loads(x) for x in out.stdout.splitlines() if x]
    by_id = {r.get("id", ""): r for r in responses}
    errors = [r for r in responses if r.get("status") == "error"]
    check_round_trip(s, by_id.get("a", {}), by_id.get("b", {}),
                     errors[0] if errors else {},
                     responses[-1] if responses else {})


def serve_tcp(s):
    daemon, endpoint = s.start("serve", [
        s.serve, "--listen", "127.0.0.1:0", "--store", s.path("store")])
    s.check(not endpoint.endswith(":0"),
            f"listening line did not resolve the port: {endpoint}")
    c = Conn(endpoint)
    a = c.ask(dict(EVAL, id="a"))
    b = c.ask(dict(EVAL, id="b"))
    bad = c.ask("this line is not json")
    bye = c.ask('{"type":"shutdown","id":"z"}')
    check_round_trip(s, a, b, bad, bye)
    s.expect_exit("serve", daemon)


def chaos(s):
    socks = [f"s{i}.sock" for i in range(3)]
    shards = [s.shard(f"shard{i}", socks[i], f"store{i}")[0]
              for i in range(3)]
    eps = [s.path(sock) for sock in socks]
    router, endpoint = s.router("r", eps, "--breaker-threshold", "2",
                                "--breaker-cooldown-ms", "500",
                                "--connect-timeout-ms", "300")
    c = Conn(endpoint)
    grid = pruned_grid(9, (0.35, 0.45, 0.55))

    def burst(tag, points):
        served_by = {}
        for n, req in enumerate(points):
            resp = c.ask(dict(req, id=f"{tag}{n}"))
            s.check(resp.get("status") == "ok",
                    f"{tag}: request {req} failed: {resp}")
            shard = resp.get("shard")
            served_by[shard] = served_by.get(shard, 0) + 1
        return served_by

    before = burst("warm", grid)  # warms every store and its replicas
    # SIGKILL the shard that served the most, mid-burst: half the grid
    # runs against the two survivors.
    victim_ep = max(before, key=before.get)
    victim = eps.index(victim_ep)
    half = len(grid) // 2
    burst("pre", grid[:half])
    shards[victim].kill()
    shards[victim].wait()
    during = burst("post", grid[half:])
    s.check(victim_ep not in during,
            f"dead shard {victim_ep} answered: {during}")

    # Restart it: the prober must rejoin it with no router restart and no
    # client traffic.
    shards[victim] = s.shard(f"shard{victim}-again", socks[victim],
                             f"store{victim}")[0]
    deadline = time.time() + 30
    rejoined = False
    while time.time() < deadline and not rejoined:
        stats = c.ask('{"type":"stats","id":"s"}')
        rejoined = any(sh.get("endpoint") == victim_ep
                       and sh.get("health") == "up"
                       for sh in stats.get("payload", {}).get("shards", []))
        time.sleep(0.2)
    s.check(rejoined, f"restarted shard {victim_ep} never rejoined")
    after = burst("again", grid)
    s.check(after.get(victim_ep, 0) > 0,
            f"restarted shard {victim_ep} served nothing: {after}")

    bye = c.ask('{"type":"shutdown","id":"z"}')
    s.check(bye.get("type") == "bye", f"no bye from the router: {bye}")
    s.expect_exit("router", router)
    for i, shard in enumerate(shards):
        s.expect_exit(f"shard {i} (SIGTERM)", shard, signal.SIGTERM)


def counter(metrics, name, **labels):
    """A counter's value in a sparsetrain.metrics/v1 snapshot (None when
    the snapshot has no such instrument)."""
    for m in metrics.get("metrics", []):
        if m.get("name") == name and m.get("labels") == labels:
            return m.get("value")
    return None


def check_router_stats(s, tag, stats, metrics):
    """The router's stats payload reads the counters its metrics snapshot
    renders."""
    for field in ("routed", "failovers"):
        want = counter(metrics, f"router_{field}_total")
        s.check(stats.get(field) == want,
                f"{tag}: router stats {field} {stats.get(field)} != "
                f"router_{field}_total {want}")
    shards = stats.get("shards", [])
    s.check(len(shards) == 2, f"{tag}: router stats shards: {shards}")
    for sh in shards:
        ep = sh.get("endpoint")
        for field in ("forwards", "served", "replications"):
            want = counter(metrics, f"router_shard_{field}_total", shard=ep)
            s.check(sh.get(field) == want,
                    f"{tag}: router stats {ep} {field} {sh.get(field)} != "
                    f"router_shard_{field}_total {want}")


def check_shard_status(s, tag, endpoint):
    """A shard's status payload reads the counters its metrics snapshot
    renders."""
    c = Conn(endpoint)
    status = c.ask('{"type":"status","id":"st"}').get("payload", {})
    metrics = c.ask('{"type":"metrics","id":"m"}').get("payload", {})
    for field, want in (
            ("completed", counter(metrics, "server_evals_completed_total")),
            ("computed", counter(metrics, "server_evals_total",
                                 source="computed")),
            ("store_hits", counter(metrics, "server_evals_total",
                                   source="store"))):
        s.check(status.get(field) == want,
                f"{tag}: shard {endpoint} status {field} "
                f"{status.get(field)} != its metrics {want}")


def obs_burst(s, tag, traced):
    """2 shards + router, one eval burst; returns (eval lines, metrics
    payload). Both runs use the same socket paths, so shard placement
    and the "shard" field agree."""
    socks = ["s0.sock", "s1.sock"]

    def trace(name):
        if not traced:
            return []
        return ["--trace", s.path(f"{tag}_{name}.jsonl"),
                "--trace-sample-rate", "1.0"]

    started = [s.shard(f"{tag}_shard{i}", socks[i], f"{tag}_store{i}",
                       *trace(f"shard{i}")) for i in range(2)]
    shards = [proc for proc, _ in started]
    router, endpoint = s.router(f"{tag}_r", [s.path(x) for x in socks],
                                *trace("router"))
    c = Conn(endpoint)
    lines = []
    for n, req in enumerate(pruned_grid(6, (0.35, 0.55))):
        raw = c.ask_raw(json.dumps(dict(req, id=f"e{n}")))
        lines.append(raw)
        resp = json.loads(raw)
        s.check(resp.get("status") == "ok", f"{tag}: eval {n} failed: {raw}")
        s.check(resp.get("elapsed_ms", -1) >= 0,
                f"{tag}: eval {n} missing elapsed_ms: {raw}")
    stats = c.ask('{"type":"stats","id":"s"}')
    metrics = c.ask('{"type":"metrics","id":"m"}')
    s.check(metrics.get("status") == "ok", f"{tag}: metrics failed")
    check_router_stats(s, tag, stats.get("payload", {}),
                       metrics.get("payload", {}))
    for _, shard_ep in started:
        check_shard_status(s, tag, shard_ep)
    status = c.ask('{"type":"status","id":"st"}')
    for key in ("pid", "uptime_s", "schemas"):
        s.check(key in status.get("payload", {}),
                f"{tag}: status missing {key}: {status}")
    bye = c.ask('{"type":"shutdown","id":"z"}')
    s.check(bye.get("type") == "bye", f"{tag}: no bye: {bye}")
    s.expect_exit(f"{tag} router", router)
    for i, shard in enumerate(shards):
        s.expect_exit(f"{tag} shard {i} (SIGTERM)", shard, signal.SIGTERM)
    return lines, metrics.get("payload", {})


def check_span_chains(s, n_evals):
    by_trace = {}
    for name in ("router", "shard0", "shard1"):
        with open(s.path(f"on_{name}.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                by_trace.setdefault(span["trace"], []).append(span)
    eval_traces = [t for t, ss in by_trace.items()
                   if any(x["name"] == "router.request"
                          and x.get("attrs", {}).get("type") == "eval"
                          for x in ss)]
    s.check(len(eval_traces) == n_evals,
            f"{len(eval_traces)} eval traces for {n_evals} evals")
    need = {"router.request", "router.forward", "daemon.request",
            "daemon.queue", "store.lookup", "compile", "simulate",
            "store.publish"}
    for t in eval_traces:
        ss = by_trace[t]
        ids = {x["span"] for x in ss}
        s.check(len(ids) == len(ss), f"trace {t}: duplicate span ids")
        missing = need - {x["name"] for x in ss}
        s.check(not missing, f"trace {t}: missing spans {sorted(missing)}")
        roots = [x for x in ss if "parent" not in x]
        s.check(len(roots) == 1 and roots[0]["name"] == "router.request",
                f"trace {t}: bad roots {roots}")
        for x in ss:
            s.check("parent" not in x or x["parent"] in ids,
                    f"trace {t}: {x['name']} has unknown parent")
            s.check(x["dur_us"] >= 0, f"trace {t}: negative {x['name']}")


def obs(s):
    traced, metrics = obs_burst(s, "on", traced=True)
    s.check(metrics.get("schema") == "sparsetrain.metrics/v1",
            f"bad metrics schema: {metrics.get('schema')}")
    count = sum(int(m.get("count", 0)) for m in metrics.get("metrics", [])
                if m.get("name") == "router_request_seconds"
                and m.get("labels", {}).get("type") == "eval")
    s.check(count == len(traced),
            f"router_request_seconds eval count {count} != "
            f"{len(traced)} evals served")
    check_span_chains(s, len(traced))

    untraced, _ = obs_burst(s, "off", traced=False)
    strip = re.compile(r', "elapsed_ms": [^,}]+')
    for n, (a, b) in enumerate(zip(traced, untraced)):
        s.check(strip.sub("", a) == strip.sub("", b),
                f"eval {n} differs with tracing off:\n  {a}\n  {b}")


SCENARIOS = {"serve_stdio": serve_stdio, "serve_tcp": serve_tcp,
             "chaos": chaos, "obs": obs}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", required=True, help="sparsetrain_serve")
    parser.add_argument("--route", required=True, help="sparsetrain_route")
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    args = parser.parse_args()
    s = Scenario(args.serve, args.route)
    try:
        SCENARIOS[args.scenario](s)
    except Exception as e:  # any escape is a failed gate, not a crash
        s.failures.append(f"{type(e).__name__}: {e}")
    return s.finish(args.scenario)


if __name__ == "__main__":
    sys.exit(main())
