#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a source tree. The build goes to .bench_build/e2ebench
(Release, sanitizers forced off); details, Chrome traces and per-run scratch
go to .bench_out/. The last line of stdout is the result JSON printed by
stbench; build output goes to stderr. See e2ebench/README.md.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("serve_mix", "exact_program", "dse_grid")
TARGETS = ("stbench", "stbench_selftest", "sparsetrain_serve",
           "sparsetrain_route")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def call(cmd):
    # Build chatter goes to stderr: stdout carries only the result line.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(cmd))


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent invocations share one build tree; serialise the builds.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            call(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"])
        call(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS])
    # Flush the build's dirty pages now, so their writeback does not
    # compete with the result stores' fsyncs while serve_mix measures.
    os.sync()


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "cmake", "src", "tools", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own self-tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required (or --self-test)")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sparsetrain source tree around " + HERE)

    build()
    os.makedirs(OUT, exist_ok=True)
    golden = os.path.join(HERE, "goldens.txt")
    if args.self_test:
        os.execv(os.path.join(BUILD, "stbench_selftest"),
                 ["stbench_selftest", golden, OUT])
    # Replace this process so signals reach stbench, which reaps the
    # daemons it starts.
    os.execv(os.path.join(BUILD, "stbench"), [
        "stbench", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tools", os.path.join(BUILD, "tools"), "--golden", golden,
        "--out", OUT, "--commit", revision()])


if __name__ == "__main__":
    main()
