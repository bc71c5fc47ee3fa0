#!/usr/bin/env python3
"""Build O2's time-to-verdict benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The benchmark executable is built
with dune (release profile) into _perfbench/build; generated inputs, result
caches and trace files also go under _perfbench. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = "_perfbench"
PROFILE = "release"
EXE = os.path.join(OUT, "build", "default", "perfbench", "o2perf.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root: the O2 sources are missing")
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [
        "dune", "build", "--root", ".", "--profile", PROFILE,
        "--build-dir", os.path.join(ROOT, OUT, "build"), "--cache", "disabled",
        "--display", "quiet", "./perfbench/o2perf.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail(f"build failed (dune exit {r.returncode})")


def run(args):
    """Runs the benchmark executable; kills and reaps it on timeout or when
    this script is interrupted or terminated."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    except BaseException:
        p.kill()
        p.wait()
        raise
    sys.stderr.write(err)
    return subprocess.CompletedProcess(p.args, p.returncode, out, err)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    if a.self_test:
        r = run(["selftest"])
        sys.stdout.write(r.stdout)
        sys.exit(r.returncode)

    r = run(["run", "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--out", OUT, "--profile", PROFILE])
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"benchmark exited with code {r.returncode}", 1)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(r.stdout)
        fail("benchmark printed no result line", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}", 1)
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
