#!/usr/bin/env python3
"""End-to-end benchmark of the NoPFS reproduction.

Builds the `perfbench` driver (and the library it links) from this checkout,
runs one workload for a fixed time and prints the driver's notes followed by
one JSON result line:

    python3 perfbench/run.py --workload threaded-pfs-bound --seed 1 \
        --seconds 40 --trace 0

Run it from the root of the checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  With
--trace 1 the per-layer metrics are printed instead of the end-to-end ones
and a Chrome trace of the last traced job is written next to the build.
The metric names and units must match BENCHMARK.json exactly (the driver
reports the per-layer metrics of a layer the workload leaves idle as
explicit zeros); any mismatch, build failure or timeout exits non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, log, timeout):
    """Runs a build step, appending its output to `log`; False on failure."""
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", jobs]]
    for step in steps:
        if not run_logged(step, log, BUILD_TIMEOUT_S):
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail("build failed: " + " ".join(step))
    binary = os.path.join(out_dir, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def run_driver(cmd):
    """Runs the driver in its own process group; returns its stdout lines."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with status %d" % proc.returncode)
    return stdout.splitlines()


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, "trace-%s.json" % args.workload)]
    lines = run_driver(cmd)
    if not lines:
        fail("driver printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    if result["correct"]:
        expected = spec["per_layer" if args.trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in expected}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, unit mismatch %s"
                 % (sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(n for n in set(want) & set(got) if want[n] != got[n])))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
