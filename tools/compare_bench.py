#!/usr/bin/env python3
"""Bench-regression gate: diff a BENCH_micro.json against the committed
baseline and fail on throughput regressions.

Usage:
    tools/compare_bench.py bench/BENCH_baseline.json BENCH_micro.json \
        [--tolerance 0.30]

Key classification (schema 2: a flat ``results`` map of
``<scenario>.<metric>`` produced by ``bench_micro_core --json``):

* GATED — throughput keys (``*_per_s``, ``*_mbps``): higher is better and,
  while absolute values shift with runner hardware, a >30% drop against a
  baseline recorded on the same runner class is a real regression.  The
  job fails if ``current < baseline * (1 - tolerance)``.  This covers both
  contention-protocol keys: ``socket-loopback.pfs_cycles_per_s`` (the
  unary acquire/release round trip, flush interval 0) and
  ``socket-loopback.pfs_gossip_transitions_per_s`` (the batched gossip
  queue: reader-thread enqueue rate with the sends off-thread) — a
  regression in either means the contention path got slower.  The fetch
  keys are measured at the epoll-reactor transport's operating points:
  ``socket-loopback.fetch_4k_per_s`` is 8 concurrent caller threads
  sharing one reactor connection (blocking fetch_sample, as loader
  threads do), ``socket-loopback.fetch_4k_pipelined_epoll_per_s`` is a
  single caller keeping 64 kFetch requests in flight through the ticket
  API (fetch_sample_start/fetch_sample_finish) — the request train the
  reactor's scatter/gather send path is built for — and
  ``socket-loopback.fetch_1m_*`` stays a serial large-payload stream.
  ``reactor.posts_per_s`` is the reactor's cross-thread task-injection
  rate (eventfd wake + FIFO queue handoff).
  ``micro-critpath.critpath_edges_per_s`` is the critical-path engine's
  walk rate: attribute() passes (recorded + two what-if cost models)
  over the recorded micro-critpath dependence graph, edges visited per
  second with the CSR warm — a regression means what-if sweeps got
  slower per cell.
* ADVISORY — wall-clock and speedup keys: on 1-core CI runners the sweep
  parallel/serial ratio is ~1 and wall-clock jitter dominates, so these are
  printed but never fail the job.

Keys present in only one file are reported (a removed key breaks the
trajectory and fails; a new key is advisory until the baseline is
refreshed).  When ``meta.hardware_threads`` differs between the two files
the script WARNS (but does not fail): the runs come from different runner
classes and the gated comparison is unreliable in both directions.

Baseline refresh (one line, run on the CI runner class you gate on —
locally that is simply):

    ./build/bench_micro_core --json bench/BENCH_baseline.json

or download the ``BENCH_micro`` artifact from a green main run and commit
it as ``bench/BENCH_baseline.json``.

Tolerance: ``--tolerance`` or the ``NOPFS_BENCH_TOLERANCE`` env var
(fraction, default 0.30).
"""

import argparse
import json
import os
import sys

GATED_SUFFIXES = ("_per_s", "_mbps")


def load_doc(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "results" not in doc:
        raise SystemExit(f"{path}: not a schema-2 BENCH json (no 'results' map)")
    results = doc["results"]
    if not isinstance(results, dict) or not results:
        raise SystemExit(f"{path}: empty 'results' map")
    return doc


def load_results(path):
    return {k: float(v) for k, v in load_doc(path)["results"].items()}


def warn_hardware_mismatch(baseline_path, current_path):
    """Warn (never fail) when the two runs saw different hardware-thread
    counts: absolute throughput is runner-class dependent, so a comparison
    across classes is noisy in BOTH directions — a 'pass' is as suspect as
    a 'regression', and the right fix is refreshing the baseline on the
    gating runner class, not widening the tolerance."""
    meta_b = load_doc(baseline_path).get("meta", {})
    meta_c = load_doc(current_path).get("meta", {})
    threads_b = meta_b.get("hardware_threads")
    threads_c = meta_c.get("hardware_threads")
    if threads_b is None or threads_c is None:
        return
    if threads_b != threads_c:
        print(
            f"WARNING: hardware_threads differ (baseline {threads_b}, "
            f"current {threads_c}) — runs come from different runner "
            "classes; gated comparisons below are unreliable in both "
            "directions.  Refresh the baseline on the gating runner class.",
            file=sys.stderr,
        )


def is_gated(key):
    return key.endswith(GATED_SUFFIXES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("NOPFS_BENCH_TOLERANCE", "0.30")),
        help="allowed fractional drop on gated keys (default 0.30)",
    )
    args = parser.parse_args()

    baseline = load_results(args.baseline)
    current = load_results(args.current)
    warn_hardware_mismatch(args.baseline, args.current)

    failures = []
    width = max(len(k) for k in sorted(set(baseline) | set(current)))
    print(f"{'key':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>7}  verdict")
    for key in sorted(set(baseline) | set(current)):
        gated = is_gated(key)
        if key not in current:
            verdict = "MISSING (fails)" if gated else "missing (advisory)"
            print(f"{key:<{width}}  {baseline[key]:>12.4g}  {'-':>12}  {'-':>7}  {verdict}")
            if gated:
                failures.append(f"{key}: present in baseline but not in current run")
            continue
        if key not in baseline:
            print(
                f"{key:<{width}}  {'-':>12}  {current[key]:>12.4g}  {'-':>7}  "
                "new key (advisory; refresh baseline)"
            )
            continue
        base, cur = baseline[key], current[key]
        ratio = cur / base if base > 0 else float("inf")
        if not gated:
            verdict = "advisory"
        elif base <= 0:
            verdict = "skip (zero baseline)"
        elif cur < base * (1.0 - args.tolerance):
            verdict = f"REGRESSION (> {args.tolerance:.0%} drop)"
            failures.append(f"{key}: {base:.4g} -> {cur:.4g} ({ratio:.2f}x)")
        else:
            verdict = "ok"
        print(f"{key:<{width}}  {base:>12.4g}  {cur:>12.4g}  {ratio:>7.2f}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} gated key(s) regressed beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(
            "\nIf this is an accepted trade-off or a runner-class change, refresh "
            "the baseline:\n  ./build/bench_micro_core --json bench/BENCH_baseline.json",
            file=sys.stderr,
        )
        return 1
    print("\nOK: no gated key regressed beyond the tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
