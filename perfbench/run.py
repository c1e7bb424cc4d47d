#!/usr/bin/env python3
"""Benchmark runner for the FPVA workspace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Builds the `perfbench` Rust package (into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs one workload in its own process, checks that the
deterministic counters repeat exactly across runs of the same source tree,
and prints one JSON result as the last line of standard output. The metric
names and units come from `BENCHMARK.json`: with `--trace 0` every
end-to-end metric, with `--trace 1` every per-layer metric.

`--workload all` runs every workload untraced and prints one row per
workload with the metrics named in the benchmark's README.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench")
# A run must end within 180 s of its start, or 900 s when it builds from
# cold; leave room for the result handling.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170

# Workloads whose inputs depend on --seed; their counters are compared
# only between runs with the same seed.
SEEDED = {"campaign"}

# The metrics the README's one-command table shows, with their units.
TABLE = [
    ("setup_s", "s"), ("plan_s", "s"), ("audit_s", "s"), ("vectors", "count"),
    ("untestable_faults", "count"), ("trials_per_s", "trials/s"), ("pairs_per_s", "pairs/s"),
    ("cover_s", "s"), ("certified_cover_s", "s"), ("fail_share", "ratio"), ("peak_rss_mb", "MiB"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(deadline):
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with code {done.returncode}")
        return None
    return os.path.join(target, "release", "fpva-perfbench")


def source_hash():
    """Hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    skip = {"target", ".bench_build", ".perfbench", "__pycache__", ".git"}
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_binary(binary, workload, seed, seconds, trace, deadline):
    """Runs one workload; returns the binary's JSON report or None."""
    os.makedirs(STATE_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(STATE_DIR, f"trace-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {workload}: {e}")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {workload}: exit code {done.returncode}")
        return None
    return json.loads(lines[-1])


def check_counters(report, workload, seed, src):
    """Compares the run's deterministic counters with every earlier run of
    the same source tree (and seed, for seeded workloads). Returns the list
    of counters that differ."""
    key = f"{workload}:{seed}" if workload in SEEDED else workload
    path = os.path.join(STATE_DIR, "counters.json")
    try:
        with open(path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        state = {}
    if state.get("source") != src:
        state = {"source": src, "runs": {}}
    seen = state["runs"].setdefault(key, {})
    differ = [f"{k}: {seen[k]} before, {v} now" for k, v in report["counters"].items()
              if k in seen and seen[k] != v]
    if not differ:
        seen.update(report["counters"])
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return differ


def lookup(report, name):
    timing = report["timings"].get(name)
    if timing is not None:
        return timing["median"]
    return report["values"].get(name)


def summarize(report, bench, src, rev):
    workload = report["workload"]
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
    meta = {k: report[k] for k in ("workload", "seed", "trace", "seconds", "threads", "nproc")}
    meta.update(git_rev=rev, source_hash=src, why=why,
                samples={k: v["samples"] for k, v in report["timings"].items()},
                tails={k: v["tail"] for k, v in report["timings"].items() if v["tail"]})
    print(json.dumps(meta, sort_keys=True))
    for failure in report["failures"]:
        log(f"perfbench: {workload}: FAILED {failure}")


def run_checked(binary, bench, workload, args, trace, deadline, src, rev):
    """Runs one workload, prints its record line and checks its counters
    against earlier runs. Returns (report, attempted, failed) or None."""
    report = run_binary(binary, workload, args.seed, args.seconds, trace, deadline)
    if report is None:
        return None
    summarize(report, bench, src, rev)
    differ = check_counters(report, workload, args.seed, src)
    for d in differ:
        log(f"perfbench: {workload}: counter differs from an earlier run: {d}")
    return report, report["attempted"] + 1, report["failed"] + (1 if differ else 0)


def one(args, bench, binary, src, rev, deadline):
    checked = run_checked(binary, bench, args.workload, args, args.trace, deadline, src, rev)
    if checked is None:
        return 1
    report, attempted, failed = checked
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for spec in specs:
        value = lookup(report, spec["name"])
        if value is None and args.trace:
            value = 0.0  # the layer is not called on this workload
        if value is None:
            log(f"perfbench: {args.workload}: no value for {spec['name']}")
            return 1
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def table(args, bench, binary, src, rev):
    rows, attempted, failed = {}, 0, 0
    for w in (w["name"] for w in bench["workloads"]):
        checked = run_checked(binary, bench, w, args, 0, time.monotonic() + RUN_TIMEOUT_S, src, rev)
        if checked is None:
            return 1
        rows[w], a, f = checked
        attempted += a
        failed += f
    print(" | ".join(["workload"] + [f"{n} ({u})" for n, u in TABLE]))
    for w, report in rows.items():
        values = [lookup(report, name) for name, _ in TABLE]
        print(" | ".join([w] + ["-" if v is None else f"{v:.6g}" for v in values]))
    metrics = {f"{w}.{n}": {"value": lookup(r, n), "unit": u}
               for w, r in rows.items() for n, u in TABLE if lookup(r, n) is not None}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        log(f"perfbench: unknown workload {args.workload!r}; choose from {names} or all")
        return 2
    binary = build(start + BUILD_TIMEOUT_S)
    if binary is None:
        return 1
    src, rev = source_hash(), git_rev()
    if args.workload == "all":
        return table(args, bench, binary, src, rev)
    return one(args, bench, binary, src, rev, time.monotonic() + RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
