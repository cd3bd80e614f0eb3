#!/usr/bin/env python3
"""Repository benchmark of the CAIS simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tp32-cais --seed 0 --seconds 38 --trace 0

It builds the `perfbench` package twice (plain, and with the simulator's
self-profiler for the traced run), runs the workload, checks every job's
output, and prints a readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics. perfbench/README.md describes the
workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tp32-cais", "fig11-llama7b", "chaos-faults")
# Sweep workers per pass. One: on a few shared cores a second worker
# thread makes a pass's time depend on the scheduler, not the simulator.
WORKERS = 1
# The code under test: what the exact-repeat pins are keyed by.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "perfbench")
# Passes per run, at least; more while the next one ends within --seconds.
MIN_PASSES = 2
# A run ends within 180 s of its build: a pass still running this many
# seconds after the build is killed.
RUN_DEADLINE_S = 175
deadline = float("inf")


class BenchError(Exception):
    pass


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(trace):
    out = os.path.join(target_dir(), "trace" if trace else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", out]
    if trace:
        cmd += ["--features", "trace"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "release", "perfbench")


def code_hash():
    """Hash of every source file of the simulator and this benchmark, so a
    changed program gets fresh pins instead of a permanent mismatch."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def invoke(binary, *args):
    """Runs one perfbench subcommand and returns its JSON record."""
    argv = [binary, *map(str, args)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(argv[1:])} did not finish in {timeout:.0f}s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Counts attempted and failed jobs, and checks that every job's
    deterministic counters repeat exactly: between the passes of this run,
    and against earlier runs of the same inputs and the same code in this
    checkout."""

    def __init__(self, pin_key):
        self.pin_path = os.path.join(target_dir(), "pins", pin_key + ".json")
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.mismatches = []

    def compare(self, label, want, got, where):
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                self.mismatches.append(
                    f"counter {key} of job {label}: {want.get(key)} {where}, now {got.get(key)}")

    def observe(self, label, fp, where):
        self.compare(label, self.reference.setdefault(label, fp), fp, where)

    def add_pass(self, name, record):
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.failures += [f"{name}: {f['label']}: {f['reason']}" for f in record["failures"]]
        for job in record["jobs"]:
            if "fp" in job:
                self.observe(job["label"], job["fp"], "in the first pass")

    def check_pins(self):
        pins = {}
        if os.path.exists(self.pin_path):
            with open(self.pin_path) as f:
                pins = json.load(f)
        for label, fp in self.reference.items():
            if label in pins:
                self.compare(label, pins[label], fp, "in an earlier run")
        pins.update({k: v for k, v in self.reference.items() if k not in pins})
        os.makedirs(os.path.dirname(self.pin_path), exist_ok=True)
        with open(self.pin_path, "w") as f:
            json.dump(pins, f, sort_keys=True)


def pass_args(args, *extra):
    return ("pass", args.workload, "--seed", args.seed, "--workers", WORKERS, *extra)


def run_untraced(args, plain, checker):
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 + passes[-1]["wall_s"] <= args.seconds:
        record = invoke(plain, *pass_args(args))
        passes.append(record)
        checker.add_pass(f"pass {len(passes)}", record)
    first = passes[0]
    print(f"perfbench {args.workload}: seed {args.seed}, {len(passes)} passes of "
          f"{first['attempted']} jobs on {WORKERS} worker; medians over the passes:")
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "setup_s", "peak_rss_mb")}
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        print(f"  {name:<14}{metrics[name]:>12.4f} {unit}")
    fp = first["jobs"][0].get("fp")
    if args.workload == "tp32-cais" and fp:
        print(f"  {'sim_us':<14}{fp['sim_ps'] / 1e6:>12.3f} us   simulated time of the layer")
    if first.get("cais_speedup") is not None:
        print(f"  {'cais_speedup':<14}{first['cais_speedup']:>12.4f} x    "
              "geomean TP-NVLS / CAIS simulated time")
    return metrics


def run_traced(args, plain, traced, checker):
    normal = invoke(plain, *pass_args(args))
    checker.add_pass("pass", normal)
    metrics = dict(normal["layer"])
    # The same pass with the auditor switched the other way: chaos-faults
    # runs audited, the other workloads unaudited.
    audited = args.workload == "chaos-faults"
    flipped = invoke(plain, *pass_args(args, "--no-audit" if audited else "--audit"))
    checker.add_pass("pass with the auditor flipped", flipped)
    metrics["sim_core.audit_s"] = (normal["wall_s"] - flipped["wall_s"]) * (1 if audited else -1)
    # The profiler counts per thread, which the single worker makes the
    # whole pass.
    profiled = invoke(traced, *pass_args(args))
    checker.add_pass("traced pass", profiled)
    metrics.update(invoke(plain, "drivers"))

    rows = profiled["trace"]
    checker.observe("profiler", {k: v for k, v in rows.items() if k.endswith(".calls")},
                    "in the first traced pass")
    self_s = sum(v for k, v in rows.items() if k.endswith(".self_ms")) / 1e3
    metrics.update({k: v for k, v in rows.items() if not k.startswith("span.")})
    metrics.update({
        "trace.sweep_s": profiled["wall_s"],
        "trace.dfg_s": rows["span.dfg_s"],
        "trace.lower_s": rows["span.lower_s"],
        "trace.run_s": rows["span.run_s"],
        "trace.unattributed_s": profiled["wall_s"] - rows["span.dfg_s"] - rows["span.lower_s"] - self_s,
        "trace.overhead": profiled["wall_s"] - normal["wall_s"],
    })
    print(f"perfbench {args.workload} traced: seed {args.seed}, "
          f"pass {normal['wall_s']:.3f} s untraced, {profiled['wall_s']:.3f} s traced")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the chaos-faults fault seeds; 0 is the paper-scale soak's list")
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2**64

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    plain = build(trace=False)
    traced = build(trace=True)
    global deadline
    deadline = time.monotonic() + RUN_DEADLINE_S
    pin_key = args.workload
    if args.workload == "chaos-faults":
        pin_key += f"-seed{args.seed}"
    checker = Checker(f"{pin_key}-{code_hash()}")
    if args.trace:
        values = run_traced(args, plain, traced, checker)
    else:
        values = run_untraced(args, plain, checker)
    checker.check_pins()

    print(f"  {'failed_share':<14}{checker.failed}/{checker.attempted} jobs"
          f" = {checker.failed / checker.attempted:.6f}")
    for line in checker.failures:
        print(f"  FAILED {line}")
    for line in checker.mismatches:
        print(f"  MISMATCH {line}")
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": not checker.mismatches,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
