#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bpbench from source with dune, then:

  --trace 0  runs untraced repetitions of the workload, one process each,
             while another fits in S seconds (at least one). Simulated-time
             metrics must be identical across repetitions; host metrics are
             the median over them. Prints every end-to-end metric.
  --trace 1  runs the workload once untraced and once traced. The traced
             run must reproduce every simulated-time metric exactly. Prints
             every per-layer metric, including the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 when a check fails, and 2
when the source tree or the build is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "bench", "e2e", "bpbench.exe")
OUT_DIR = ".bpbench"
REP_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("bench", "e2e", "dune")):
        if not os.path.exists(needed):
            die(f"{needed} not found: run from the root of a full source checkout")
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bench/e2e/bpbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("building bpbench failed")


def run_rep(workload, seed, traced, tag):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-{seed}-{tag}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--json", path]
    if traced:
        cmd.append("--trace")
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish in {REP_TIMEOUT_S} s", code=1)
    if not os.path.exists(path):
        die(f"bpbench wrote no result for {workload}", code=1)
    with open(path) as f:
        rep = json.load(f)
    os.remove(path)
    return rep


def sim_values(rep):
    return {k: m["value"] for k, m in rep["metrics"].items() if m["kind"] == "sim"}


def pick(names, reps, problems):
    """Metric values for [names]: simulated-time ones from the first
    repetition, host ones as the median over all repetitions."""
    out = {}
    for name, unit in names:
        ms = [r["metrics"].get(name) for r in reps]
        if any(m is None or m["value"] is None for m in ms):
            problems.append(f"metric {name} missing or not finite")
            continue
        if ms[0]["kind"] == "sim":
            value = ms[0]["value"]
        else:
            value = statistics.median(m["value"] for m in ms)
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    build()

    problems = []
    if args.trace == 0:
        deadline = time.monotonic() + args.seconds
        reps = []
        while True:
            t0 = time.monotonic()
            reps.append(run_rep(args.workload, args.seed, False, len(reps)))
            took = time.monotonic() - t0
            if not reps[-1]["correct"] or time.monotonic() + took > deadline:
                break
        if any(sim_values(r) != sim_values(reps[0]) for r in reps):
            problems.append("simulated-time metrics differ between repetitions")
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        metrics = pick(names, reps, problems)
    else:
        untraced = run_rep(args.workload, args.seed, False, "untraced")
        traced = run_rep(args.workload, args.seed, True, "traced")
        reps = [untraced, traced]
        u, t = sim_values(untraced), sim_values(traced)
        if any(t.get(k) != v for k, v in u.items()):
            problems.append("traced run changed simulated-time metrics")
        base = untraced["metrics"]["host_us_per_op"]["value"]
        extra = {
            "host.traced_us_per_op": traced["metrics"]["host_us_per_op"]["value"],
            "host.trace_overhead":
                traced["metrics"]["host_us_per_op"]["value"] / base,
        }
        for k, v in extra.items():
            traced["metrics"][k] = {"value": v, "kind": "host"}
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = pick(names, [traced], problems)

    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    failed = max(r["failed"] for r in reps) + len(problems)
    correct = failed == 0 and all(r["correct"] for r in reps)
    print(json.dumps({
        "correct": correct,
        "attempted": reps[0]["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
