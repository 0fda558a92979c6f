#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a parent commit against
the working tree.

    python3 tools/ab.py --parent REF --workloads local-small geo-send --seeds 21-30

Run from the root of the checkout. It exports REF with `git archive` into
a temporary directory, builds bpbench there and in the working tree,
copies both executables aside (later edits cannot change them), and
then runs the two alternately, one process per run, for every seed and
workload (`bpbench --workload W --seed S --json ...`); which side runs
first alternates from seed to seed. As each pair finishes it prints the
pair's host_us_per_op, top_heap_mb, gc.minor_words_per_op and
gc.promoted_words_per_op, parent -> change, on stderr.

For host_us_per_op, top_heap_mb and setup_s it prints the median and
Q1-Q3 of each side, the median change, on how many seeds the change was
better, and a verdict:

  gain        better on at least 9 in 10 pairs, and the medians differ
              by more than the parent's Q1-Q3 spread;
  worse       the change's median is worse than the parent's by more
              than the metric's `bound` in BENCHMARK.json (a fraction of
              the parent's median);
  unresolved  neither.

gc.minor_words_per_op (words allocated on the minor heap per op) and
gc.promoted_words_per_op (words promoted to the major heap per op) get
the same median, quartile, change and win columns, but no verdict: they
say where a host-time change comes from and gate nothing.

The verdicts are printed for reading; they do not set the exit code.
Simulated-time metrics depend only on the seed, so they must be
identical seed by seed; the script prints every one that differs and
then exits 1. It also exits 1 if a run fails its own checks
or fails an op. Exit 2 means a build or a run could not be done.

Options: --seeds takes "21-30" or "21,23,25"; --workloads takes names
separated by spaces or commas (default: all four); --scale passes
through to bpbench (default 1).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

EXE = os.path.join("_build", "default", "bench", "e2e", "bpbench.exe")
WORKLOADS = ["local-small", "local-bulk", "geo-send", "shard-xs"]
HOST = ["host_us_per_op", "top_heap_mb", "setup_s"]
PRINT_ONLY = ["gc.minor_words_per_op", "gc.promoted_words_per_op"]
RUN_TIMEOUT_S = 300


def die(msg, code=2):
    print(f"ab.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            if sep:
                seeds.extend(range(int(lo), int(hi) + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            die(f"bad --seeds value {text!r}")
    if not seeds:
        die("--seeds is empty")
    return seeds


def parse_workloads(items):
    names = [w for item in items for w in item.split(",") if w]
    for w in names:
        if w not in WORKLOADS:
            die(f"unknown workload {w!r} (one of {', '.join(WORKLOADS)})")
    return names or WORKLOADS


def build(root, dest):
    """Build bpbench in [root] and copy it to [dest], so that a rebuild of
    the working tree during the runs cannot change what is measured."""
    # The dune cache lives outside the trees; keep every write inside them.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", root, "./bench/e2e/bpbench.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr, env=env)
    exe = os.path.join(root, EXE)
    if proc.returncode != 0 or not os.path.exists(exe):
        die(f"building bpbench in {root} failed")
    shutil.copy(exe, dest)
    return dest


def export(ref, dest):
    archive = subprocess.run(["git", "archive", ref], stdout=subprocess.PIPE)
    if archive.returncode != 0:
        die(f"git archive {ref} failed")
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run(exe, workload, seed, scale, out):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--scale", str(scale), "--json", out]
    try:
        subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    if not os.path.exists(out):
        die(f"bpbench wrote no result for {workload} seed {seed}")
    with open(out) as f:
        rep = json.load(f)
    os.remove(out)
    return rep


def load_bounds(path="BENCHMARK.json"):
    """{metric: (bound, better)} for the end-to-end metrics."""
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(parent, change, bound, better):
    """gain / worse / unresolved for paired samples of one metric."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    pq, cq = quartiles(parent), quartiles(change)
    moved = sign * (pq[1] - cq[1])
    if 10 * wins >= 9 * len(parent) and moved > pq[2] - pq[0]:
        return wins, "gain"
    if -moved > bound * abs(pq[1]):
        return wins, "worse"
    return wins, "unresolved"


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description="paired parent/change benchmark runs")
    ap.add_argument("--parent", required=True, help="git ref of the baseline")
    ap.add_argument("--workloads", nargs="*", default=[])
    ap.add_argument("--seeds", default="21-30")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = parse_workloads(args.workloads)
    if not os.path.exists(os.path.join("bench", "e2e", "dune")):
        die("run from the root of the checkout")
    bounds = load_bounds()

    failures = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent_root = os.path.join(tmp, "parent")
        os.mkdir(parent_root)
        export(args.parent, parent_root)
        exes = {
            "parent": build(parent_root, os.path.join(tmp, "bpbench-parent.exe")),
            "change": build(os.getcwd(), os.path.join(tmp, "bpbench-change.exe")),
        }
        out = os.path.join(tmp, "run.json")
        for workload in workloads:
            host = {side: {m: [] for m in HOST + PRINT_ONLY} for side in exes}
            for i, seed in enumerate(seeds):
                reps = {}
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    rep = run(exes[side], workload, seed, args.scale, out)
                    reps[side] = rep
                    for m in HOST + PRINT_ONLY:
                        host[side][m].append(rep["metrics"][m]["value"])
                    if not rep["correct"] or rep["failed"] != 0:
                        failures.append(
                            f"{workload} seed {seed} {side}: correct="
                            f"{rep['correct']} failed={rep['failed']}")
                sims = {side: {k: m["value"] for k, m in rep["metrics"].items()
                               if m["kind"] == "sim"}
                        for side, rep in reps.items()}
                for k in sorted(set(sims["parent"]) | set(sims["change"])):
                    a, b = sims["parent"].get(k), sims["change"].get(k)
                    if a != b:
                        failures.append(
                            f"{workload} seed {seed}: {k} parent={a} change={b}")
                print(f"{workload} seed {seed}: host_us_per_op "
                      f"{host['parent']['host_us_per_op'][-1]:.1f} -> "
                      f"{host['change']['host_us_per_op'][-1]:.1f}, "
                      f"top_heap_mb "
                      f"{host['parent']['top_heap_mb'][-1]:.1f} -> "
                      f"{host['change']['top_heap_mb'][-1]:.1f}, "
                      f"minor words/op "
                      f"{host['parent']['gc.minor_words_per_op'][-1]:.0f} -> "
                      f"{host['change']['gc.minor_words_per_op'][-1]:.0f}, "
                      f"promoted words/op "
                      f"{host['parent']['gc.promoted_words_per_op'][-1]:.0f} -> "
                      f"{host['change']['gc.promoted_words_per_op'][-1]:.0f}",
                      file=sys.stderr)
            print(f"\n{workload} ({len(seeds)} seeds, alternating pairs)")
            print(f"  {'metric':<24} {'parent median [Q1-Q3]':<30}"
                  f" {'change median [Q1-Q3]':<30} {'change':>8} {'better':>7}"
                  f"  verdict")
            for m in HOST + PRINT_ONLY:
                p, c = host["parent"][m], host["change"][m]
                pq, cq = quartiles(p), quartiles(c)
                if m in PRINT_ONLY:  # lower is better; no bound, no verdict
                    wins = sum(1 for a, b in zip(p, c) if b < a)
                    says = "(print only)"
                else:
                    wins, says = verdict(p, c, *bounds[m])
                delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
                print(f"  {m:<24} "
                      f"{f'{pq[1]:.3f} [{pq[0]:.3f}-{pq[2]:.3f}]':<30} "
                      f"{f'{cq[1]:.3f} [{cq[0]:.3f}-{cq[2]:.3f}]':<30} "
                      f"{delta:>+7.1f}% {wins:>3}/{len(seeds)}  {says}")
    if failures:
        print("\nsimulated metrics or checks differ:")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("\nevery simulated metric identical seed by seed")


if __name__ == "__main__":
    main()
