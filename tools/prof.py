#!/usr/bin/env python3
"""Where a bpbench run spends host time: a SIGPROF stack sampler.

    python3 tools/prof.py --workload local-bulk --seeds 31-33
    python3 tools/prof.py --workload geo-send --seeds 2 --top 40 --scale 0.2

Run from the root of the checkout. It builds bpbench with dune, compiles
tools/prof/sampler.c with `cc` into a temporary directory, and runs
`bpbench --workload W --seed S` once per seed with the sampler loaded
by LD_PRELOAD. The sampler arms ITIMER_PROF in that process alone and
records one stack per SIGPROF; at exit it writes the stacks and a copy
of the process's /proc/self/maps. This script then maps every address
to its symbol (`nm` over each mapped file) and prints, over all runs
together:

  flat       samples whose innermost frame is in the symbol (self time);
  inclusive  samples with the symbol anywhere on the stack, once each;
  callers    for samples whose innermost frame is in libc (memcpy,
             memmove, ...), the first frame outside libc: who asked;
  library    each sample charged to the innermost function of the
             project's own libraries (a camlBp_* or camlBlockplane*
             symbol), so the C, GC and libc time under it counts too:
             where SHA-256, memcpy and allocation are asked for;
  modules    the library table summed per OCaml module.

Limits: samples arrive at the kernel's timer tick, not every
millisecond of CPU time as the sampler asks, so a run of a few seconds gives one or two hundred samples;
a stack the unwinder could not finish ends in `?`, and inclusive counts
miss the frames beyond it; an inlined OCaml function has no frame of
its own, so its samples go to its caller; symbols are the nearest
preceding ones `nm` lists, so code in a stripped library (libc's
internal memcpy variants) is named after an exported neighbour. It
measures only the processes it starts.
"""

import argparse
import bisect
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile

EXE = os.path.join("_build", "default", "bench", "e2e", "bpbench.exe")
SAMPLER = os.path.join("tools", "prof", "sampler.c")


def die(msg):
    print(f"prof.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        try:
            seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
        except ValueError:
            die(f"bad --seeds value {text!r}")
    return seeds


class Image:
    """One mapped ELF file: its LOAD segments and its sorted symbols."""

    def __init__(self, path):
        self.path = path
        self.segments = []  # (file offset, file size, vaddr)
        out = run_tool(["readelf", "-lW", path])
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.segments.append((int(f[1], 16), int(f[4], 16), int(f[2], 16)))
        syms = {}
        for flag in ([], ["-D"]):
            for line in run_tool(["nm", "-n", "--defined-only"] + flag + [path]).splitlines():
                f = line.split()
                if len(f) == 3 and f[1] in "tTwWiI":
                    # An OCaml module's code_begin marker shares its
                    # address with the module's first function (and its
                    # code_end with the next module's): name the function.
                    addr = int(f[0], 16)
                    if addr not in syms or is_marker(syms[addr]) and not is_marker(f[2]):
                        syms[addr] = f[2]
        self.addrs = sorted(syms)
        self.names = [syms[a] for a in self.addrs]

    def symbol(self, file_offset):
        vaddr = None
        for off, size, va in self.segments:
            if off <= file_offset < off + size:
                vaddr = file_offset - off + va
                break
        if vaddr is None or not self.addrs:
            return None
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else None


def is_marker(name):
    return name.endswith(("code_begin", "code_end"))


def run_tool(argv):
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return r.stdout if r.returncode == 0 else ""


class Symbolizer:
    def __init__(self, maps_path):
        self.maps = []  # (start, end, file offset, path), sorted by start
        with open(maps_path) as f:
            for line in f:
                f6 = line.split(maxsplit=5)
                if len(f6) < 6 or "x" not in f6[1] or not f6[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in f6[0].split("-"))
                self.maps.append((lo, hi, int(f6[2], 16), f6[5].strip()))
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]
        self.images = {}
        self.cache = {}

    def lookup(self, pc, exact):
        """(library name, symbol) of [pc]; a return address ([exact]
        false) is looked up one byte back, inside its call."""
        key = (pc, exact)
        if key in self.cache:
            return self.cache[key]
        where = pc if exact else pc - 1
        i = bisect.bisect_right(self.starts, where) - 1
        result = ("?", f"0x{pc:x}")
        if i >= 0 and where < self.maps[i][1]:
            lo, _, off, path = self.maps[i]
            if path not in self.images:
                self.images[path] = Image(path)
            name = self.images[path].symbol(where - lo + off)
            lib = os.path.basename(path)
            result = (lib, clean(name) if name else f"{lib}+0x{where - lo + off:x}")
        self.cache[key] = result
        return result


def clean(name):
    """OCaml symbols carry a numeric stamp (camlM__f_1234); drop it so
    one function is one row."""
    return re.sub(r"_\d+$", "", name) if name.startswith("caml") else name


def is_libc(lib):
    return lib.startswith("libc.so") or lib.startswith("libc-")


def is_library(name):
    return name.startswith(("camlBp_", "camlBlockplane"))


def module_of(name):
    """camlBp_codec__Wire.encoder_inner -> camlBp_codec__Wire."""
    return name.split(".", 1)[0]


def table(title, counter, total, top):
    print(f"\n{title}")
    print(f"{'samples':>8} {'share':>7}  symbol")
    for name, n in counter.most_common(top):
        print(f"{n:8d} {100.0 * n / total:6.1f}%  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--scale", default=None, help="passed through to bpbench")
    ap.add_argument("--top", type=int, default=25, help="rows per table")
    args = ap.parse_args()
    if shutil.which("cc") is None:
        die("no cc on PATH")
    if subprocess.run(["dune", "build", "./bench/e2e/bpbench.exe"],
                      stdout=sys.stderr).returncode != 0:
        die("dune build failed")

    flat, inclusive, callers = collections.Counter(), collections.Counter(), collections.Counter()
    library, modules = collections.Counter(), collections.Counter()
    total = unfinished = 0
    with tempfile.TemporaryDirectory(prefix="prof-") as tmp:
        lib = os.path.join(tmp, "libsampler.so")
        if subprocess.run(["cc", "-O2", "-fPIC", "-shared", "-o", lib, SAMPLER]).returncode != 0:
            die("compiling the sampler failed")
        exe = os.path.join(tmp, "bpbench.exe")
        shutil.copy(EXE, exe)
        for seed in parse_seeds(args.seeds):
            out = os.path.join(tmp, f"seed{seed}")
            argv = [exe, "--workload", args.workload, "--seed", str(seed),
                    "--json", out + ".json"]
            if args.scale:
                argv += ["--scale", args.scale]
            env = dict(os.environ, LD_PRELOAD=lib, PROF_OUT=out)
            r = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL)
            if r.returncode != 0:
                die(f"bpbench seed {seed} exited {r.returncode}")
            if not os.path.exists(out + ".samples"):
                die(f"seed {seed}: the sampler wrote nothing")
            sym = Symbolizer(out + ".maps")
            n = 0
            with open(out + ".samples") as f:
                for line in f:
                    words = line.split()
                    if not words:
                        continue
                    n += 1
                    finished = words[-1] != "?"
                    # The outermost frame's return address is 0.
                    pcs = [int(w, 16) for w in words if w != "?" and int(w, 16) != 0]
                    frames = [sym.lookup(pc, k == 0) for k, pc in enumerate(pcs)]
                    if not frames:
                        # No program counter: the sampler cannot read
                        # the signal context on this architecture.
                        die("the sampler read no program counter; "
                            "it supports x86-64 and aarch64 only")
                    if not finished:
                        unfinished += 1
                    leaf_lib, leaf = frames[0]
                    flat[leaf] += 1
                    for name in {name for _, name in frames}:
                        inclusive[name] += 1
                    if is_libc(leaf_lib):
                        caller = next((name for l, name in frames[1:] if not is_libc(l)), "?")
                        callers[f"{leaf}  <-  {caller}"] += 1
                    owner = next((name for _, name in frames if is_library(name)),
                                 "(no library frame)")
                    library[owner] += 1
                    modules[module_of(owner)] += 1
            print(f"seed {seed}: {n} samples", file=sys.stderr)
            total += n
    if total == 0:
        die("no samples")
    print(f"{args.workload}, seeds {args.seeds}: {total} samples, "
          f"{unfinished} ({100.0 * unfinished / total:.0f}%) with an unfinished stack")
    table("flat (innermost frame)", flat, total, args.top)
    table("inclusive (anywhere on the stack)", inclusive, total, args.top)
    table("callers of libc (innermost libc frame <- first caller outside libc)",
          callers, total, args.top)
    table("library (innermost camlBp_*/camlBlockplane* frame, its callees included)",
          library, total, args.top)
    table("modules (the library table per OCaml module)", modules, total, args.top)


if __name__ == "__main__":
    main()
