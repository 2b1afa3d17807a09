#!/usr/bin/env python3
"""Builds and runs the rootless benchmark (perfbench/).

Run from the root of a checkout:

    python3 perfbench/run.py --workload udp-hot --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later runs only rebuild what
changed. Every run also writes its full result, provenance included, to
.bench_build/perfbench/results/. Two such results can be compared with

    python3 perfbench/run.py compare A.json B.json

which refuses when the two were measured on different machines or builds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rootless_perfbench")
RESULTS = os.path.join(BUILD, "results")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def option(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def run(args):
    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%s-trace%s.json" % (option(args, "--workload", "x"),
                                       option(args, "--seed", "0"),
                                       option(args, "--trace", "0"))
    command = [BINARY] + args + ["--result", os.path.join(RESULTS, name)]
    proc = subprocess.run(command)
    return proc.returncode


def compare(path_a, path_b):
    """Prints metric ratios B/A, refusing results of differing provenance."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["provenance"] != b["provenance"]:
        log("perfbench: refusing to compare results of different provenance:")
        for key in sorted(set(a["provenance"]) | set(b["provenance"])):
            va, vb = a["provenance"].get(key), b["provenance"].get(key)
            if va != vb:
                log("  %s: %r vs %r" % (key, va, vb))
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("perfbench: results are of different workloads or passes")
        return 3
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print("%-40s missing in B" % name)
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("%-40s %14.6g %14.6g %s  B/A=%.4f" %
              (name, ma["value"], mb["value"], ma["unit"], ratio))
    return 0


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        if len(args) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(args[1], args[2])
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
