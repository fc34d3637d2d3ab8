#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload census_explain --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --smoke      # tiny inputs, every metric emitted

Run from the repository root. The library, gef_serve and the benchmark
driver are built from source into $CARGO_TARGET_DIR (default .bench_build)
on first use. The last line of stdout is the result object.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# Pipeline and server thread pools: fixed, below the 4 cores of the
# reference box, so set-up and explain times do not follow the machine.
PIPELINE_THREADS = "2"
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then builds the two targets the benchmark runs."""
    for needed in ("CMakeLists.txt", "src", "tools/gef_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository sources not found (%s); nothing to build" % needed)
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "gef_serve_cli",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    serve_bin = os.path.join(out, "gef", "tools", "gef_serve")
    bench_bin = os.path.join(out, "perfbench")
    for binary in (serve_bin, bench_bin):
        if not os.access(binary, os.X_OK):
            fail("build did not produce " + binary)
    return bench_bin, serve_bin, os.path.join(out, "runs")


def run_once(bins, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    bench_bin, serve_bin, work_dir = bins
    env = dict(os.environ)
    for var in ("GEF_TRACE", "GEF_FORCE_SCALAR", "GEF_VALIDATE"):
        env.pop(var, None)
    env["GEF_NUM_THREADS"] = PIPELINE_THREADS
    cmd = [bench_bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-bin", serve_bin, "--work-dir", work_dir]
    if smoke:
        cmd.append("--smoke")
    # Own process group, so a hung run is killed with its gef_serve child.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, []
    return proc.returncode, stdout.splitlines()


def smoke(bins):
    """Every workload at tiny size, untraced and traced: checks that each
    metric BENCHMARK.json names is emitted with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_once(bins, workload["name"], 1, 1, trace,
                                   smoke=True)
            result = json.loads(lines[-1]) if code == 0 and lines else None
            problems = []
            if result is None:
                problems.append("no result (exit %d)" % code)
            else:
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append("keys %s" % sorted(result))
                if not result["correct"] or result["failed"]:
                    problems.append("checks failed: %s" % lines[-2])
                for metric in spec[key]:
                    got = result["metrics"].get(metric["name"])
                    if got is None:
                        problems.append("missing " + metric["name"])
                    elif got["unit"] != metric["unit"]:
                        problems.append("%s unit %s, want %s" % (
                            metric["name"], got["unit"], metric["unit"]))
            print("%-16s trace=%d %s" % (workload["name"], trace,
                                         "ok" if not problems else
                                         "; ".join(problems)))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload is required")

    bins = build()
    if args.smoke:
        return smoke(bins)
    start = time.monotonic()
    code, lines = run_once(bins, args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    if code != 0 or not lines:
        fail("benchmark exited with %d after %.0f s" %
             (code, time.monotonic() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
