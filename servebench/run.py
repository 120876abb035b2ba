#!/usr/bin/env python3
"""Served-frame benchmark launcher (see servebench/README.md).

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the root of a LeCA checkout. The first run configures and builds
the benchmark (servebench/CMakeLists.txt, which pulls in the library from
the checkout's src/) under .bench_build/servebench; later runs rebuild
only what changed. The benchmark binary runs with LECA_THREADS=2 and
writes its reports and traces under .bench_build/servebench-out. The last
line of stdout is the result object; the exit code is non-zero when any
served output, wire payload or training loss was wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
OUT = os.path.join(ROOT, ".bench_build", "servebench-out")
WORKLOADS = ("serve_int8_full48", "serve_tiny_fp32", "train_proxy24")
THREADS = "2"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure once, then build @targets; stop the run on failure."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail("no LeCA sources (src/, CMakeLists.txt) next to servebench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                     + list(targets))
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path, 3)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL, text=True).strip()
            if sha:
                return "git:" + sha
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "servebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def environment():
    env = dict(os.environ)
    env["LECA_THREADS"] = THREADS
    return env


def run_workload(workload, seed, seconds, trace):
    """Run the binary; returns (exit code, stdout text)."""
    binary = os.path.join(BUILD, "servebench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--revision", revision(), "--out", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=environment(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 5)
    return proc.returncode, out


def selftest():
    """Unit self-tests, then one short run per workload and trace mode,
    checked against the metrics BENCHMARK.json declares."""
    build(["servebench", "servebench_selftest"])
    code = subprocess.call([os.path.join(BUILD, "servebench_selftest")],
                           cwd=ROOT, env=environment())
    if code != 0:
        fail("self-tests failed", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS):
        fail("BENCHMARK.json workloads %s not in %s" % (names, WORKLOADS), 1)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(workload, 1, 2, trace)
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"]:
                problems.append("%s trace %d: exit %d, correct %s"
                                % (workload, trace, code, result["correct"]))
            if got != declared[trace]:
                problems.append("%s trace %d: metrics %s != declared %s"
                                % (workload, trace, got, declared[trace]))
            print("smoke %-18s trace %d: %d metrics, exit %d"
                  % (workload, trace, len(got), code))
    if problems:
        fail("; ".join(problems), 1)
    print("servebench self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build(["servebench"])
    code, out = run_workload(args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
