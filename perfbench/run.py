#!/usr/bin/env python3
"""Builds and runs the geofm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary under .bench_build/; later runs reuse it.
Human-readable lines go to standard output, build output to standard
error, and the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are every end_to_end metric of BENCHMARK.json, with --trace 1 every
per_layer metric (an explicit 0 where the layer does no work in that
workload).
Exits 0 only when the run passed every correctness check.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "geofm_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("geofm sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def conform(result, spec, trace):
    """Checks the binary's metrics against BENCHMARK.json: every declared
    metric of the mode present (layers that do no work in a workload report
    an explicit 0), none undeclared, units as declared; puts them in the
    declared order."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, declared {units[name]}")
    ordered = {}
    for name, unit in units.items():
        if name not in metrics:
            fail(f"metric {name} missing from the run")
        ordered[name] = metrics[name]
    result["metrics"] = ordered
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("wrong_embedding", "loss_mismatch"),
                    help="self-test only: plant a fault the checks must catch")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    workdir = os.path.join(
        WORK_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--references", os.path.join(HERE, "references.txt")]
    if args.plant:
        cmd += ["--plant", args.plant]
    # Its own session, so that a run cut by the timeout is stopped together
    # with any child process it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"no result line (exit code {proc.returncode})")
    result = conform(result, spec, args.trace == 1)
    # Checkpoints are temporary; only the span log of a traced run is kept.
    for entry in os.listdir(workdir) if os.path.isdir(workdir) else []:
        path = os.path.join(workdir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(result), flush=True)
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
