#!/usr/bin/env python3
"""Self-test of the geofm benchmark.

    python3 perfbench/selftest.py [--seconds 3]

Run from the root of a checkout. Checks BENCHMARK.json against the
benchmark contract and against perfbench/metrics.json; runs every workload
briefly, timed and traced, with the default and the held-out seed, where
every correctness check must pass and the collective metrics must be 0 on
pretrain_1rank and above 0 on pretrain_fsdp4; and runs with a planted
wrong embedding and a planted loss mismatch, each of which must make the
run fail.
Exits 0 when everything holds.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
TRAINING = ("pretrain_1rank", "pretrain_fsdp4")
# Layer metrics that must be 0 on pretrain_1rank (no collectives at world
# 1) and above 0 on pretrain_fsdp4. comm.loss_allreduce_ms is left out:
# on world 1 it times the call itself, a few microseconds.
COLLECTIVE_METRICS = ("comm.exposed_ms", "comm.busy_ms", "comm.overlap_ratio",
                      "comm.overlap_base", "parallel.collectives_per_step",
                      "parallel.bytes_per_step")

problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
    return ok


def check_spec(spec, meta):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    cmd = spec["command"]
    expect(1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd),
           "command length")
    expect(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for p in spec["paths"]:
        expect(bool(PATH.match(p)) and not p.startswith("/") and
               ".." not in p.split("/"), f"path {p}")
    rs = spec["run_seconds"]
    expect(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds")
    names = []
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload {w.get('name')} keys")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w['name']} why")
        names.append(w["name"])
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(layer) <= 128, "1 to 128 per-layer metrics")
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"},
               f"{m['name']} keys")
        expect(0 < m["bound"] <= 0.25, f"{m['name']} bound")
    for m in layer:
        expect(set(m) == {"name", "unit", "better"}, f"{m['name']} keys")
    for m in e2e + layer:
        expect(m["better"] in ("lower", "higher"), f"{m['name']} better")
        expect(bool(UNIT.match(m["unit"])), f"{m['name']} unit")
        names.append(m["name"])
    for n in names:
        expect(bool(NAME.match(n)), f"name {n!r}")
    expect(len(names) == len(set(names)), "names used once")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s in s, lower, with the largest bound")
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json size")

    # metrics.json describes exactly these workloads and metrics.
    workloads = {w["name"] for w in spec["workloads"]}
    e2e_names = {m["name"] for m in e2e}
    expect(set(meta["workloads"]) == workloads, "metrics.json workloads")
    for w, info in meta["workloads"].items():
        expect(set(info["end_to_end"]) == e2e_names,
               f"metrics.json {w}: every end-to-end metric defined")
    expect(set(meta["per_layer"]) == {m["name"] for m in layer},
           "metrics.json per_layer covers BENCHMARK.json per_layer")
    for n, info in meta["per_layer"].items():
        expect(info["module"] == n.split(".")[0], f"{n} module")
        expect(bool(info["moves"]) and all(
            m in e2e_names and w in workloads for m, w in info["moves"]),
            f"{n} moves")
        expect(info["still_on"] in workloads or
               info["still_on"].startswith("none"), f"{n} still_on")
    for key in ("default_seed", "held_out_seed", "failure_accounting"):
        expect(key in meta, f"metrics.json {key}")


def check_references(meta):
    refs = set()
    with open(os.path.join(HERE, "references.txt")) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                workload, seed, _ = line.split()
                refs.add((workload, int(seed)))
    for w in TRAINING:
        for seed in (meta["default_seed"], meta["held_out_seed"]):
            expect((w, seed) in refs, f"reference loss for {w} seed {seed}")


def check_collectives(workload, metrics, label):
    for name in COLLECTIVE_METRICS:
        value = metrics[name]["value"]
        if workload == "pretrain_1rank":
            expect(value == 0, f"{label}: {name} = {value}, expected 0")
        elif workload == "pretrain_fsdp4":
            expect(value > 0, f"{label}: {name} = {value}, expected > 0")


def run(workload, seed, seconds, trace, plant=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, result, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        meta = json.load(f)
    check_spec(spec, meta)
    check_references(meta)

    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    for seed in (meta["default_seed"], meta["held_out_seed"]):
        for w in spec["workloads"]:
            for trace in (0, 1):
                code, result, out = run(w["name"], seed, args.seconds, trace)
                label = f"{w['name']} seed {seed} trace {trace}"
                ok = expect(code == 0 and result is not None and
                            result["correct"] and result["failed"] == 0,
                            f"{label} failed:\n{out[-1500:]}")
                if ok:
                    expect(list(result["metrics"]) == declared[trace],
                           f"{label}: metrics differ from BENCHMARK.json")
                if ok and trace:
                    check_collectives(w["name"], result["metrics"], label)
                print(f"{label}: {'ok' if ok else 'FAILED'}", flush=True)

    planted = [("serve_hotswap", "wrong_embedding", 0),
               ("pretrain_1rank", "loss_mismatch", 0),
               ("pretrain_1rank", "loss_mismatch", 1)]
    for workload, plant, trace in planted:
        code, result, _ = run(workload, meta["default_seed"], args.seconds,
                              trace, plant)
        caught = code != 0 and result is not None and not result["correct"]
        expect(caught, f"planted {plant} on {workload} (trace {trace}) "
                       "was not caught")
        print(f"planted {plant} on {workload} trace {trace}: "
              f"{'caught' if caught else 'NOT CAUGHT'}", flush=True)

    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
