#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

From the root of the repository. It checks that
  * every workload, untraced and traced, exits 0 with correct=true and
    prints every metric of BENCHMARK.json with its unit (end-to-end values
    finite and above 0, per-layer values finite);
  * perfbench/moves.json names, for every per-layer metric, end-to-end
    metrics and workloads that exist;
  * a run whose expected values are deliberately corrupted (--corrupt)
    fails on every workload, so the output checks are not vacuous;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero without printing a result.
Exits nonzero on the first failed assertion.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return p, result


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    with open(os.path.join(HERE, "moves.json")) as f:
        moves = {m["name"]: m for m in json.load(f)["per_layer"]}
    check(set(moves) == set(layer), "moves.json covers exactly the per-layer metrics")
    for name, m in moves.items():
        check(m["moves"] and set(m["moves"]) <= set(e2e) and m["on"] and set(m["on"]) <= set(workloads),
              f"moves.json entry for {name} names existing metrics and workloads")

    for w in workloads:
        for trace, names in ((0, e2e), (1, layer)):
            p, r = run(w, trace)
            check(p.returncode == 0 and r is not None and r["correct"] and r["failed"] == 0,
                  f"{w} trace={trace} passes its output checks")
            check(isinstance(r["attempted"], int) and r["attempted"] >= 1, f"{w} trace={trace} counts attempts")
            got = r["metrics"]
            check(set(got) == set(names), f"{w} trace={trace} prints every metric of BENCHMARK.json")
            for n, unit in names.items():
                v = got[n]["value"]
                check(got[n]["unit"] == unit and isinstance(v, (int, float)) and math.isfinite(v)
                      and (trace == 1 or v > 0), f"{w} trace={trace} {n} = {v} {unit}")

    for w in workloads:
        p, r = run(w, 0, "--corrupt")
        check(p.returncode != 0 and (r is None or not r["correct"]),
              f"{w} with a corrupted expected value fails")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    p = subprocess.run(RUN[:1] + ["perfbench/run.py", "--workload", workloads[0], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    last = p.stdout.strip().split("\n")[-1] if p.stdout.strip() else ""
    check(p.returncode != 0 and '"metrics"' not in last,
          "without the library sources the benchmark fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
