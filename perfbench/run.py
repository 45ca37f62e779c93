#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload ycsb_a_durable --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds perfbench/pambench from
the library sources (CMake, Release flags of the library) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs one workload and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end set of BENCHMARK.json, with --trace 1 the per-layer set.

Every PAM_* environment variable is cleared, so library defaults are what
gets measured. The exit code is 0 only if the build succeeded, every output
check passed and every metric of BENCHMARK.json was printed with its unit.
See perfbench/README.md for what each workload and metric measures.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb_a_durable", "ycsb_b_rangesum", "bulk_table3")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, env=env,
                   stdout=sys.stderr)


def filesystem_of(path):
    """Type of the filesystem holding `path`, from the longest mount prefix."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def compiler_of(build_dir):
    ident = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:")):
                    k, v = line.strip().split("=", 1)
                    ident[k.split(":")[0]] = v
    except OSError:
        pass
    return ident.get("CMAKE_CXX_COMPILER", "?"), ident.get("CMAKE_BUILD_TYPE", "?")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: perturb one expected value so the checks must fail")
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("PAM_")}
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        expected = expected_metrics(args.trace == 1)
        build(build_dir, env)
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"perfbench: set-up failed: {e}")
        return 1

    work_dir = os.path.join(build_dir, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    compiler, build_type = compiler_of(build_dir)
    print(f"provenance: nproc={os.cpu_count()} compiler={compiler} build_type={build_type} "
          f"seed={args.seed} wal_dir_fs={filesystem_of(work_dir)} pam_env=cleared", flush=True)
    cmd = [os.path.join(build_dir, "pambench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--corrupt"] if args.corrupt else []
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        trace_csv = os.path.join(work_dir, f"trace-{args.workload}.csv")
        if os.path.exists(trace_csv):
            shutil.move(trace_csv, os.path.join(build_dir, f"trace-{args.workload}-seed{args.seed}.csv"))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError):
        log(f"perfbench: no result line (exit code {proc.returncode}): {lines[-1]!r}")
        return 1
    missing = [n for n, u in expected.items()
               if n not in metrics or metrics[n].get("unit") != u]
    if missing:
        log(f"perfbench: metrics missing or with the wrong unit: {', '.join(missing)}")
        return 1
    result["metrics"] = {n: metrics[n] for n in expected}
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
