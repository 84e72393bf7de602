#!/usr/bin/env python3
"""CAPES benchmark: one closed-loop workload run, printed as metrics.

    python3 capesbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the benchmark from
source with CMake into $CARGO_TARGET_DIR/capesbench (default
.bench_build/capesbench); later runs rebuild incrementally. With
--trace 0 the last line of stdout holds every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric, as one JSON
object with the run's correctness verdict and tick counts. A failed
correctness check prints correct=false and exits 1; a failed build or
benchmark run exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402

WORKLOADS = ("train_8d_capture", "eval_32d_rw", "pool_16d_skew")
RUN_TIMEOUT_S = 170


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build_binary():
    """Configure (once) and build the benchmark; returns its path or None."""
    if shutil.which("cmake") is None:
        print("cmake not found", file=sys.stderr)
        return None
    build_dir = os.path.join(build_root(), "capesbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "capesbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(build_dir, "capesbench")


def load_config():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    """Returns the process exit code; prints the result line on success."""
    config = load_config()
    binary = build_binary()
    if binary is None:
        return 1
    out_dir = os.path.join(build_root(), "capesbench-runs",
                           f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        cmd = [binary, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}", f"--out={out_dir}"]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("benchmark timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"benchmark exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(out_dir, "raw.json")) as f:
            raw = json.load(f)
        if trace:
            spans = report.load_spans(os.path.join(out_dir, "spans.csv"))
            values = report.per_layer(raw, spans)
            units = report.PER_LAYER
        else:
            values = report.end_to_end(raw)
            units = report.END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    results = report.checks(raw, trace, values)
    problems = report.name_mismatches(config, trace, units)
    results.append(("metric_names_match", not problems,
                    "; ".join(problems) or "names and units as declared"))
    all_ok = all(ok for _, ok, _ in results)
    attempted, failed = report.attempted_failed(raw, all_ok)

    first = [e for e in raw["episodes"] if not e["traced"]][0]
    print(f"workload {workload}, seed {seed}, {raw['domains']} domains, "
          f"{len(raw['episodes'])} episodes")
    print(f"fingerprint {first['fingerprint']} ({first['train_steps']} train "
          f"steps), tuned_gain_pct {first['tuned_gain_pct']}")
    for p in first["phases"]:
        print(f"  {p['label']}: {p['ticks']} ticks, {p['mean_mbs']} MB/s")
    if trace:
        print(f"DQN layer shapes (in x out): {raw['probes']['shapes']}")
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    line = {
        "correct": all_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(line))
    return 0 if all_ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
