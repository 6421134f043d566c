#!/usr/bin/env python3
"""Build and run the pipeline benchmark for one workload.

    python3 pipebench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark (and the heartbeat
library beside it) into .bench_build/cmake, runs one workload, and prints
the benchmark's lines; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics, with --trace 1 the per-layer metrics
(and a span dump under .bench_build/out/).

Exit status: 0 when every correctness gate held, 1 when one failed, 2 when
the benchmark could not be built or run (no result line is printed then).
See pipebench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False on any failure."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pipebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if res.returncode != 0:
            log(f"build step failed ({res.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if the file is here."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["fleet_steady", "firehose", "churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "pipebench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: on a timeout the benchmark and the generator it
    # forked are killed together, and both are waited for.
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
    except OSError as e:
        log(f"cannot start the benchmark: {e}")
        return 2
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark did not finish in time")
        return 2
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        log(f"no result line (exit {proc.returncode})")
        return 2
    want = expected_metrics(args.trace == 1)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        print("\n".join(lines[:-1]))
        log("metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(want) - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - set(want))}")
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode not in (0, 1):
        return 2
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
