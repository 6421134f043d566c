#!/usr/bin/env python3
"""Regression tripwire for pipebench: compare two results metric by metric.

    check_trajectory.py BASE NEW
    check_trajectory.py --record OUT --workload W --seed N --seconds S \
        --host HOST --git-sha SHA RESULT...
    check_trajectory.py --self-test

BASE and NEW are each either a pipebench result (the captured stdout of
`python3 pipebench/run.py ...`; its last JSON line is used) or a committed
trajectory record (bench/trajectory/PIPEBENCH_*.json). Every end-to-end
metric BENCHMARK.json declares is compared with that metric's direction
("better": lower or higher) and relative noise bound:

    change = NEW / BASE - 1
    regressed  when better == lower  and change > +bound
               or   better == higher and change < -bound

A metric NEW lacks, or a NEW result whose correctness gates failed, also
fails the check. Exit status: 0 when nothing regressed, 1 when something
did, 2 on unreadable input.

--record writes the per-metric median of one or more results for one
workload as a trajectory record in the shared bench schema
{name, config, metrics, git_sha} (scripts/check_bench_json.py). Result
lines do not carry their run conditions, so the workload, seed and run
length the results were taken with, and the host, are given as flags and
noted in the config. Timing does not transfer across hosts: compare
records only against records taken on the same host.

--self-test checks the comparison rules on synthetic records and that
BENCHMARK.json parses. Stdlib only.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    """The end-to-end metrics: [{name, better, bound, unit}, ...]."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    for m in metrics:
        if m.get("better") not in ("lower", "higher"):
            raise ValueError(f"{m.get('name')}: 'better' must be lower|higher")
        if not isinstance(m.get("bound"), (int, float)) or m["bound"] < 0:
            raise ValueError(f"{m.get('name')}: 'bound' must be >= 0")
    return metrics


def parse_result(text):
    """(correct, {metric: value}) from a pipebench result or a record."""
    obj = None
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                obj = json.loads(line)
                break
            except ValueError:
                continue
    if obj is None:
        obj = json.loads(text)  # a pretty-printed record spans many lines
    if not isinstance(obj, dict) or not isinstance(obj.get("metrics"), dict):
        raise ValueError("no 'metrics' object found")
    metrics = {}
    for name, value in obj["metrics"].items():
        if isinstance(value, dict):  # pipebench: {"value": v, "unit": u}
            value = value.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[name] = float(value)
    correct = obj.get("correct", obj["metrics"].get("correct", True))
    return bool(correct), metrics


def load_result(path):
    with open(path, encoding="utf-8") as f:
        return parse_result(f.read())


def compare(spec, base, new):
    """Rows (name, base, new, change, bound, verdict) and a failure flag."""
    (_, base_m), (new_ok, new_m) = base, new
    rows, failed = [], not new_ok
    for m in spec:
        name, bound = m["name"], float(m["bound"])
        b, n = base_m.get(name), new_m.get(name)
        if n is None:
            rows.append((name, b, None, None, bound, "MISSING"))
            failed = True
            continue
        if b is None:
            rows.append((name, None, n, None, bound, "new"))
            continue
        if b == 0:
            change = 0.0 if n == 0 else math.copysign(math.inf, n)
        else:
            change = n / b - 1.0
        worse = change if m["better"] == "lower" else -change
        if worse > bound:
            verdict = "REGRESSED"
            failed = True
        elif -worse > bound:
            verdict = "better"
        else:
            verdict = "ok"
        rows.append((name, b, n, change, bound, verdict))
    return rows, failed


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def print_rows(rows, new_ok, out=sys.stdout):
    print(f"{'metric':28} {'base':>12} {'new':>12} {'change':>9} "
          f"{'bound':>6}  verdict", file=out)
    for name, b, n, change, bound, verdict in rows:
        ch = "-" if change is None else f"{change * 100:+.1f}%"
        print(f"{name:28} {fmt(b):>12} {fmt(n):>12} {ch:>9} "
              f"{bound * 100:5.0f}%  {verdict}", file=out)
    if not new_ok:
        print("new result failed its correctness gates", file=out)


def make_record(results, workload, seed, seconds, host, git_sha):
    """Median of several results for one workload, as a bench record."""
    metrics = {}
    names = sorted(set().union(*(m for _, m in results)))
    for name in names:
        values = [m[name] for _, m in results if name in m]
        metrics[name] = statistics.median(values)
    metrics["correct"] = all(ok for ok, _ in results)
    return {
        "name": f"pipebench_{workload}",
        "config": {"workload": workload, "seed": seed, "seconds": seconds,
                   "runs": len(results), "host": host},
        "metrics": metrics,
        "git_sha": git_sha,
    }


def self_test():
    spec = [
        {"name": "lat", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.1},
    ]

    def verdicts(base, new, new_ok=True):
        rows, failed = compare(spec, (True, base), (new_ok, new))
        return [r[5] for r in rows], failed

    assert verdicts({"lat": 10, "rate": 100}, {"lat": 10, "rate": 100}) == (
        ["ok", "ok"], False)
    # Within the bound either way is noise.
    assert verdicts({"lat": 10, "rate": 100}, {"lat": 12.4, "rate": 91}) == (
        ["ok", "ok"], False)
    # Past the bound in the bad direction regresses, per direction.
    assert verdicts({"lat": 10, "rate": 100}, {"lat": 12.6, "rate": 100}) == (
        ["REGRESSED", "ok"], True)
    assert verdicts({"lat": 10, "rate": 100}, {"lat": 10, "rate": 89}) == (
        ["ok", "REGRESSED"], True)
    # Past the bound in the good direction is an improvement, not a failure.
    assert verdicts({"lat": 10, "rate": 100}, {"lat": 5, "rate": 150}) == (
        ["better", "better"], False)
    # A dropped metric and a failed correctness gate both fail the check.
    assert verdicts({"lat": 10, "rate": 100}, {"lat": 10}) == (
        ["ok", "MISSING"], True)
    assert verdicts({"lat": 10, "rate": 100}, {"lat": 10, "rate": 100},
                    new_ok=False)[1]
    # A zero baseline: equal is ok, any growth of a lower-is-better metric
    # regresses.
    assert verdicts({"lat": 0, "rate": 100}, {"lat": 0, "rate": 100})[0][0] == "ok"
    assert verdicts({"lat": 0, "rate": 100}, {"lat": 1, "rate": 100})[1]

    # Both input shapes parse to the same thing.
    line = json.dumps({"correct": True, "attempted": 5, "failed": 0,
                       "metrics": {"lat": {"value": 3.0, "unit": "ms"}}})
    assert parse_result("run.py: noise\nmetric lat 3 ms\n" + line) == (
        True, {"lat": 3.0})
    record = make_record([parse_result(line), (True, {"lat": 5.0}),
                          (True, {"lat": 4.0})], "w", 7, 3, "host", "abc")
    assert record["metrics"] == {"lat": 4.0, "correct": True}
    assert (record["config"]["seed"], record["config"]["seconds"]) == (7, 3)
    assert parse_result(json.dumps(record, indent=2)) == (True, {"lat": 4.0})

    # The real spec parses and declares a direction and bound per metric.
    assert load_spec()
    print("check_trajectory: self-test ok")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", metavar="OUT")
    ap.add_argument("--host")
    ap.add_argument("--git-sha")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("files", nargs="*")
    args = ap.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    try:
        if args.record:
            if not (args.files and args.host and args.git_sha and args.workload
                    and args.seed is not None and args.seconds is not None):
                ap.error("--record needs --workload, --seed, --seconds, --host, "
                         "--git-sha and RESULT...")
            record = make_record([load_result(p) for p in args.files],
                                 args.workload, args.seed, args.seconds,
                                 args.host, args.git_sha)
            with open(args.record, "w", encoding="utf-8") as f:
                json.dump(record, f, indent=2)
                f.write("\n")
            return 0
        if len(args.files) != 2:
            ap.error("expected BASE and NEW")
        spec = load_spec()
        base, new = load_result(args.files[0]), load_result(args.files[1])
    except (OSError, ValueError, KeyError) as e:
        print(f"check_trajectory: {e}", file=sys.stderr)
        return 2
    rows, failed = compare(spec, base, new)
    print_rows(rows, new[0])
    print("check_trajectory: " + ("REGRESSED" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
