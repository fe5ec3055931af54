"""Compare two conjlab source trees with the benchmark.

Usage, from the root of a checkout holding this benchmark:

    python3 bench/compare.py --parent-src PARENT/src --change-src CHANGE/src
    python3 bench/compare.py --from .bench_out/compare-....jsonl

Both sides run this checkout's benchmark code on every workload of
BENCHMARK.json, with its run length.  Pair i (of ten) runs both sides on
seed 1+i, the parent first on even pairs and the change first on odd
ones.  Each run is stored as one JSON line, with its stdout digests, so a
comparison can be re-read with --from.

Each workload x end-to-end metric gets its own row, classified by the
rule of the choosing-metrics guide (section 8):
- improved: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
- unresolved: fewer than 10 pairs, or the parent's own spread (IQR over
  median) is wider than the metric's bound, unless every change run
  reads better than every parent run;
- regressed: the change's median is worse than the parent's by more
  than the bound;
- within bound: otherwise.
The share of failed commands is compared per workload as well: more
failures on the change side is a regression whatever the times say.  A
change-side command whose stdout differs from the parent's on the same
seed counts as failed, since the CLI output may not change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def classify(parent, change, better, bound) -> str:
    """Status of one metric from per-pair values of both sides."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (p_med - c_med)
    if wins >= MIN_WIN_SHARE * n and gain > q3 - q1:
        return "improved"
    all_better = (max(change) < min(parent) if sign > 0
                  else min(change) > max(parent))
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "regressed"
    return "within bound"


def differing_outputs(parent, change) -> int:
    """Commands of one seed whose stdout digest differs between the two
    sides (or that only one side ran)."""
    return sum(1 for key in parent.keys() | change.keys()
               if parent.get(key) != change.get(key))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(rows, spec) -> list:
    """Table rows (workload, metric, parent, change, wins, status)."""
    out = []
    workloads = sorted({r["workload"] for r in rows})
    for wl in workloads:
        by_side = {"parent": {}, "change": {}}
        for r in rows:
            if r["workload"] == wl:
                by_side[r["side"]][r["pair"]] = r
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [by_side["parent"][i]["result"]["metrics"][name]["value"]
                 for i in pairs]
            c = [by_side["change"][i]["result"]["metrics"][name]["value"]
                 for i in pairs]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            out.append((wl, name, _quartiles(p), _quartiles(c),
                        f"{wins}/{len(pairs)}",
                        classify(p, c, m["better"], m["bound"])))
        failed = {side: sum(by_side[side][i]["result"]["failed"] for i in pairs)
                  for side in by_side}
        failed["change"] += sum(differing_outputs(by_side["parent"][i]["digests"],
                                                  by_side["change"][i]["digests"])
                                for i in pairs)
        frac = {side: failed[side] / max(1, sum(
            by_side[side][i]["result"]["attempted"] for i in pairs))
            for side in by_side}
        status = ("regressed" if frac["change"] > frac["parent"] else
                  "improved" if frac["change"] < frac["parent"] else "same")
        out.append((wl, "failed_frac", (frac["parent"],) * 3,
                    (frac["change"],) * 3, "-", status))
    return out


def print_report(table):
    print(f"{'workload':8} {'metric':12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>6}  status")
    for wl, name, p, c, wins, status in table:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{wl:8} {name:12} {fmt(p):>30} {fmt(c):>30} {wins:>6}  {status}")


def run_side(src, workload, seed, seconds):
    """One untraced run; returns (its result line, its stdout digests)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", src],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"run on {src} failed: {out.stderr.strip()[-500:]}")
    lines = out.stdout.strip().splitlines()
    record = next(line.split(" ", 1)[1] for line in lines
                  if line.startswith("record "))
    with open(record, encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    return json.loads(lines[-1]), digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two conjlab trees")
    p.add_argument("--parent-src")
    p.add_argument("--change-src")
    p.add_argument("--from", dest="from_file",
                   help="re-read the runs of an earlier comparison")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.from_file:
        with open(args.from_file, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    else:
        if not (args.parent_src and args.change_src):
            p.error("give --parent-src and --change-src, or --from")
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out",
                            f"compare-{time.strftime('%Y%m%dT%H%M%S')}.jsonl")
        sides = {"parent": args.parent_src, "change": args.change_src}
        rows = []
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(MIN_PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for wl in (w["name"] for w in spec["workloads"]):
                    for side in order:
                        result, digests = run_side(sides[side], wl, 1 + i,
                                                   spec["run_seconds"])
                        row = {"pair": i, "side": side, "workload": wl,
                               "seed": 1 + i, "result": result, "digests": digests}
                        rows.append(row)
                        fh.write(json.dumps(row) + "\n")
                        fh.flush()
        print(f"runs stored in {path}")
    print_report(report(rows, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
