"""conjlab benchmark: seeded command streams run through `conjlab.cli.main`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {search,exact,batch} --seed N \
        --seconds S --trace {0,1} [--smoke] [--src DIR]

Each run builds the workload's command stream from the seed and runs it
in a closed loop (one client, one command at a time) in passes, each in
a fresh child process that imports conjlab from `src/`.  Every command
has a fixed number of runs, one per pass; once each command has run, no
pass starts after S seconds.  Every command's exit code and stdout
digest is checked.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones from `tracer.py`.  A full
record with run metadata, per-command times and digests is written under
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_SAMPLES = 7  # set-up times per run, the median of which is setup_s
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def count_failures(commands, execs, reference) -> int:
    """Executions that exited non-zero or printed other bytes than the
    reference digest; without a reference, other bytes than the first
    execution of the same command."""
    first = {}
    failed = 0
    for idx, _, code, digest in execs:
        key = commands[idx].key
        expected = reference.get(key) or first.setdefault(key, digest)
        if code != 0 or digest != expected:
            failed += 1
    return failed


def latency_summary(commands, execs) -> dict:
    """Per-command latency, and the stream statistics built on it: wall
    time of the whole stream once (their sum), the median command and the
    highest percentile with TAIL_BEYOND commands beyond it.

    A command's latency is the fastest of its runs, each in its own
    fresh child.  Other work on the machine only ever adds time, and on a
    shared host it comes in phases of tens of seconds that move a median
    over one run by up to a third.
    """
    latencies = [math.inf] * len(commands)
    for idx, latency, _, _ in execs:
        latencies[idx] = min(latencies[idx], latency)
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"stream of {n} commands has no tail percentile")
    return {
        "latencies": latencies,
        "wall_s": sum(latencies),
        "cmd_p50_ms": 1e3 * statistics.median(latencies),
        "cmd_tail_ms": 1e3 * ordered[n - 1 - TAIL_BEYOND],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "tail_samples": n,
    }


# ---------------------------------------------------------------------------
# Child processes


def run_child(spec: dict, spec_path: str):
    """Run one child on `spec`; returns (its result, its set-up time)."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    # unbuffered, so that the rest of the output stays in the pipe for
    # communicate() after the "ready" line is read
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"benchmark child ran over {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), setup


def plan_passes(commands) -> list:
    """Indices of the commands each pass runs, in stream order.

    With P passes (the most runs of any command), command i with r runs
    goes in passes (i + k P // r) mod P for k < r: the runs of each
    command are evenly spaced over the run, so a slow phase of the host
    in part of the run does not cover all of them, and the few runs of
    the long commands fall in different passes.
    """
    n_passes = max(c.runs for c in commands)
    passes = [[] for _ in range(n_passes)]
    for i, c in enumerate(commands):
        for k in range(c.runs):
            passes[(i + k * n_passes // c.runs) % n_passes].append(i)
    return passes


def measure(spec, spec_path, passes, seconds):
    """Run each pass in a fresh child, so no command is timed on state a
    previous run of it left behind; once every command has run, start no
    pass after `seconds`.  Set-up-only children follow until there are
    SETUP_SAMPLES set-up times.  Returns (executions, set-up times, peak
    resident memory in kB, passes run)."""
    execs, setups, rss = [], [], 0
    unrun = set(range(len(spec["commands"])))
    start = time.perf_counter()
    for indices in passes:
        if not unrun and time.perf_counter() - start >= seconds:
            break
        result, setup = run_child(dict(spec, indices=indices), spec_path)
        execs += result["execs"]
        unrun.difference_update(indices)
        setups.append(setup)
        rss = max(rss, result["peak_rss_kb"])
    ran = len(setups)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(dict(spec, indices=[]), spec_path)[1])
    return execs, setups, rss, ran


# ---------------------------------------------------------------------------
# Metadata


def _source_digest(src) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "conjlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit(src):
    # a benchmark checkout need not be a git repository
    if not os.path.isdir(os.path.join(os.path.dirname(src), ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _workload_why(name):
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), None)


def metadata(args, commands) -> dict:
    return {
        "workload": args.workload,
        "why": _workload_why(args.workload),
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "conjlab_commit": _git_commit(args.src),
        "conjlab_src_sha256": _source_digest(args.src),
        "commands": len(commands),
        "mix": dict(collections.Counter(c.kind for c in commands)),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--src", default="src",
                   help="directory holding the conjlab package")
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's digests as reference digests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(args.src, "conjlab", "cli.py")):
        print(f"error: no conjlab package under {args.src!r}; "
              "run from the root of a conjlab checkout", file=sys.stderr)
        return 2
    args.src = os.path.abspath(args.src)
    tag = f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
    commands = workloads.build(args.workload, args.seed,
                               os.path.join(OUT_DIR, "pot"), args.smoke)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    spec = {
        "src": args.src,
        "commands": [list(c.argv) for c in commands],
        "trace": False,
        "spans_path": os.path.abspath(os.path.join(OUT_DIR, f"spans-{tag}.json")),
    }
    spec_path = os.path.join(OUT_DIR, f"spec-{tag}-{os.getpid()}.json")
    passes = plan_passes(commands)
    try:
        if args.trace:
            # one untraced pass is the base of the tracing overhead
            stream = list(range(len(commands)))
            untraced, _ = run_child(dict(spec, indices=stream), spec_path)
            traced, _ = run_child(dict(spec, indices=stream, trace=True),
                                  spec_path)
            execs = untraced["execs"] + traced["execs"]
            ran = 1
        else:
            execs, setups, rss, ran = measure(spec, spec_path, passes,
                                              args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(spec_path):
            os.remove(spec_path)

    reference = {} if args.update_reference else load_reference()
    failed = count_failures(commands, execs, reference)
    digests = {commands[idx].key: digest for idx, _, _, digest in execs}
    record = metadata(args, commands)
    record.update(passes=ran, attempted=len(execs), failed=failed,
                  failed_frac=failed / len(execs), digests=digests)

    if args.trace:
        untraced_wall = latency_summary(commands, untraced["execs"])["wall_s"]
        traced_wall = latency_summary(commands, traced["execs"])["wall_s"]
        cli_wall = collections.defaultdict(float)
        for idx, latency, _, _ in untraced["execs"]:
            cli_wall[commands[idx].argv[0]] += latency
        values = tracer.layer_metrics(traced["layers"], untraced_wall,
                                      traced_wall, cli_wall)
        units = dict(tracer.PER_LAYER)
        shares = tracer.self_time_shares(traced["layers"])
        record.update(spans_path=spec["spans_path"], self_time_shares=shares)
        print(f"{tag}: one traced pass; tracing overhead "
              f"{values['trace.overhead_s']:.3f} s; self-time shares "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    else:
        lat = latency_summary(commands, execs)
        values = {
            "wall_s": lat["wall_s"],
            "cmd_p50_ms": lat["cmd_p50_ms"],
            "cmd_tail_ms": lat["cmd_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss / 1024,
        }
        units = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        record.update(
            tail_percentile=lat["tail_percentile"], tail_samples=lat["tail_samples"],
            setup_samples_s=setups,
            baseline_ms={c.baseline: 1e3 * t for c, t in zip(commands, lat["latencies"])
                         if c.baseline},
            command_ms={c.key: 1e3 * t for c, t in zip(commands, lat["latencies"])},
        )
        print(f"{tag}: {record['commands']} commands, {len(execs)} runs in "
              f"{ran} of {len(passes)} passes; "
              f"tail is p{lat['tail_percentile']:.1f} of {lat['tail_samples']} "
              f"per-command latencies; failed_frac {record['failed_frac']:.4f}")
        for label, ms in record["baseline_ms"].items():
            print(f"  baseline {label:<16} {ms:10.1f} ms")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(OUT_DIR, "results",
                               f"{tag}-t{args.trace}-{stamp}-{os.getpid()}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"record {record_path}")

    if args.update_reference:
        if failed:
            print("error: not storing digests of a run with failures",
                  file=sys.stderr)
            return 1
        stored = load_reference() if os.path.exists(REFERENCE) else {}
        stored.update(digests)
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=0, sort_keys=True)
            fh.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(execs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
