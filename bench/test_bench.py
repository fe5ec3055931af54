"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = next(line.split(" ", 1)[1] for line in out.stdout.splitlines()
                  if line.startswith("record "))
    with open(os.path.join(ROOT, record), encoding="utf-8") as fh:
        assert len(json.load(fh)["digests"]) == len(workloads.build(
            workload, 1, os.path.join(ROOT, run.OUT_DIR, "pot"), smoke=True))


def test_planted_wrong_digest_and_failing_command_are_counted(tmp_path):
    commands = workloads.build("batch", 1, str(tmp_path / "pot"), smoke=True)[:12]
    commands.append(workloads.Command(
        "graph", ("graph", "--model", "h3", "--base", "nope", "--radius", "1")))
    spec = {"src": SRC, "commands": [list(c.argv) for c in commands],
            "indices": list(range(len(commands))), "trace": False}
    result, _ = run.run_child(spec, str(tmp_path / "spec.json"))
    execs = result["execs"]
    assert len(execs) == len(commands)
    assert [e[2] for e in execs].count(2) == 1  # the bad encoding exits 2
    reference = {commands[idx].key: digest for idx, _, _, digest in execs}
    assert run.count_failures(commands, execs, reference) == 1
    planted = dict(reference, **{commands[3].key: "0" * 64})
    assert run.count_failures(commands, execs, planted) == 2
    # without a reference, a command must print the same bytes every time
    repeat = execs + [[0, 0.0, 0, "f" * 64]]
    assert run.count_failures(commands, repeat, {}) == 2


def test_reference_covers_the_default_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # potential files are written under the cwd
    reference = run.load_reference()
    for workload in workloads.WORKLOADS:
        for smoke in (False, True):
            cmds = workloads.build(workload, workloads.DEFAULT_SEED,
                                   os.path.join(run.OUT_DIR, "pot"), smoke)
            missing = [c.key for c in cmds if c.key not in reference]
            assert not missing, (workload, smoke, missing[:3])


def test_streams_are_seeded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    a = workloads.build("search", 1, os.path.join(run.OUT_DIR, "pot"))
    b = workloads.build("search", 1, os.path.join(run.OUT_DIR, "pot"))
    c = workloads.build("search", 2, os.path.join(run.OUT_DIR, "pot"))
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.argv for x in a] != [x.argv for x in c]
    assert sorted(x.baseline for x in a + workloads.build(
        "exact", 1, os.path.join(run.OUT_DIR, "pot")) if x.baseline) == sorted(
        workloads.BASELINE)


@pytest.mark.parametrize("model", workloads.MODELS)
def test_relabelled_inputs_do_the_same_work(model):
    from conjlab.cli import main

    def bc(ks):
        buf = io.StringIO()
        argv = ["bc", "--model", model]
        for p in ks:
            argv += ["--k", workloads.encode(model, p)]
        with redirect_stdout(buf):
            assert main(argv + ["--cayley-radius", "2", "--diam-budget", "3"]) == 0
        return json.loads(buf.getvalue())

    for seed in range(4):
        ks = workloads.distinct_payloads(model, Random(seed), 3, size=2)
        f = workloads.automorphism(model, Random(100 + seed))
        plain, relabelled = bc(ks), bc([f(p) for p in ks])
        assert plain["shells"] == relabelled["shells"]
        assert plain["verdict"] == relabelled["verdict"]


def test_latency_is_the_fastest_run_and_tail_has_ten_commands_beyond():
    commands = [workloads.Command("x", (str(i),)) for i in range(40)]
    execs = [[i, float(i), 0, ""] for i in range(40)]
    execs += [[i, float(i) + 0.5, 0, ""] for i in range(40)]  # slower repeats
    lat = run.latency_summary(commands, execs)
    assert lat["cmd_tail_ms"] == 29e3 and lat["tail_percentile"] == 75.0
    assert lat["wall_s"] == sum(range(40))


def test_passes_give_each_command_its_runs_evenly_spaced():
    runs = (1, 4, 2, 2, 1)
    commands = [workloads.Command("x", (str(i),), runs=r) for i, r in enumerate(runs)]
    passes = run.plan_passes(commands)
    assert passes == [[0, 1, 2, 4], [1, 3], [1, 2], [1, 3]]
    assert [sum(i in p for p in passes) for i in range(len(runs))] == list(runs)


def test_compare_counts_outputs_that_differ_from_the_parent():
    parent = {"a": "1", "b": "2", "c": "3"}
    assert compare.differing_outputs(parent, dict(parent)) == 0
    assert compare.differing_outputs(parent, dict(parent, b="x")) == 1
    assert compare.differing_outputs(parent, {"a": "1", "b": "2"}) == 1

    def row(side, digests, failed=0):
        return {"pair": 0, "side": side, "workload": "w", "digests": digests,
                "result": {"failed": failed, "attempted": 3, "metrics": {}}}

    spec = {"end_to_end": []}
    same = compare.report([row("parent", parent), row("change", parent)], spec)
    wrong = compare.report([row("parent", parent),
                            row("change", dict(parent, c="x"))], spec)
    assert same[-1][-1] == "same" and wrong[-1][-1] == "regressed"


def test_compare_classifies_each_case():
    parent = [10.0 + 0.1 * (i % 3) for i in range(10)]
    assert compare.classify(parent, [x * 0.5 for x in parent], "lower", 0.1) == "improved"
    assert compare.classify(parent, [x * 1.5 for x in parent], "lower", 0.1) == "regressed"
    assert compare.classify(parent, list(parent), "lower", 0.1) == "within bound"
    assert compare.classify(parent[:9], [x * 0.5 for x in parent[:9]], "lower",
                            0.1) == "unresolved"
    noisy = [10.0, 14.0] * 5
    assert compare.classify(noisy, [11.0, 13.0] * 5, "lower", 0.1) == "unresolved"
    assert compare.classify(parent, [x * 2 for x in parent], "higher", 0.1) == "improved"


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == ["search", "exact", "batch"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench("--workload", "search", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
