"""The benchmark's layer tracer sees the kernels' work.

`bench/tracer.py` wraps conjlab names from outside and counts what the
wrapped calls do.  Each command below runs in process under an installed
`Tracer`, and the counters that the benchmark reports for it must read the
work the command's kernel did, not 0: a refactor that moves a kernel off a
wrapped name fails here instead of silently zeroing a per-layer metric.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import conjlab
from conjlab import cli, get_model

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("conjlab_bench_tracer", BENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TWO_POINT = {"model": "h3", "table": [["H3(1,0,0)", "1"], ["H3(1,0,-1)", "1/2"]]}


@pytest.fixture
def two_point(tmp_path):
    path = tmp_path / "two_point.json"
    path.write_text(json.dumps(TWO_POINT))
    return str(path)


def traced(capsys, argv) -> dict:
    """The tracer's summary of one run of `argv` through `cli.main`."""
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(argv) == 0
    finally:
        t.uninstall()
    assert capsys.readouterr().out
    return t.summary()


def test_bc_counts_its_ball_and_distances(capsys):
    summary = traced(capsys, ["bc", "--model", "free2", "--k", "x1", "--k", "x2.x1.x2^-1",
                              "--cayley-radius", "2", "--diam-budget", "4"])
    nodes = summary["work"].get("groups.cayley_ball.nodes", 0)
    assert nodes == len(get_model("free2").cayley_ball(2))
    assert summary["calls"].get("graph.conj_distance", 0) > 0


def test_bound_probe_counts_its_ball(capsys, two_point):
    summary = traced(capsys, ["bound-probe", "--potential", two_point, "--radius", "2"])
    nodes = summary["work"].get("groups.cayley_ball.nodes", 0)
    assert nodes == len(get_model("h3").cayley_ball(2))


def test_inverse_seq_counts_its_distances(capsys):
    summary = traced(capsys, ["inverse-seq", "--model", "free2", "--u", "x1",
                              "--conjugator", "x2", "--k-max", "3", "--budget", "4"])
    assert summary["calls"].get("graph.conj_distance", 0) > 0


@pytest.mark.parametrize("argv", [
    ["stabilise", "--base", "H3(1,0,0)", "--radius", "3", "--radii", "0,1"],
    ["character", "--u", "H3(1,0,0)", "--v", "H3(0,1,0)"],
], ids=lambda argv: argv[0])
def test_potential_commands_count_their_values(capsys, two_point, argv):
    summary = traced(capsys, argv[:1] + ["--potential", two_point] + argv[1:])
    assert summary["calls"].get("derivations.Potential.value", 0) > 0


def test_uninstall_restores_every_name(capsys):
    originals = (conjlab.graph.conj_distance, conjlab.groups.GroupModel.cayley_ball,
                 conjlab.derivations.Potential.value, cli.cmd_bc)
    traced(capsys, ["bc", "--model", "h3", "--k", "H3(1,0,0)", "--cayley-radius", "1"])
    assert (conjlab.graph.conj_distance, conjlab.groups.GroupModel.cayley_ball,
            conjlab.derivations.Potential.value, cli.cmd_bc) == originals


@pytest.mark.parametrize("argv", [
    ["bc", "--model", "h3", "--k", "H3(1,0,0)", "--cayley-radius", "1"],
    ["derive", "--potential", None, "--element", "H3(0,1,0)"],
], ids=lambda argv: argv[0])
def test_a_run_counts_one_call_of_its_handler(capsys, two_point, argv):
    # the command table reads each handler from the module, where the tracer wraps it
    summary = traced(capsys, [two_point if arg is None else arg for arg in argv])
    assert summary["calls"].get(f"cli.{argv[0]}") == 1
