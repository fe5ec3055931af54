"""The same bytes on every Python.

Under each of python3.10 to python3.13 found on PATH, importing conjlab
from this checkout's `src/`, each golden corpus of `tests/test_corpus.py`
must give its committed exit codes and digests, run in one child process
per corpus and interpreter.  The corpora are the one byte check: the digests
were taken from the program as it stood, so an interpreter that prints
other bytes, by `sum` over floats (compensated from 3.12 on), float
formatting, exact rationals, the int/str digit limit or the Unicode digits
that the hand-written decoders accept, moves a digest.  Under each of them
too, `cli.parse` must read every argument list as the full argparse tree
does, since argparse's edge cases (`--`, values that start with "-")
change between releases, and importing `conjlab.cli` must load neither
`dataclasses` nor `argparse`.  Where a pyenv shim does not select an
installed release, PYENV_VERSION selects it; an interpreter that still
cannot start is skipped.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from test_cli import parser_cases

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# parses each argv of a JSON list on stdin with `cli.parse` and with the
# full tree; prints the JSON list of their [outcome, stdout, stderr] pairs,
# an outcome being the namespace's repr or the exit code
PARSE_RUNNER = """
import contextlib, io, json, sys
from conjlab import cli
def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = repr(parse(argv))
        except SystemExit as exc:
            got = exc.code
    return [got, out.getvalue(), err.getvalue()]
results = []
for argv in json.load(sys.stdin):
    results.append([outcome(lambda argv: cli.parse(argv, 10**6), argv),
                    outcome(lambda argv: cli.build_parser(10**6).parse_args(argv), argv)])
json.dump(results, sys.stdout)
"""

# runs the golden corpus named on stdin through `main` in the current
# directory; prints the JSON list of the argv whose exit code or digests moved
DIGEST_RUNNER = f"""
import json, sys
sys.path.insert(0, {str(TESTS)!r})
from test_corpus import digests_moved
json.dump(digests_moved(json.load(sys.stdin)), sys.stdout)
"""


# command lines the command table reads, then ones it leaves to argparse
ACCEPTED = [
    ["graph", "--model", "h3", "--base", "e", "--radius", "2"],
    ["graph", "--radius", "1_000", "--suppress-loops", "--model", "h3", "--suppress-loops",
     "--base", "x", "--format", "json", "--format", "dot"],
    ["bc", "--model", "free2", "--k", "x1^-1", "--k", "", "--k", "x1", "--diam-budget", "0"],
    ["derive", "--potential", "p.json", "--element", "e", "-p", "inf"],
    ["derive", "--element", "1,2", "-p", "nan", "--potential", "p", "-p", "1e3"],
    ["leibniz", "--potential", "p", "--samples", "7", "--seed", "1_000"],
    ["character", "--potential", "p", "--u", "", "--v", "x1^-1"],
    ["quasi-inner", "--potential", "p", "--seed", "0", "--samples", "0"],
    ["stabilise", "--potential", "p", "--base", "e", "--radius", "3", "--radii", "0,1,2"],
    ["bound-probe", "--potential", "p", "--radius", "0", "-p", "1.5", "--budget-nodes", "7"],
    ["appendix"],
    ["appendix", "--m-max", "3", "--n-max", "2", "--format", "json"],
    ["appendix", "--m-max", "\u0663"],
    ["limit", "--potential", "p", "--conjugator", "Ax.Ap", "--q", "inf", "--k-max", "0"],
    ["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2", "--tail", "x1",
     "--budget", "4", "--budget-nodes", "9"],
]
DECLINED = [
    ["appendix", "--m-max", "-3"],
    ["appendix", "--n-max=2"],
    ["appendix", "--m", "2"],
    ["appendix", "--", "--m-max", "2"],
    ["appendix", "--m-max", "2", "--"],
    ["appendix", "--m-max", "1" * 5000],
    ["appendix", "--format", "json", "extra"],
    ["appendix", "--help"],
    ["derive", "--potential", "p", "--element", "-e"],
    ["derive", "--potential", "p", "--element", "e", "-p-1"],
    ["derive", "--potential", "p", "--element", "e", "-p", "-inf"],
    ["leibniz", "--potential", "p", "--seed", "-5"],
    ["limit", "--potential", "p", "--conjugator", "a", "--q", "-1"],
    ["bc", "--model", "h3", "--k", "-"],
    ["bc", "--model", "h3"],
    ["stabilise", "--potential", "p", "--base", "e", "--radius", "1", "--radii", "1,-1"],
    ["graph", "--model", "h3", "--base", "e", "--radius", "x"],
    ["graph", "--model", "h3", "--base", "e", "--radius", "1", "--format", "svg"],
    ["inverse-seq", "--model", "free2", "--u", "x1", "--conjugator", "x2", "--tail"],
]


def run_child(python, env, runner, cases=(), cwd=None):
    env = dict(env, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([python, "-c", runner], input=json.dumps(cases), env=env, cwd=cwd,
                          capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def starts(python, env) -> bool:
    try:
        return subprocess.run([python, "-c", "pass"], capture_output=True, env=env,
                              timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


def interpreter_env(python, version):
    """An environment in which `python` starts, or None: this process's, or
    one whose PYENV_VERSION selects an installed `version`.* release, for a
    pyenv shim that exits 127 when no selected version provides it."""
    if starts(python, os.environ):
        return dict(os.environ)
    if shutil.which("pyenv") is None:
        return None
    try:
        installed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                                   text=True, timeout=60).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return None
    for release in installed:
        env = dict(os.environ, PYENV_VERSION=release)
        if release.startswith(version + ".") and starts(python, env):
            return env
    return None


def started(version):
    """python`version` and an environment in which it starts, or a skip."""
    python = f"python{version}"
    env = interpreter_env(python, version)
    if env is None:
        pytest.skip(f"{python} cannot start")
    return python, env


def check_corpus_digests(python, env, name, directory):
    # the committed digests, not this interpreter's output
    env.pop("CONJLAB_DEFAULT_BUDGET", None)
    assert run_child(python, env, DIGEST_RUNNER, name, cwd=directory) == []


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_corpus_digests_on_every_python(tmp_path, version):
    check_corpus_digests(*started(version), "potential", tmp_path)


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_command_corpus_digests_on_every_python(tmp_path, version):
    check_corpus_digests(*started(version), "command", tmp_path)


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_parse_reads_as_the_full_tree_on_every_python(version):
    python, env = started(version)
    cases = ACCEPTED + DECLINED + [argv for _, argv in parser_cases()]
    got = run_child(python, env, PARSE_RUNNER, cases)
    for argv, (ours, full) in zip(cases, got):
        assert ours == full, argv
    assert all(isinstance(ours[0], str) for ours, _ in got[:len(ACCEPTED)])


# imports conjlab.cli in a fresh interpreter, then runs well-formed
# commands, help and a usage error through `main`; prints a JSON object of
# the start-up modules it loaded, whether argparse is loaded after each
# run, and what help and the usage error printed through `main` and
# through the full tree
STARTUP_RUNNER = """
import contextlib, io, json, sys
before = set(sys.modules)
from conjlab import cli
report = {"loaded": sorted({"dataclasses", "inspect", "argparse"}
                           & (set(sys.modules) - before))}
def run(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue(), "argparse" in sys.modules]
well_formed = [["appendix", "--m-max", "2", "--format", "json"],
               ["bc", "--model", "h3", "--k", "H3(1,0,0)", "--cayley-radius", "2"]]
report["well_formed"] = [run(cli.main, argv) for argv in well_formed]
refused = [["bc", "--help"], ["appendix", "--m-max", "x"]]
report["main"] = [run(cli.main, argv) for argv in refused]
full = cli.build_parser(10**6).parse_args
report["full_tree"] = [run(full, argv) for argv in refused]
json.dump(report, sys.stdout)
"""


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_start_up_loads_neither_dataclasses_nor_argparse(version):
    python, env = started(version)
    env = dict(env, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([python, "-c", STARTUP_RUNNER], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    for code, out, err, argparse_loaded in report["well_formed"]:
        assert (code, err, argparse_loaded) == (0, "", False) and out
    assert [run[0] for run in report["main"]] == [0, 2]
    assert all(run[3] for run in report["main"])
    assert report["main"] == report["full_tree"]
