"""The repository's pytest configuration."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_is_a_failure_not_a_crash(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import;
    # the "error" filter must not turn that into an INTERNALERROR (exit 3)
    (tmp_path / "test_probe.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in run.stdout
