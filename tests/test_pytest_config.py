"""The repository's pytest configuration reports a failing hypothesis
test and goes on.  Hypothesis's failure report imports libcst, which
warns that mypy_extensions.TypedDict is deprecated; under
error::DeprecationWarning alone that warning aborted the whole run with
an INTERNALERROR, losing the falsifying example and every later test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PLANTED = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_planted_failure(x):
    assert x < 10


def test_after():
    pass


def test_own_deprecation():
    warnings.warn("planted", DeprecationWarning)
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_planted.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
