"""The repository's pytest settings report a failing test instead of aborting."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(0, 10))
def test_falsified(n):
    assert n < 5


def test_passing():
    assert True
'''


def test_a_falsified_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # with filterwarnings = ["error"] alone, the warning the hypothesis plugin
    # raises while it reports a falsifying example became an INTERNALERROR that
    # ended the session, and the tests after it never ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
