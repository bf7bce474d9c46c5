"""The test harness itself: a failing test must not stop the session.

With ``filterwarnings = ["error"]``, a warning raised inside a pytest hook
becomes an exception there, and pytest ends the whole run with
INTERNALERROR. Hypothesis's report hook can raise one (a DeprecationWarning
from mypy_extensions) while it reports a falsifying example, so one failing
``@given`` test would hide every test after it.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 5


def test_after_it():
    pass
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    test_file = tmp_path / "test_sample.py"
    test_file.write_text(FAILING_THEN_PASSING)
    # Run from tmp_path, so that the inner run's .hypothesis/ lands there.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
