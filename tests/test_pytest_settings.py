"""The repo's pytest settings keep a failing property test readable.

``pytest.ini`` turns every ``DeprecationWarning`` into an error.  When a
hypothesis property fails, hypothesis's report hook imports ``libcst``,
which warns through ``mypy_extensions.TypedDict``; unfiltered, that warning
ends the run in ``INTERNALERROR`` with no falsifying example and no later
test.  The check runs pytest in a fresh interpreter, under a copy of the
repo's ini, on a property that fails on purpose.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SUITE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_a_failing_property(value):
    assert value < 5


def test_the_test_after_it():
    pass
"""


def test_a_failing_property_reports_its_example_and_the_run_goes_on(tmp_path):
    shutil.copy(os.path.join(REPO, "pytest.ini"), tmp_path / "pytest.ini")
    (tmp_path / "test_property.py").write_text(_SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert "1 failed, 1 passed" in output, output
