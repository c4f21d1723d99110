"""Every script in demos/ runs to the end without an exception or a warning."""
import contextlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    assert [str(w.message) for w in caught] == []
