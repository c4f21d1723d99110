"""The unit of benchmark work: one library call plus its reference check."""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    kind: str  # op class; the generator gives each class a fixed quota
    label: str  # the input, printed when the check fails
    call: Callable  # call(lib) -> output; the only part that is timed
    check: Callable  # check(output) -> bool; built before, run after timing


def cli(argv):
    """An op body running nevanlab.cli.main in process.

    The output is (exit code, stdout text); stderr status lines are dropped.
    """
    def call(lib):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, out.getvalue()
    return call


def cli_report(output):
    """The JSON report of a CLI op, or None when the command failed."""
    code, text = output
    if code not in (0, 1):
        return None
    return json.loads(text)["report"]
