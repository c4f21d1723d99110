"""The README's command block runs as written.

Each line of the block under "## Command line" (backslash continuations
joined) runs in process through cli.main, and its exit code and stderr
status line are pinned here, so a README example that drifts from the
program fails this test.
"""
import contextlib
import io
import pathlib
import shlex

import pytest

from nevanlab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# first two words after "nevanlab" -> (exit code, stderr)
EXPECTED = {
    "characteristic --f": (0, ""),
    "verify fmt": (0, "fmt: PASS\n"),
    "verify smt": (0, "smt: PASS\n"),
    "verify logderiv": (0, "logderiv: PASS\n"),
    "verify hinchliffe": (0, "hinchliffe: PASS\n"),
    "verify lemma3": (0, "lemma3: PASS\n"),
    "expand --n": (0, ""),
    "criteria th1": (0, ""),
    "criteria cor2": (1, ""),
    "marty --family": (0, "marty: NORMAL-CONSISTENT\n"),
    "zalcman --family": (0, "zalcman: converged\n"),
    "remark14 --family": (0, "remark14: PASS (main_converged=True, extras_vanish=True)\n"),
}


def _readme_commands():
    block = README.read_text(encoding="utf-8").split("## Command line")[1].split("```")[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").strip().splitlines()]


def test_readme_block_is_pinned():
    commands = _readme_commands()
    assert all(argv[0] == "nevanlab" for argv in commands)
    assert [" ".join(argv[1:3]) for argv in commands] == list(EXPECTED)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv[1:])
    assert (code, err.getvalue()) == EXPECTED[" ".join(argv[1:3])]
    assert out.getvalue()
