"""Every ``$ gninterp ...`` example in README.md prints what the README shows."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from gninterp.cli import ENV_CONFIG, main

README = Path(__file__).resolve().parents[1] / "README.md"

# Same tolerance as a cross-CPU float comparison: np.exp may differ by an ulp.
REL_TOL = 1e-12


def readme_examples():
    """(command, expected output lines) for each ``$ gninterp`` line.

    A trailing backslash continues the command on the next line; the output
    runs to the next blank line or the end of the code block.
    """
    examples = []
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if not line.startswith("$ gninterp "):
            continue
        command = line[2:]
        while command.endswith("\\"):
            command = command[:-1] + next(lines).strip()
        output = []
        for out in lines:
            if not out.strip() or out.startswith("```"):
                break
            output.append(out)
        examples.append((command, output))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert {shlex.split(cmd)[1] for cmd, _ in EXAMPLES} >= {
        "params", "norm", "check", "sweep", "derive", "oracle",
    }


def same_line(got, want):
    """Text tokens equal, float tokens within REL_TOL."""
    sep = r"([,\s]+)"
    got_tok, want_tok = re.split(sep, got), re.split(sep, want)
    if len(got_tok) != len(want_tok):
        return False
    for a, b in zip(got_tok, want_tok):
        if a == b:
            continue
        try:
            fa, fb = float(a), float(b)
        except ValueError:
            return False
        if not math.isclose(fa, fb, rel_tol=REL_TOL, abs_tol=0.0):
            return False
    return True


@pytest.mark.parametrize(
    "command,expected", EXAMPLES, ids=[shlex.split(cmd)[1] for cmd, _ in EXAMPLES]
)
def test_readme_example(command, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command)[1:])
    assert (code, err.getvalue()) == (0, "")
    got = out.getvalue().splitlines()
    assert len(got) == len(expected), out.getvalue()
    for g, w in zip(got, expected):
        assert same_line(g, w), f"got {g!r}, README shows {w!r}"
