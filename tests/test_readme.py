"""Every `padicforms ...` line of README.md's sh blocks runs as documented."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from padicforms.cli import dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_requests():
    """(argv, comment) for each `padicforms` line inside a ```sh block."""
    out, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("padicforms "):
            command, _, comment = line.partition(" #")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


REQUESTS = _readme_requests()


def _expected(comment):
    """(exit code, stated result or None): `exit N` names the code, else 0;
    `exact: X`, or a comment that is one rational X, states the result X."""
    code = re.search(r"\bexit (\d+)", comment)
    result = re.fullmatch(r"(?:exact: )?(-?\d+(?:/\d+)?)", comment)
    return (int(code.group(1)) if code else 0,
            Fraction(result.group(1)) if result else None)


def _exact_results(out):
    """The exact rationals a request prints as its result: its "value",
    "exact" or "bound", either a {"num", "den"} pair or a string such as "3/2"."""
    printed = json.loads(out)
    for key in ("value", "exact", "bound"):
        value = printed.get(key)
        if isinstance(value, dict) and set(value) == {"num", "den"}:
            yield Fraction(int(value["num"]), int(value["den"]))
        elif isinstance(value, str):
            yield Fraction(value)


def test_the_readme_shows_requests_and_states_their_results():
    expected = [_expected(comment) for _, comment in REQUESTS]
    assert len(REQUESTS) >= 10
    assert any(code == 3 for code, _ in expected)
    assert sum(result is not None for _, result in expected) >= 4


@pytest.mark.parametrize("argv, comment", REQUESTS, ids=[" ".join(a) for a, _ in REQUESTS])
def test_readme_request_runs_as_documented(capsys, argv, comment):
    code, result = _expected(comment)
    assert dispatch(argv) == code
    if result is not None:
        out = capsys.readouterr().out
        assert result in set(_exact_results(out))
