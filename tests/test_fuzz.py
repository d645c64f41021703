"""The exit-code contract on edited ring and points files.

Each case takes a golden command of tests/test_cli.py whose input is a
ring file, or the points file good_pts or bad_pts, applies one to three
token edits to that file (delete, insert, replace or duplicate a token),
and runs the command through cli.main in process under a time limit.
Every case must exit 0, 2, 3 or 4; an input error in the file must name
a line of the file, or the line after it, and a column inside that line
or one past its end.  A ring file must read as the reference parser
(tests/ref_inputlang.py) reads it, and every input error in a points
file must name its line.  The draw is seeded and uses only the standard
library.
"""

import contextlib
import io
import pathlib
import random
import re
from unittest import mock

import ref_inputlang
from conftest import time_limit
from mdeg.cli import main
from mdeg.inputlang import parse_input
from test_cli import FIXTURE_FILES, GOLDEN_CASES, GOLDEN_FILES
from test_inputlang import session_outcome

CASES = 300
SEED = 20261020
SECONDS = 3

# the golden commands whose second argument names a ring file
RING_COMMANDS = sorted(
    name
    for name, args in GOLDEN_CASES.items()
    if args[1:2] and args[1].startswith("{") and "--points" not in args
)
# a token outside a comment
TOKEN = re.compile(r"#[^\n]*|(\d+|[A-Za-z_][A-Za-z0-9_']*|[=\[\]();,+\-*^/])")
# tokens an edit may insert beside the file's own, with characters no
# token takes and a comment sign
OPERATORS = ["+", "-", "*", "^", "/"]
INSERTS = ["0", "1", "2", "7", "x", "y0", "(", ")", "[", "]", ";", "=", ","] + OPERATORS + [
    "field", "vars", "deg", "ideal", "QQ", "Fp", "$", "#"]
ERROR_AT = re.compile(r"input error: line (\d+), col (\d+): ")
# the golden commands that read the points file good_pts or bad_pts
POINTS_COMMANDS = sorted(
    name for name, args in GOLDEN_CASES.items() if "{good_pts}" in args or "{bad_pts}" in args
)
# a token of a points file outside a comment, line breaks among them, and
# tokens an edit may insert, a comment sign and non-integers among them
POINT_TOKEN = re.compile(r"#[^\n]*|(-?\d+|[,\n-])")
POINT_INSERTS = ["0", "1", "2", "-1", "20", "-", ",", "\n", "+3", "x", "1.5", "#"]


def ring_text(key):
    if key in GOLDEN_FILES:
        return GOLDEN_FILES[key]
    return pathlib.Path(FIXTURE_FILES[key]).read_text()


def kind(token):
    return "num" if token.isdigit() else "name" if token[0].isalpha() or token[0] == "_" else token


def edit(rng, text, pattern=TOKEN, inserts=INSERTS):
    """`text` with one token of `pattern` deleted, duplicated, preceded by
    another token, or replaced by another token, which half the time is
    one of the file's tokens of the same kind (an operator only by an
    operator).  Half the edits fall after the file's first [, among the
    generators, when it has one."""
    spans = [m.span(1) for m in pattern.finditer(text) if m.group(1)]
    if not spans:
        return text + rng.choice(inserts)
    tokens = [text[c:d] for c, d in spans]
    first = tokens.index("[") if "[" in tokens and rng.random() < 0.5 else 0
    a, b = rng.choice(spans[first:])
    token = rng.choice(inserts + tokens)
    how = rng.choice(["delete", "insert", "replace", "replace alike", "duplicate"])
    if how == "delete":
        return text[:a] + text[b:]
    if how == "insert":
        return text[:a] + token + " " + text[a:]
    if how == "replace alike":
        like = kind(text[a:b])
        token = rng.choice(OPERATORS if like in OPERATORS else [t for t in tokens if kind(t) == like])
    if how.startswith("replace"):
        return text[:a] + token + text[b:]
    return text[:b] + " " + text[a:b] + text[b:]


def run(argv):
    """(exit code, stderr) of cli.main(argv), stdin empty."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch("sys.stdin", io.StringIO("")), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # an argparse usage error
        rc = exc.code
    return rc, err.getvalue()


def check(text, argv):
    """What breaks the contract when argv runs on the edited file `text`,
    and the exit code."""
    problems = []
    try:
        with time_limit(SECONDS):
            rc, err = run(argv)
    except TimeoutError:
        return [f"still running after {SECONDS} s"], None
    if rc not in (0, 2, 3, 4):
        problems.append(f"exit code {rc}: {err}")
    m = ERROR_AT.match(err)
    if m:
        lines = text.splitlines()
        line, col = int(m.group(1)), int(m.group(2))
        if not 1 <= line <= len(lines) + 1 or not 1 <= col <= len((lines + [""])[line - 1]) + 1:
            problems.append(f"position outside the file: {err}")
    elif rc == 2 and "--points" in argv:
        problems.append(f"no position: {err}")
    return problems, rc


def test_edited_ring_files_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "edited.ring"
    failures = []
    for _ in range(CASES):
        name = rng.choice(RING_COMMANDS)
        argv = list(GOLDEN_CASES[name])
        text = ring_text(argv[1][1:-1])
        for _ in range(rng.randint(1, 3)):
            text = edit(rng, text)
        path.write_text(text)
        argv[1] = str(path)
        problems, _ = check(text, argv)
        if session_outcome(parse_input, text) != session_outcome(ref_inputlang.parse_input, text):
            problems.append("read otherwise than by the reference parser")
        failures += [f"{name} on {text!r}: {problem}" for problem in problems]
    assert not failures, "\n".join(failures[:10])


def test_edited_points_files_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "edited.pts"
    failures, codes = [], set()
    for _ in range(CASES):
        name = rng.choice(POINTS_COMMANDS)
        argv = list(GOLDEN_CASES[name])
        i = argv.index("--points") + 1
        text = GOLDEN_FILES[argv[i][1:-1]]
        for _ in range(rng.randint(1, 3)):
            text = edit(rng, text, POINT_TOKEN, POINT_INSERTS)
        path.write_text(text)
        argv[i] = str(path)
        problems, rc = check(text, argv)
        codes.add(rc)
        failures += [f"{name} on {text!r}: {problem}" for problem in problems]
    assert not failures, "\n".join(failures[:10])
    # the draw reaches answers and input errors both
    assert {0, 2, 4} <= codes
