"""The demos print what they printed when their stdout was recorded in
tests/fixtures/demos/<demo>.txt, byte for byte.

Each demo runs as a script in a fresh interpreter, as a reader runs it,
with the package on PYTHONPATH.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = ROOT / "tests" / "fixtures" / "demos"


def test_every_demo_has_a_fixture():
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in FIXTURES.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MDEG_SEED", None)
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (FIXTURES / f"{demo.stem}.txt").read_bytes()
