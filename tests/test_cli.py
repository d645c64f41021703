import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import pytest

from mdeg.cli import build_parser, main
from mdeg.inputlang import parse_input

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
EX46 = str(FIXTURES / "example46.ring")
RMK59 = str(FIXTURES / "remark59.ring")

SMALL = """\
field QQ
vars x y z
deg x = (1)
deg y = (1)
deg z = (1)
ideal I = [ x*y; x*z^2 ]
ideal Z = []
"""

WEIGHTED = """\
vars x y z
deg x = (1)
deg y = (1)
deg z = (2)
ideal I = [ x*y - z ]
"""


@pytest.fixture
def small(tmp_path):
    f = tmp_path / "small.ring"
    f.write_text(SMALL)
    return str(f)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_kpoly_json(small, capsys):
    rc, out, _ = run(capsys, ["kpoly", small, "--ideal", "I", "--json"])
    assert rc == 0
    obj = json.loads(out)
    terms = {tuple(t["exp"]): int(t["coeff"]) for t in obj["result"]["poly"]}
    assert terms == {(0,): 1, (2,): -1, (3,): -1, (4,): 1}


def test_empty_ideal_gives_unit_k(small, capsys):
    rc, out, _ = run(capsys, ["kpoly", small, "--ideal", "Z", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["result"]["poly"] == [{"coeff": "1", "exp": [0]}]


def test_cee_threefold_fixture(capsys):
    rc, out, _ = run(capsys, ["cee", EX46, "--ideal", "P", "--json"])
    assert rc == 0
    obj = json.loads(out)
    terms = {tuple(t["exp"]): int(t["coeff"]) for t in obj["result"]["poly"]}
    assert terms == {
        (3, 3, 0): 2, (3, 2, 1): 4, (3, 1, 2): 2, (2, 3, 1): 2, (2, 2, 2): 4
    }


def test_project_then_cee_pipe(capsys, monkeypatch):
    rc, projected, _ = run(capsys, ["project", EX46, "--ideal", "P", "--blocks", "2,3"])
    assert rc == 0
    session = parse_input(projected)  # round-trips through the grammar
    assert session.ring.p == 3 and session.ring.n == 8
    monkeypatch.setattr("sys.stdin", io.StringIO(projected))
    rc, out, _ = run(capsys, ["cee", "-", "--ideal", "P", "--json"])
    assert rc == 0
    obj = json.loads(out)
    terms = {tuple(t["exp"]): int(t["coeff"]) for t in obj["result"]["poly"]}
    # the projection keeps the original grading labels t2, t3
    assert terms == {(0, 3, 0): 2, (0, 2, 1): 4, (0, 1, 2): 2}


# Acceptance criterion 2: dim and C of each projection, C over the kept blocks.
PROJECTION_TABLE = {
    (1,): (1, {(2,): 2}),
    (2,): (2, {(1,): 2}),
    (3,): (3, {(0,): 1}),
    (1, 2): (2, {(3, 1): 2, (2, 2): 4}),
    (1, 3): (3, {(3, 0): 2, (2, 1): 2}),
    (2, 3): (3, {(3, 0): 2, (2, 1): 4, (1, 2): 2}),
}


@pytest.mark.parametrize("J", sorted(PROJECTION_TABLE))
def test_project_then_geom_pipe(J, capsys, monkeypatch):
    blocks = ",".join(map(str, J))
    rc, projected, _ = run(capsys, ["project", EX46, "--ideal", "P", "--blocks", blocks])
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(projected))
    rc, out, _ = run(capsys, ["geom", "-", "--ideal", "P", "--json"])
    assert rc == 0
    meta = json.loads(out)["result"]["meta"]
    dim, cee = PROJECTION_TABLE[J]
    # blocks left out keep their grading label but have no variables, so
    # they contribute 0 to the block dimension vector m = (3, 3, 3) - dropped
    entries = {}
    for exp, coeff in cee.items():
        n = [0, 0, 0]
        for k, e in zip(J, exp):
            n[k - 1] = 3 - e
        entries[tuple(n)] = coeff
    assert meta["dim"] == dim
    assert {tuple(e["n"]): e["e"] for e in meta["entries"]} == entries


def test_parse_error_reports_position(tmp_path, capsys):
    f = tmp_path / "bad.ring"
    f.write_text("vars x\ndeg x = (0)\n")
    rc, _, err = run(capsys, ["kpoly", str(f), "--ideal", "I"])
    assert rc == 2
    assert "line 2" in err


def test_unknown_variable_in_generator(tmp_path, capsys):
    f = tmp_path / "bad.ring"
    f.write_text("vars x\ndeg x = (1)\nideal I = [ x*w ]\n")
    rc, _, err = run(capsys, ["kpoly", str(f), "--ideal", "I"])
    assert rc == 2
    assert "unknown variable" in err


@pytest.mark.parametrize(
    "text, where, what",
    [
        (
            "field Fp 32003\nvars x\ndeg x = (1)\nideal I = [ x/32003 ]\n",
            "line 4, col 15",
            "cannot divide by 32003",
        ),
        (
            "vars x y\ndeg x = (1,0)\ndeg y = (0,1)\nideal I = [ x*y;\n  x + y ]\n",
            "line 5, col 3",
            "not multihomogeneous",
        ),
    ],
    ids=["denominator-zero-mod-p", "not-multihomogeneous"],
)
def test_bad_generator_is_an_input_error_with_position(
    tmp_path, capsys, text, where, what
):
    f = tmp_path / "bad.ring"
    f.write_text(text)
    rc, _, err = run(capsys, ["kpoly", str(f), "--ideal", "I"])
    assert rc == 2
    assert where in err and what in err


def test_unknown_ideal_and_order(small, capsys):
    rc, _, err = run(capsys, ["cee", small, "--ideal", "Nope"])
    assert rc == 2
    rc, _, err = run(capsys, ["gin", small, "--ideal", "I", "--order", "mystery"])
    assert rc == 2


BAD_OPTION_VALUES = {
    "order-weights-not-int": ["gin", "{small}", "--ideal", "I", "--order", "weights:1,x"],
    "order-weights-row-length": ["gin-report", "{small}", "--ideal", "I", "--order", "weights:1,1"],
    "order-weights-not-well-order": ["gin", "{small}", "--ideal", "I", "--order", "weights:-1,0,0"],
    "blocks-not-int": ["project", EX46, "--ideal", "P", "--blocks", "2,x"],
    "blocks-out-of-range": ["project", EX46, "--ideal", "P", "--blocks", "4"],
    "bound-not-int": ["hf-oracle", "{small}", "--ideal", "I", "--bound", "2,x"],
    "bound-length": ["hf-oracle", "{small}", "--ideal", "I", "--bound", "2,2"],
    "bound-negative": ["hf-oracle", "{small}", "--ideal", "I", "--bound", "-1"],
    "bound-too-large": ["hf-oracle", "{small}", "--ideal", "I", "--bound", "9"],
    "det-m-above-n": ["det", "--m", "3", "--n", "2", "--r", "2"],
    "det-r-zero": ["det", "--m", "2", "--n", "3", "--r", "0"],
    "gin-no-trials": ["gin", RMK59, "--ideal", "Z", "--trials", "0"],
}


@pytest.mark.parametrize("name", sorted(BAD_OPTION_VALUES))
def test_bad_option_value_is_an_input_error(name, small, capsys):
    rc, out, err = run(capsys, [a.format(small=small) for a in BAD_OPTION_VALUES[name]])
    assert (rc, out) == (2, "")
    assert err.startswith("input error: ")


def test_cs_check_takes_no_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cs-check", RMK59, "--ideal", "J", "--order", "lex"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order lex" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kpoly", EX46, "--ideal", "P"],
        ["cee", EX46, "--ideal", "P"],
        ["gee", EX46, "--ideal", "P"],
        ["geom", EX46, "--ideal", "P"],
        ["hf-oracle", EX46, "--ideal", "P", "--bound", "1,1,1"],
        ["polymatroid-check", EX46, "--from-cee", "P"],
        ["snp-check", EX46, "--ideal", "P"],
    ],
    ids=lambda argv: argv[0],
)
def test_invariant_commands_take_no_order(argv, capsys):
    """No monomial order changes K, C, G, the geometric table or the
    Hilbert function, so only gin and gin-report take --order."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", "lex"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order lex" in capsys.readouterr().err


def test_readme_lists_the_options_of_every_subcommand():
    """The README's table of subcommands names each option the parser
    declares, the positional ring file as `file`, and no other."""
    readme = (FIXTURES.parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| ((?:`[^`]+` ?)+)\|", readme, re.M)
    documented = {cmd: {opt.split()[0] for opt in re.findall(r"`([^`]+)`", cell)} for cmd, cell in rows}
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        cmd: {a.option_strings[0] if a.option_strings else a.dest for a in sp._actions} - {"-h"}
        for cmd, sp in sub.choices.items()
    }
    assert documented == declared


def test_parser_reused_after_a_usage_error_answers_as_a_fresh_process(capsys):
    """main builds its parser once per process; a usage error (SystemExit)
    leaves it answering as in a fresh interpreter, errors included."""
    bad = ["cs-check", RMK59, "--ideal", "J", "--order", "lex"]
    good = ["gin", RMK59, "--ideal", "J", "--json", "--trials", "1"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))

    def fresh(argv):
        done = subprocess.run(
            [sys.executable, "-m", "mdeg.cli", *argv], capture_output=True, text=True, env=env
        )
        return done.returncode, done.stdout, done.stderr

    def here(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    with mock.patch.dict(os.environ, env, clear=True):
        assert here(bad) == fresh(bad)
        assert here(good) == fresh(good)
        assert here(bad) == fresh(bad)


def test_python_value_error_is_a_computation_error(small, capsys, monkeypatch):
    monkeypatch.setattr("mdeg.cli.k_polynomial", lambda I: max([]))
    rc, _, err = run(capsys, ["kpoly", small, "--ideal", "I"])
    assert rc == 3
    assert err.startswith("error: ")


def test_gin_needs_large_field(capsys):
    rc, _, err = run(capsys, ["gin", EX46, "--ideal", "P"])
    assert rc == 3
    assert "field" in err.lower()


def test_gin_report_nonprime_exits_four(capsys):
    rc, out, _ = run(capsys, ["gin-report", RMK59, "--ideal", "J"])
    assert rc == 4
    assert "contraction_mlength_monotone: FAIL" in out


def test_gin_report_prime_exits_zero(capsys):
    rc, out, _ = run(capsys, ["gin-report", RMK59, "--ideal", "Z", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert all(obj["result"]["clauses"].values())


def test_polymatroid_check_from_cee(capsys):
    rc, out, _ = run(capsys, ["polymatroid-check", EX46, "--from-cee", "P"])
    assert rc == 0
    assert out.strip() == "polymatroid"


def test_polymatroid_and_snp_points_files(tmp_path, capsys):
    good = tmp_path / "good.pts"
    good.write_text("1 1 0\n1 0 1\n0 1 1\n")
    bad = tmp_path / "bad.pts"
    bad.write_text("2 0\n0 2\n")
    rc, out, _ = run(capsys, ["polymatroid-check", "--points", str(good)])
    assert rc == 0
    rc, out, _ = run(capsys, ["polymatroid-check", "--points", str(bad)])
    assert rc == 4 and "witness" in out
    rc, out, _ = run(capsys, ["snp-check", "--points", str(bad)])
    assert rc == 4 and "missing lattice point" in out
    rc, _, _ = run(capsys, ["snp-check", "--points", str(good)])
    assert rc == 0


def test_points_line_of_commas_is_an_input_error(tmp_path, capsys):
    # it read as the empty point (), on which snp-check raised IndexError
    path = tmp_path / "commas.pts"
    path.write_text("1 1\n,\n")
    for command in ("snp-check", "polymatroid-check"):
        rc, out, err = run(capsys, [command, "--points", str(path)])
        assert (rc, out, err) == (2, "", "input error: line 2, col 1: bad point line\n")


def test_points_of_another_dimension_name_their_line(tmp_path, capsys):
    path = tmp_path / "mixed.pts"
    path.write_text("1 1\n# a comment\n1,0\n1 0 1\n0 1\n1 1 1\n")
    rc, out, err = run(capsys, ["snp-check", "--points", str(path)])
    assert (rc, out, err) == (2, "", "input error: line 4, col 1: points have inconsistent dimensions\n")


def test_snp_check_requires_source(capsys):
    rc, _, err = run(capsys, ["snp-check"])
    assert rc == 2


def test_json_output_is_byte_stable(capsys):
    rc, out1, _ = run(capsys, ["cee", EX46, "--ideal", "P", "--json"])
    rc2, out2, _ = run(capsys, ["cee", EX46, "--ideal", "P", "--json"])
    assert rc == rc2 == 0
    assert out1 == out2


def test_det_matches_closed_formulas(capsys):
    rc, out, _ = run(capsys, ["det", "--m", "2", "--n", "3", "--r", "2", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["result"]["meta"]["matches_closed_formulas"] is True
    assert obj["result"]["diff"]["C"] == []


def test_det_formulas_only_needs_maximal(capsys):
    rc, _, err = run(
        capsys, ["det", "--m", "2", "--n", "3", "--r", "1", "--formulas-only"]
    )
    assert rc == 2


def test_hf_oracle_text(small, capsys):
    rc, out, _ = run(capsys, ["hf-oracle", small, "--ideal", "I", "--bound", "3"])
    assert rc == 0
    lines = dict(
        l.replace("HF(", "").replace(")", "").split(" = ") for l in out.splitlines()
    )
    # S/(xy, xz^2) has Hilbert function 1, 3, 5, 6 in degrees 0..3
    assert [lines[str(k)] for k in range(4)] == ["1", "3", "5", "6"]


def test_standardize_verify_and_roundtrip(tmp_path, capsys):
    f = tmp_path / "weighted.ring"
    f.write_text(WEIGHTED)
    rc, out, err = run(capsys, ["standardize", str(f), "--ideal", "I", "--verify"])
    assert rc == 0
    assert "FAIL" not in err
    session = parse_input(out)
    assert session.ring.is_standard
    assert session.ring.n == 4  # z of weight 2 splits into two copies


# ---------------------------------------------------------------------------
# Golden transcripts: (rc, stdout, stderr) of every subcommand in text and
# --json mode, recorded in tests/fixtures/cli_golden.json.  Arguments name
# files by {key}; FIXTURE_FILES are checked in, GOLDEN_FILES are written to
# a temporary directory, so no transcript contains a temporary path.  A case
# in GOLDEN_PIPES reads the stdout of another command line on its stdin.

WEIGHTED_FP = "field Fp 32003\n" + WEIGHTED + "ideal Q = [ x^2 ]\n"

# rational coefficients, divisions, a negated parenthesized power and
# implicit products; its projections print negative and non-integral
# coefficients
FRACTIONS = """\
field QQ
vars a b c d e
deg a = (1,0,0)
deg b = (1,0,0)
deg c = (0,1,0)
deg d = (0,1,0)
deg e = (0,0,1)
ideal F = [ 3/2 a c e - b d e/2 ; -(a - 2b)^2 c + 2/3 a b d ; a/2 (b c - 1/3 a d) e ]
"""

# the graph of the conic s -> (s0^2 : s0*s1 : s1^2) in P^1 x P^2: no
# generator has a degree supported on block 2, so its contraction there is
# zero, while the projection it defines, after saturation, is the conic
CONIC_GRAPH = """\
vars s0 s1 y0 y1 y2
deg s0 = (1,0)
deg s1 = (1,0)
deg y0 = (0,1)
deg y1 = (0,1)
deg y2 = (0,1)
ideal G = [ s0^2*y1 - s0*s1*y0 ; s0^2*y2 - s1^2*y0 ; s0*s1*y2 - s1^2*y1 ]
"""

GOLDEN_FILES = {
    "small": SMALL,
    "conic_graph": CONIC_GRAPH,
    "weighted": WEIGHTED,
    "weighted_fp": WEIGHTED_FP,
    "good_pts": "# a polymatroid base set\n1 1 0\n1,0,1\n0 1 1\n",
    "bad_pts": "2 0\n0 2\n",
    "badline_pts": "1 1\n1 x\n",
    "mixed_pts": "1 1\n1 1 1\n",
    "parse_error": "vars x\ndeg x = (0)\n",
    "unknown_var": "vars x\ndeg x = (1)\nideal I = [ x*w ]\n",
    "not_homogeneous": "vars x y\ndeg x = (1)\ndeg y = (2)\nideal I = [ x + y ]\n",
    "ex46_fp": pathlib.Path(EX46).read_text().replace("field QQ", "field Fp 32003"),
    "unit_fp": pathlib.Path(RMK59).read_text() + "ideal U = [ x0; y0; 1 ]\n",
    "fractions": FRACTIONS,
    "empty_generator": "vars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ x ;; y ]\n",
    "divide_by_zero": "vars x\ndeg x = (1)\nideal I = [ x + x/0 ]\n",
    "two_fields": "field QQ\nvars x\n  field Fp 7\ndeg x = (1)\nideal I = [ x ]\n",
    "two_ideals": "vars x\ndeg x = (1)\nideal I = [ x ]\n ideal I = [ x^2 ]\n",
    "deg_not_a_var": "deg w = (1)\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    "deg_not_a_var_length": "deg  w = (1,0)\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    "missing_degree": "field QQ\n vars x y\ndeg x = (1)\nideal I = [ x ]\n",
    "degree_length": "vars x y\ndeg x = (1)\ndeg  y = (1,0)\nideal I = [ x ]\n",
    "repeated_variable": "field QQ\nvars x y x\ndeg x = (1)\ndeg y = (1)\nideal I = [ x ]\n",
    "missing_vars": "field QQ\ndeg x = (1)\nideal I = [ x ]\n",
    "not_prime_field": "field Fp 4\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    # the Mersenne prime 2^61 - 1
    "big_prime_field": "field Fp 2305843009213693951\nvars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ x*y - 3*y^2 ; x^2 ]\n",
    # a sum that cancels, a monomial in parentheses, exponents past an
    # 8-bit field, and an empty ideal
    "paths": (
        "field Fp 32003\nvars x y z\ndeg x = (1)\ndeg y = (1)\ndeg z = (1)\n"
        "ideal K = [ x^200*y - y^3*x^198 ; (x) ; x + x - 2*x ; z^2 ]\n"
        "ideal A = [ x^300*y ; x^2*y^200 ; y^3*z ]\n"
        "ideal E = []\n"
    ),
    # a parenthesized sum divided by a number, a zero in parentheses and a
    # trailing ;
    "divided_sum": "field QQ\nvars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ (x + y)/2 ; (x - x)*y + x ; ]\n",
    # 2^16 + 1, whose Miller-Rabin squarings run past the first
    "fermat_prime_field": "field Fp 65537\nvars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ x*y ]\n",
    "field_one": "field Fp 1\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    "pseudoprime_field": "field Fp 3215031751\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    "zero_and_unit": "vars x y\ndeg x = (1)\ndeg y = (1)\nideal E = []\nideal U = [ 1 ]\n",
    "weighted_zero_and_unit": WEIGHTED + "ideal E = []\nideal U = [ 1 ]\n",
    # its gin has components of codims 1 and 3 (N), or the two whole
    # blocks (B)
    "rmk59_more": pathlib.Path(RMK59).read_text()
    + "ideal E = []\nideal C = [ x0*y0 ; x1*y1 ]\nideal N = [ x0*y0 ; x0*y1 ; x0*y2 ]\n"
    + "ideal B = [ x0*y0 ; x0*y1 ; x0*y2 ; x1*y0 ; x1*y1 ; x1*y2 ; x2*y0 ; x2*y1 ; x2*y2 ]\n",
    # the colon by the pivot x3 has a lower codim than the sum with it
    "five_vars": "vars x0 x1 x2 x3 x4\n"
    + "".join(f"deg x{i} = (1)\n" for i in range(5))
    + "ideal M = [ x0*x4 ; x1*x3 ; x2*x3 ; x1*x2*x4 ]\n",
    "no_pts": "# no points\n",
    "negative_pts": "1 -1\n0 0\n",
    "negative_gap_pts": "2 -2\n-2 2\n",
    "mixed_degree_pts": "1 0\n1 1\n",
    # a bounding box of 20001^2 points, of which the degree slice holds 20001
    "far_pts": "20000 0\n0 20000\n",
    # a degree slice of the whole 20001^2 box, whose first 20001 points in
    # lex order are off the line through the two points
    "diagonal_pts": "0 0\n20000 20000\n",
    # a thin triangle whose first 20002 slice points in lex order are
    # outside it, the first missing point (1, 1) on its long edge
    "thin_pts": "0 0\n20000 20000\n20000 20001\n",
    # five points, negative coordinates among them, listed out of lex
    # order: the first three in lex order span the plane, so that the
    # fourth and the fifth each split the hull's rows by sign, and the
    # fifth lies on the line of an edge
    "negative_square_pts": "1 1\n0 1\n-1 0\n1 0\n0 -1\n",
    # the twisted cubic, whose lex gin differs from its grevlex one
    "cubic_fp": "field Fp 32003\nvars a b c d\n"
    + "".join(f"deg {v} = (1)\n" for v in "abcd")
    + "ideal T = [ a*c - b^2 ; b*d - c^2 ; a*d - b*c ]\n",
    # exponents that fit 8-bit fields, S-pairs of degree 128 that do not:
    # each gin trial widens its fields and reruns
    "wide_fp": "field Fp 32003\nvars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal W = [ x^127 + y^127 ; x^2 - 2*y^2 ]\n",
}
# ring files that each stop the parser at a different error (exit 2), by
# the name of their golden case
PARSE_ERRORS = {
    "err-expected-equals": "vars x\ndeg x (1)\nideal I = [ x ]\n",
    "err-number-declaration": "vars x\ndeg x = (1)\n3\n",
    "err-duplicate-vars": "vars x\nvars y\ndeg x = (1)\nideal I = [ x ]\n",
    "err-duplicate-degree": "vars x\ndeg x = (1)\ndeg x = (1)\nideal I = [ x ]\n",
    "err-unknown-declaration": "vars x\ndeg x = (1)\nring x\n",
    "err-unknown-field": "field RR\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    "err-empty-vars": "vars\ndeg x = (1)\nideal I = [ x ]\n",
    "err-deg-unknown-var": "vars x\ndeg w = (1)\nideal I = [ x ]\n",
    "err-unterminated-ideal": "vars x\ndeg x = (1)\nideal I = [ x\n",
    "err-symbolic-exponent": "vars x y\ndeg x = (1)\ndeg y = (1)\nideal I = [ x^y ]\n",
    "err-dangling-sum": "vars x\ndeg x = (1)\nideal I = [ x + ]\n",
    "err-unclosed-parenthesis": "vars x\ndeg x = (1)\nideal I = [ (x = ) ]\n",
    "err-unexpected-token": "vars x\ndeg x = (1)\nideal I = [ x + = ]\n",
    "err-trailing-tokens": "vars x\ndeg x = (1)\nideal I = [ x ) ( ]\n",
    # C(10^20 + 2, 2) terms: refused at the exponent instead of expanded
    "err-huge-power-of-a-sum": "vars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ (x + y)^100000000000000000000 ]\n",
    # 2^(10^20) has 10^20 + 1 bits: refused at the exponent instead of computed
    "err-huge-power-of-a-number": "vars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ 2^100000000000000000000*x ]\n",
    # 3^9013 has 14,285 bits: worked out, then refused at the exponent
    "err-power-of-a-number-past-the-bit-limit": "vars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ 3^9013*x ]\n",
    # a number of 4,301 digits, one more than Python reads into an int by
    # default: refused at the number
    "err-number-past-the-digit-limit": "vars x\ndeg x = (1)\nideal I = [ x^" + "1" * 4301 + " ]\n",
    # coefficients of 2^28000, past the bit limit, from factors that are
    # not: refused at the last token of the factor or the term that makes
    # them, or at the exponent of a sum before the power is worked out
    "err-product-of-numbers-past-the-bit-limit": "vars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ 2^14000*2^14000*x + y ]\n",
    "err-square-of-a-sum-past-the-bit-limit": "vars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ (2^14000*x + y)^2 ]\n",
    "err-number-times-a-sum-past-the-bit-limit": "vars x y\ndeg x = (1)\ndeg y = (1)\n"
    "ideal I = [ 2^14000*x*(2^14000*x + y) ]\n",
}
GOLDEN_FILES.update({name.replace("-", "_"): text for name, text in PARSE_ERRORS.items()})
FIXTURE_FILES = {"ex46": EX46, "rmk59": RMK59}

GOLDEN_CASES = {
    # kpoly / cee / gee; kpoly-lex, kpoly-weights, cee-lex-json and
    # cee-weights-rows were recorded under --order lex and weights, which
    # no monomial order changes, and keep those transcripts without it
    "kpoly-text": ["kpoly", "{small}", "--ideal", "I"],
    "kpoly-json": ["kpoly", "{small}", "--ideal", "I", "--json"],
    "kpoly-lex": ["kpoly", "{small}", "--ideal", "I"],
    "kpoly-weights": ["kpoly", "{small}", "--ideal", "I"],
    "kpoly-zero-ideal": ["kpoly", "{small}", "--ideal", "Z", "--json"],
    # an empty generator slot is the zero polynomial, which the ideal drops
    "kpoly-empty-generator": ["kpoly", "{empty_generator}", "--ideal", "I"],
    "kpoly-weighted": ["kpoly", "{weighted}", "--ideal", "I"],
    "kpoly-cancelling-sum": ["kpoly", "{paths}", "--ideal", "K"],
    "kpoly-big-prime": ["kpoly", "{big_prime_field}", "--ideal", "I"],
    "cee-text": ["cee", "{ex46}", "--ideal", "P"],
    "cee-json": ["cee", "{ex46}", "--ideal", "P", "--json"],
    "cee-lex-json": ["cee", "{ex46}", "--ideal", "P", "--json"],
    "cee-weights-rows": ["cee", "{small}", "--ideal", "I"],
    "cee-stdin": ["cee", "-", "--ideal", "I"],
    "gee-text": ["gee", "{ex46}", "--ideal", "P"],
    "gee-json": ["gee", "{ex46}", "--ideal", "P", "--json"],
    "gee-small-json": ["gee", "{small}", "--ideal", "I", "--json"],
    "arith-text": ["arith", "{small}", "--ideal", "I"],
    "arith-json": ["arith", "{small}", "--ideal", "I", "--json"],
    "arith-rmk59-json": ["arith", "{rmk59}", "--ideal", "J", "--json"],
    # generators wider than their ideal's field, narrowed and widened
    "arith-wide-exponents": ["arith", "{paths}", "--ideal", "A"],
    "geom-text": ["geom", "{ex46}", "--ideal", "P"],
    "geom-json": ["geom", "{ex46}", "--ideal", "P", "--json"],
    "geom-small": ["geom", "{small}", "--ideal", "I"],
    # gin, gin-report, cs-check over GF(32003)
    "gin-text": ["gin", "{rmk59}", "--ideal", "J"],
    "gin-json": ["gin", "{rmk59}", "--ideal", "Z", "--seed", "5", "--json"],
    "gin-trials-seed": ["gin", "{rmk59}", "--ideal", "J", "--trials", "3", "--seed", "7", "--json"],
    "gin-empty-block-json": ["gin", "-", "--ideal", "P", "--json"],
    "gin-lex": ["gin", "{cubic_fp}", "--ideal", "T", "--order", "lex"],
    "gin-weights": ["gin", "{cubic_fp}", "--ideal", "T", "--order", "weights:1,1,1,0"],
    "gin-widens-its-fields": ["gin", "{wide_fp}", "--ideal", "W"],
    "gin-report-weights-rows": [
        "gin-report", "{cubic_fp}", "--ideal", "T", "--order", "weights:1,1,0,0;1,0,0,0", "--json"
    ],
    "gin-report-fail-text": ["gin-report", "{rmk59}", "--ideal", "J"],
    "gin-report-fail-json": ["gin-report", "{rmk59}", "--ideal", "J", "--json"],
    "gin-report-prime-text": ["gin-report", "{rmk59}", "--ideal", "Z"],
    "gin-report-prime-json": ["gin-report", "{rmk59}", "--ideal", "Z", "--json"],
    # three blocks: seven MLength rows, from (1) = 2 to (1,2,3) = 4
    "gin-report-threefold-text": ["gin-report", "{ex46_fp}", "--ideal", "P"],
    "gin-report-threefold-json": ["gin-report", "{ex46_fp}", "--ideal", "P", "--json"],
    "cs-check-text": ["cs-check", "{weighted_fp}", "--ideal", "I"],
    "cs-check-json": ["cs-check", "{weighted_fp}", "--ideal", "I", "--json"],
    "cs-check-standard-json": ["cs-check", "{rmk59}", "--ideal", "J", "--json"],
    # project / standardize emit ring files
    "project-text": ["project", "{ex46}", "--ideal", "P", "--blocks", "2,3"],
    "project-json": ["project", "{ex46}", "--ideal", "P", "--blocks", "2,3", "--json"],
    "project-one-block-json": ["project", "{ex46}", "--ideal", "P", "--blocks", "1", "--json"],
    "project-empty-ideal": ["project", "{paths}", "--ideal", "E", "--blocks", "1"],
    # contract is the algebraic I cap k[x_J]; geom saturates first
    "project-conic-graph-text": ["project", "{conic_graph}", "--ideal", "G", "--blocks", "2"],
    "project-conic-graph-json": ["project", "{conic_graph}", "--ideal", "G", "--blocks", "2", "--json"],
    "geom-conic-graph": ["geom", "{conic_graph}", "--ideal", "G"],
    "project-fractions-text": ["project", "{fractions}", "--ideal", "F", "--blocks", "1,2,3"],
    "project-fractions-json": ["project", "{fractions}", "--ideal", "F", "--blocks", "1,2,3", "--json"],
    "project-fractions-reparsed-json": ["project", "-", "--ideal", "F", "--blocks", "1,2", "--json"],
    "standardize-text": ["standardize", "{weighted}", "--ideal", "I"],
    "standardize-json": ["standardize", "{weighted}", "--ideal", "I", "--json"],
    "standardize-verify": ["standardize", "{weighted}", "--ideal", "I", "--verify"],
    "standardize-verify-json": ["standardize", "{weighted}", "--ideal", "I", "--verify", "--json"],
    "standardize-standard-json": ["standardize", "{small}", "--ideal", "I", "--json"],
    # polymatroid / SNP checks from a multidegree or a points file
    "polymatroid-cee-text": ["polymatroid-check", "{ex46}", "--from-cee", "P"],
    "polymatroid-cee-json": ["polymatroid-check", "{ex46}", "--from-cee", "P", "--json"],
    "polymatroid-good-json": ["polymatroid-check", "--points", "{good_pts}", "--json"],
    "polymatroid-bad-text": ["polymatroid-check", "--points", "{bad_pts}"],
    "polymatroid-bad-json": ["polymatroid-check", "--points", "{bad_pts}", "--json"],
    "snp-cee-text": ["snp-check", "{ex46}", "--ideal", "P"],
    "snp-cee-json": ["snp-check", "{ex46}", "--ideal", "P", "--json"],
    "snp-good-text": ["snp-check", "--points", "{good_pts}"],
    "snp-bad-text": ["snp-check", "--points", "{bad_pts}"],
    "snp-bad-json": ["snp-check", "--points", "{bad_pts}", "--json"],
    # det and hf-oracle
    "det-text": ["det", "--m", "2", "--n", "3", "--r", "2"],
    "det-json": ["det", "--m", "2", "--n", "3", "--r", "2", "--json"],
    "det-submaximal-json": ["det", "--m", "2", "--n", "2", "--r", "1", "--json"],
    "det-formulas-text": ["det", "--m", "3", "--n", "4", "--r", "3", "--formulas-only"],
    "det-formulas-json": ["det", "--m", "3", "--n", "4", "--r", "3", "--formulas-only", "--json"],
    "hf-oracle-text": ["hf-oracle", "{small}", "--ideal", "I", "--bound", "3"],
    "hf-oracle-json": ["hf-oracle", "{ex46}", "--ideal", "P", "--bound", "1,1,1", "--json"],
    # exit 2: input errors
    "err-missing-file": ["kpoly", "no-such-file.ring", "--ideal", "I"],
    "err-parse": ["kpoly", "{parse_error}", "--ideal", "I"],
    "err-unknown-var": ["kpoly", "{unknown_var}", "--ideal", "I", "--json"],
    "err-divide-by-zero": ["kpoly", "{divide_by_zero}", "--ideal", "I"],
    "err-duplicate-field": ["kpoly", "{two_fields}", "--ideal", "I"],
    "err-duplicate-ideal": ["kpoly", "{two_ideals}", "--ideal", "I", "--json"],
    "err-deg-not-a-var": ["kpoly", "{deg_not_a_var}", "--ideal", "I"],
    "err-deg-not-a-var-length": ["kpoly", "{deg_not_a_var_length}", "--ideal", "I"],
    "err-missing-degree": ["kpoly", "{missing_degree}", "--ideal", "I"],
    "err-degree-length": ["kpoly", "{degree_length}", "--ideal", "I"],
    "err-repeated-variable": ["kpoly", "{repeated_variable}", "--ideal", "I"],
    "err-missing-vars": ["kpoly", "{missing_vars}", "--ideal", "I", "--json"],
    "err-field-not-prime": ["kpoly", "{not_prime_field}", "--ideal", "I"],
    "err-not-homogeneous": ["cee", "{not_homogeneous}", "--ideal", "I"],
    "err-unknown-ideal": ["gee", "{small}", "--ideal", "Nope"],
    "err-unknown-ideal-arith": ["arith", "{small}", "--ideal", "Nope"],
    "err-unknown-order": ["gin", "{small}", "--ideal", "I", "--order", "mystery"],
    # an option the command does not take: argparse's usage error
    "err-order-on-invariant-command": ["kpoly", "{small}", "--ideal", "I", "--order", "lex"],
    "err-arith-not-monomial": ["arith", "{weighted}", "--ideal", "I", "--json"],
    "err-formulas-submaximal": ["det", "--m", "2", "--n", "3", "--r", "1", "--formulas-only"],
    "err-points-bad-line": ["snp-check", "--points", "{badline_pts}"],
    "err-points-mixed": ["polymatroid-check", "--points", "{mixed_pts}"],
    "err-polymatroid-no-source": ["polymatroid-check", "{ex46}"],
    "err-snp-no-source": ["snp-check"],
    # exit 3: computation errors
    "err-gin-over-qq": ["gin", "{ex46}", "--ideal", "P"],
    "err-gin-not-standard": ["gin", "{weighted_fp}", "--ideal", "I", "--json"],
    "err-gin-report-unit-ideal": ["gin-report", "{unit_fp}", "--ideal", "U"],
    "err-bound-too-large": ["hf-oracle", "{small}", "--ideal", "I", "--bound", "9"],
    # input paths: parser branches, Miller-Rabin, zero and unit ideals,
    # degenerate point sets
    "kpoly-divided-sum": ["kpoly", "{divided_sum}", "--ideal", "I"],
    "kpoly-fermat-prime": ["kpoly", "{fermat_prime_field}", "--ideal", "I"],
    "err-field-one": ["kpoly", "{field_one}", "--ideal", "I"],
    "err-field-pseudoprime": ["kpoly", "{pseudoprime_field}", "--ideal", "I"],
    "arith-zero-ideal": ["arith", "{zero_and_unit}", "--ideal", "E"],
    "arith-unit-ideal": ["arith", "{zero_and_unit}", "--ideal", "U"],
    "cee-unit-ideal": ["cee", "{zero_and_unit}", "--ideal", "U"],
    "gee-unit-ideal": ["gee", "{zero_and_unit}", "--ideal", "U"],
    "cee-lower-codim-colon": ["cee", "{five_vars}", "--ideal", "M"],
    "standardize-verify-zero-ideal": ["standardize", "{weighted_zero_and_unit}", "--ideal", "E", "--verify"],
    # the unit ideal passes the codim clause, though its codim grows with n
    "standardize-verify-unit-ideal": ["standardize", "{weighted_zero_and_unit}", "--ideal", "U", "--verify"],
    "gin-report-zero-ideal": ["gin-report", "{rmk59_more}", "--ideal", "E"],
    # the Stanley-Reisner complex of the gin is a cone, whose core strips it
    "gin-report-cone": ["gin-report", "{rmk59_more}", "--ideal", "C"],
    "gin-report-not-pure": ["gin-report", "{rmk59_more}", "--ideal", "N"],
    "gin-report-not-cohen-macaulay": ["gin-report", "{rmk59_more}", "--ideal", "B"],
    "polymatroid-no-points": ["polymatroid-check", "--points", "{no_pts}"],
    "snp-no-points": ["snp-check", "--points", "{no_pts}"],
    "snp-negative-coordinate": ["snp-check", "--points", "{negative_pts}"],
    "polymatroid-mixed-degrees": ["polymatroid-check", "--points", "{mixed_degree_pts}"],
    # the walk stops at the first lattice point of the hull that is missing
    "snp-far-points-text": ["snp-check", "--points", "{far_pts}"],
    "snp-far-points-json": ["snp-check", "--points", "{far_pts}", "--json"],
    # a point off the line through the two points breaks an equation row
    "snp-diagonal-points-text": ["snp-check", "--points", "{diagonal_pts}"],
    "snp-diagonal-points-json": ["snp-check", "--points", "{diagonal_pts}", "--json"],
    # a missing point with a negative coordinate
    "snp-negative-coordinate-missing": ["snp-check", "--points", "{negative_gap_pts}"],
    "snp-thin-triangle-text": ["snp-check", "--points", "{thin_pts}"],
    "snp-thin-triangle-json": ["snp-check", "--points", "{thin_pts}", "--json"],
    "snp-negative-square": ["snp-check", "--points", "{negative_square_pts}"],
}
GOLDEN_CASES.update(
    {name: ["kpoly", "{" + name.replace("-", "_") + "}", "--ideal", "I"] for name in PARSE_ERRORS}
)
GOLDEN_STDIN = {"cee-stdin": SMALL}
# project to blocks 2,3 of P over GF(32003): the first grading block is empty
GOLDEN_PIPES = {
    "gin-empty-block-json": ["project", "{ex46_fp}", "--ideal", "P", "--blocks", "2,3"],
    # the printed fractions parse back to the same ideal
    "project-fractions-reparsed-json": ["project", "{fractions}", "--ideal", "F", "--blocks", "1,2,3"],
}
GOLDEN = FIXTURES / "cli_golden.json"


def golden_transcript(name, workdir):
    """Run one golden case in-process; return {"rc", "stdout", "stderr"}."""
    paths = dict(FIXTURE_FILES)
    for key, text in GOLDEN_FILES.items():
        path = pathlib.Path(workdir) / key
        path.write_text(text)
        paths[key] = str(path)

    def run_main(args, stdin_text):
        argv = [a.format(**paths) for a in args]
        out, err = io.StringIO(), io.StringIO()
        try:
            with mock.patch("sys.stdin", io.StringIO(stdin_text)), contextlib.redirect_stdout(
                out
            ), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            # an argparse usage error, whose usage lines wrap by the terminal
            # width and the Python version: only its error line is kept
            rc = exc.code
            err = io.StringIO(err.getvalue().splitlines()[-1] + "\n")
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    stdin_text = GOLDEN_STDIN.get(name, "")
    if name in GOLDEN_PIPES:
        first = run_main(GOLDEN_PIPES[name], "")
        assert first["rc"] == 0, first
        stdin_text = first["stdout"]
    return run_main(GOLDEN_CASES[name], stdin_text)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert golden_transcript(name, tmp_path) == expected
