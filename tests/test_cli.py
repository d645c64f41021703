import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

from mdeg.cli import main
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
    rc, _, err = run(capsys, ["cee", small, "--ideal", "I", "--order", "mystery"])
    assert rc == 2


BAD_OPTION_VALUES = {
    "order-weights-not-int": (["kpoly", "{small}", "--ideal", "I", "--order", "weights:1,x"], {}),
    "order-weights-row-length": (["kpoly", "{small}", "--ideal", "I", "--order", "weights:1,1"], {}),
    "order-weights-not-well-order": (
        ["kpoly", "{small}", "--ideal", "I", "--order", "weights:-1,0,0"], {}
    ),
    "blocks-not-int": (["project", EX46, "--ideal", "P", "--blocks", "2,x"], {}),
    "blocks-out-of-range": (["project", EX46, "--ideal", "P", "--blocks", "4"], {}),
    "bound-not-int": (["hf-oracle", "{small}", "--ideal", "I", "--bound", "2,x"], {}),
    "bound-length": (["hf-oracle", "{small}", "--ideal", "I", "--bound", "2,2"], {}),
    "bound-negative": (["hf-oracle", "{small}", "--ideal", "I", "--bound", "-1"], {}),
    "bound-too-large": (["hf-oracle", "{small}", "--ideal", "I", "--bound", "9"], {}),
    "det-m-above-n": (["det", "--m", "3", "--n", "2", "--r", "2"], {}),
    "det-r-zero": (["det", "--m", "2", "--n", "3", "--r", "0"], {}),
    "gin-no-trials": (["gin", RMK59, "--ideal", "Z", "--trials", "0"], {}),
    "seed-env-not-int": (["gin", RMK59, "--ideal", "Z"], {"MDEG_SEED": "abc"}),
}


@pytest.mark.parametrize("name", sorted(BAD_OPTION_VALUES))
def test_bad_option_value_is_an_input_error(name, small, capsys, monkeypatch):
    argv, env = BAD_OPTION_VALUES[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    rc, out, err = run(capsys, [a.format(small=small) for a in argv])
    assert (rc, out) == (2, "")
    assert err.startswith("input error: ")


def test_cs_check_takes_no_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cs-check", RMK59, "--ideal", "J", "--order", "lex"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order lex" in capsys.readouterr().err


def test_parser_reused_after_a_usage_error_answers_as_a_fresh_process(capsys):
    """main builds its parser once per process; a usage error (SystemExit)
    leaves it answering as in a fresh interpreter, errors included."""
    bad = ["cs-check", RMK59, "--ideal", "J", "--order", "lex"]
    good = ["gin", RMK59, "--ideal", "J", "--json", "--trials", "1"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))
    env.pop("MDEG_SEED", None)

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
    monkeypatch.setattr("mdeg.cli.k_polynomial", lambda I, order: max([]))
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


def test_snp_check_requires_source(capsys):
    rc, _, err = run(capsys, ["snp-check"])
    assert rc == 2


def test_json_output_is_byte_stable(capsys):
    rc, out1, _ = run(capsys, ["cee", EX46, "--ideal", "P", "--json"])
    rc2, out2, _ = run(capsys, ["cee", EX46, "--ideal", "P", "--json"])
    assert rc == rc2 == 0
    assert out1 == out2


def test_mdeg_seed_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("MDEG_SEED", "5")
    rc, out, _ = run(
        capsys, ["gin", RMK59, "--ideal", "Z", "--seed", "0", "--json"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["result"]["meta"]["seed"] == 5


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

GOLDEN_FILES = {
    "small": SMALL,
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
    "divide_by_zero": "vars x\ndeg x = (1)\nideal I = [ x + x/0 ]\n",
    "two_fields": "field QQ\nvars x\n  field Fp 7\ndeg x = (1)\nideal I = [ x ]\n",
    "two_ideals": "vars x\ndeg x = (1)\nideal I = [ x ]\n ideal I = [ x^2 ]\n",
    "deg_not_a_var": "deg w = (1)\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    "deg_not_a_var_length": "deg  w = (1,0)\nvars x\ndeg x = (1)\nideal I = [ x ]\n",
    "missing_degree": "field QQ\n vars x y\ndeg x = (1)\nideal I = [ x ]\n",
    "degree_length": "vars x y\ndeg x = (1)\ndeg  y = (1,0)\nideal I = [ x ]\n",
    "repeated_variable": "field QQ\nvars x y x\ndeg x = (1)\ndeg y = (1)\nideal I = [ x ]\n",
    "missing_vars": "field QQ\ndeg x = (1)\nideal I = [ x ]\n",
}
FIXTURE_FILES = {"ex46": EX46, "rmk59": RMK59}

GOLDEN_CASES = {
    # kpoly / cee / gee under every order syntax
    "kpoly-text": ["kpoly", "{small}", "--ideal", "I"],
    "kpoly-json": ["kpoly", "{small}", "--ideal", "I", "--json"],
    "kpoly-lex": ["kpoly", "{small}", "--ideal", "I", "--order", "lex"],
    "kpoly-diag-json": ["kpoly", "{small}", "--ideal", "I", "--order", "diag", "--json"],
    "kpoly-weights": ["kpoly", "{small}", "--ideal", "I", "--order", "weights:1,2,3"],
    "kpoly-zero-ideal": ["kpoly", "{small}", "--ideal", "Z", "--json"],
    "kpoly-weighted": ["kpoly", "{weighted}", "--ideal", "I"],
    "cee-text": ["cee", "{ex46}", "--ideal", "P"],
    "cee-json": ["cee", "{ex46}", "--ideal", "P", "--json"],
    "cee-lex-json": ["cee", "{ex46}", "--ideal", "P", "--order", "lex", "--json"],
    "cee-weights-rows": ["cee", "{small}", "--ideal", "I", "--order", "weights:1,1,1;0,0,1"],
    "cee-stdin": ["cee", "-", "--ideal", "I"],
    "gee-text": ["gee", "{ex46}", "--ideal", "P"],
    "gee-json": ["gee", "{ex46}", "--ideal", "P", "--json"],
    "gee-small-json": ["gee", "{small}", "--ideal", "I", "--json"],
    "arith-text": ["arith", "{small}", "--ideal", "I"],
    "arith-json": ["arith", "{small}", "--ideal", "I", "--json"],
    "arith-rmk59-json": ["arith", "{rmk59}", "--ideal", "J", "--json"],
    "geom-text": ["geom", "{ex46}", "--ideal", "P"],
    "geom-json": ["geom", "{ex46}", "--ideal", "P", "--json"],
    "geom-small": ["geom", "{small}", "--ideal", "I"],
    # gin, gin-report, cs-check over GF(32003)
    "gin-text": ["gin", "{rmk59}", "--ideal", "J"],
    "gin-json": ["gin", "{rmk59}", "--ideal", "Z", "--json"],
    "gin-trials-seed": ["gin", "{rmk59}", "--ideal", "J", "--trials", "3", "--seed", "7", "--json"],
    "gin-empty-block-json": ["gin", "-", "--ideal", "P", "--json"],
    "gin-report-fail-text": ["gin-report", "{rmk59}", "--ideal", "J"],
    "gin-report-fail-json": ["gin-report", "{rmk59}", "--ideal", "J", "--json"],
    "gin-report-prime-text": ["gin-report", "{rmk59}", "--ideal", "Z"],
    "gin-report-prime-json": ["gin-report", "{rmk59}", "--ideal", "Z", "--json"],
    "cs-check-text": ["cs-check", "{weighted_fp}", "--ideal", "I"],
    "cs-check-json": ["cs-check", "{weighted_fp}", "--ideal", "I", "--json"],
    "cs-check-square-paranoid": ["cs-check", "{weighted_fp}", "--ideal", "Q", "--paranoid"],
    "cs-check-standard-json": ["cs-check", "{rmk59}", "--ideal", "J", "--json"],
    # project / standardize emit ring files
    "project-text": ["project", "{ex46}", "--ideal", "P", "--blocks", "2,3"],
    "project-json": ["project", "{ex46}", "--ideal", "P", "--blocks", "2,3", "--json"],
    "project-one-block-json": ["project", "{ex46}", "--ideal", "P", "--blocks", "1", "--json"],
    "project-fractions-text": ["project", "{fractions}", "--ideal", "F", "--blocks", "1,2,3"],
    "project-fractions-json": ["project", "{fractions}", "--ideal", "F", "--blocks", "1,2,3", "--json"],
    "project-fractions-reparsed-json": ["project", "-", "--ideal", "F", "--blocks", "1,2", "--json"],
    "standardize-text": ["standardize", "{weighted}", "--ideal", "I"],
    "standardize-json": ["standardize", "{weighted}", "--ideal", "I", "--json"],
    "standardize-emit-ring-json": ["standardize", "{weighted}", "--ideal", "I", "--emit-ring", "--json"],
    "standardize-verify": ["standardize", "{weighted}", "--ideal", "I", "--verify"],
    "standardize-verify-json": ["standardize", "{weighted}", "--ideal", "I", "--verify", "--json"],
    "standardize-standard-json": ["standardize", "{small}", "--ideal", "I", "--json"],
    # polymatroid / SNP checks from a multidegree or a points file
    "polymatroid-cee-text": ["polymatroid-check", "{ex46}", "--from-cee", "P"],
    "polymatroid-cee-json": ["polymatroid-check", "{ex46}", "--from-cee", "P", "--order", "lex", "--json"],
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
    "hf-oracle-json": ["hf-oracle", "{ex46}", "--ideal", "P", "--bound", "1,1,1", "--order", "lex", "--json"],
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
    "err-not-homogeneous": ["cee", "{not_homogeneous}", "--ideal", "I"],
    "err-unknown-ideal": ["gee", "{small}", "--ideal", "Nope"],
    "err-unknown-ideal-arith": ["arith", "{small}", "--ideal", "Nope"],
    "err-unknown-order": ["cee", "{small}", "--ideal", "I", "--order", "mystery"],
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
}
GOLDEN_STDIN = {"cee-stdin": SMALL}
# project to blocks 2,3 of P over GF(32003): the first grading block is empty
GOLDEN_PIPES = {
    "gin-empty-block-json": ["project", "{ex46_fp}", "--ideal", "P", "--blocks", "2,3"],
    # the printed fractions parse back to the same ideal
    "project-fractions-reparsed-json": ["project", "{fractions}", "--ideal", "F", "--blocks", "1,2,3"],
}
GOLDEN_ENV = {"gin-json": {"MDEG_SEED": "5"}}
GOLDEN = FIXTURES / "cli_golden.json"


def golden_transcript(name, workdir):
    """Run one golden case in-process; return {"rc", "stdout", "stderr"}."""
    paths = dict(FIXTURE_FILES)
    for key, text in GOLDEN_FILES.items():
        path = pathlib.Path(workdir) / key
        path.write_text(text)
        paths[key] = str(path)
    env = {k: v for k, v in os.environ.items() if k != "MDEG_SEED"}
    env.update(GOLDEN_ENV.get(name, {}))

    def run_main(args, stdin_text):
        argv = [a.format(**paths) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env, clear=True), mock.patch(
            "sys.stdin", io.StringIO(stdin_text)
        ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
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
