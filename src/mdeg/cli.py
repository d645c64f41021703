"""Command-line interface.

One ring file per invocation (``-`` reads stdin); subcommands dispatch to
the library and print, through `_emit`, either text or one canonical JSON
envelope {"ring": ..., "result": {"kind": ..., ...}} (sorted keys and
exponents, string coefficients).  Exit codes: 0 ok, 2 input error
(including bad option values), 3 computation error, 4 check failed.
The argument parser is built once per process and reused by every
in-process call of `main`.
"""

import argparse
import json
import re
import sys
from functools import lru_cache

from .errors import BadArgument, InputError, MdegError, Unstable
from .genin import gin, gin_structure_report
from .groebner import contract
from .hilbert import (
    arithmetic_multidegree,
    geometric_multidegrees,
    hilbert_function_oracle,
    k_polynomial,
    multidegree_C,
    multidegree_G,
)
from .inputlang import format_ring_file, parse_input
from .monomial import from_polynomial_gens
from .orders import grevlex, lex, weight_order
from .polymatroid import exchange_check, snp_check, support_points
from .standardize import cs_check, standardize, standardize_ideal, verify_standardization

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_CHECK_FAILED = 4


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what}: {text!r} is not an integer") from None


def _ints(text, what):
    """Comma-separated integers of an option value."""
    return tuple(_int(w, what) for w in text.split(","))


def _resolve_order(ring, spec):
    if spec is None or spec == "grevlex":
        return grevlex(ring)
    if spec == "lex":
        return lex(ring)
    if spec.startswith("weights:"):
        chunks = spec[len("weights:") :].split(";")
        return weight_order(ring, [_ints(c, "--order weights") for c in chunks])
    raise InputError(f"unknown order {spec!r}")


def _load(args, ideal=None):
    """Read the ring file; return (ring, ideal) for --ideal or `ideal`."""
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {args.file}: {e}")
    session = parse_input(text)
    return session.ring, session.ideal(ideal or args.ideal)


def _emit(args, ring, kind, result, text, notes=(), rc=EXIT_OK):
    """Print one result and return rc.

    `result` and `text` are functions of no argument, and only the one
    printed is called.  With --json: one canonical line {"result":
    {...result(), "kind": kind}}, plus "ring" unless ring is None.
    Otherwise the lines of text() go to stdout and the notes to stderr.
    """
    if args.json:
        obj = {"result": {**result(), "kind": kind}}
        if ring is not None:
            obj["ring"] = {
                "field": f"Fp {ring.field.p}" if ring.field.p else "QQ",
                "vars": list(ring.names),
                "degrees": [list(d) for d in ring.degrees],
            }
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in text():
            print(line)
        for line in notes:
            print(line, file=sys.stderr)
    return rc


def _emit_poly(args, ring, kind, poly):
    return _emit(
        args, ring, kind, lambda: {"poly": poly.to_json_obj(), "meta": {}}, lambda: [str(poly)]
    )


def _mono_json(I):
    return sorted(list(g) for g in I.gens)


def cmd_kpoly(args):
    ring, I = _load(args)
    return _emit_poly(args, ring, "kpoly", k_polynomial(I))


def cmd_cee(args):
    ring, I = _load(args)
    return _emit_poly(args, ring, "cee", multidegree_C(I))


def cmd_gee(args):
    ring, I = _load(args)
    return _emit_poly(args, ring, "gee", multidegree_G(I))


def cmd_arith(args):
    ring, I = _load(args)
    M = from_polynomial_gens(ring, I.gens)
    return _emit_poly(args, ring, "arith", arithmetic_multidegree(M))


def cmd_geom(args):
    ring, I = _load(args)
    table = geometric_multidegrees(I)
    entries = sorted(table.entries.items())

    def result():
        meta = {
            "dim": table.dim,
            "entries": [{"n": list(n), "e": v} for n, v in entries],
            "msupp": [list(n) for n in table.msupp],
        }
        return {"poly": table.cee.to_json_obj(), "meta": meta}

    def text():
        lines = [f"dim = {table.dim}", f"C = {table.cee}"]
        return lines + [f"e({','.join(str(x) for x in n)}) = {v}" for n, v in entries]

    return _emit(args, ring, "geom", result, text)


def cmd_gin(args):
    ring, I = _load(args)
    res = gin(I, order=_resolve_order(ring, args.order), trials=args.trials, seed=args.seed)
    meta = {"trials": res.trials, "seed": res.seed, "borel": res.borel}
    notes = [f"# {k}: {meta[k]}" for k in sorted(meta)]
    result = {"gens": _mono_json(res.ideal), "meta": meta}
    return _emit(args, ring, "gin", lambda: result, lambda: [str(res.ideal)], notes)


def cmd_gin_report(args):
    ring, I = _load(args)
    order = _resolve_order(ring, args.order)
    rep = gin_structure_report(I, order=order, trials=args.trials, seed=args.seed)
    clauses = sorted(rep.clauses.items())
    mlength = {
        ",".join(str(j) for j in J): v for J, v in sorted(rep.contraction_mlength.items())
    }
    result = {
        "clauses": {k: bool(v) for k, v in clauses},
        "gens": _mono_json(rep.gin.ideal),
        "meta": {"mlength": mlength},
    }
    text = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in clauses]
    text += [f"MLength(gin(I_({J}))) = {v}" for J, v in mlength.items()]
    rc = EXIT_OK if rep.ok() else EXIT_CHECK_FAILED
    return _emit(args, ring, "gin-report", lambda: result, lambda: text, rc=rc)


def cmd_project(args):
    _, I = _load(args)
    blocks = _ints(args.blocks, "--blocks")
    IJ = contract(I, blocks, keep_grading=True)
    return _emit(
        args,
        IJ.ring,
        "project",
        lambda: {"gens": [str(g) for g in IJ.gens], "meta": {"blocks": blocks}},
        lambda: format_ring_file(IJ.ring, {args.ideal: list(IJ.gens)}).splitlines(),
    )


def cmd_cs_check(args):
    ring, I = _load(args)
    verdict = cs_check(I, trials=args.trials, seed=args.seed)

    def result():
        # reading verdict.gin of a non-CS verdict runs the gin
        return {
            "is_cs": verdict.is_cs,
            "gin": _mono_json(verdict.gin),
            "meta": {"field": repr(verdict.field), "detail": verdict.detail},
        }

    text = ["CS" if verdict.is_cs else "not CS"]
    return _emit(args, ring, "cs-check", result, lambda: text, [f"# {verdict.detail}"])


def cmd_standardize(args):
    ring, I = _load(args)
    std = standardize(ring)
    J = standardize_ideal(I, std)
    if args.verify:
        rep = verify_standardization(I, std_map=std)
        for k, v in sorted(rep.items()):
            print(f"{k}: {'pass' if v else 'FAIL'}", file=sys.stderr)
        if not all(rep.values()):
            return EXIT_CHECK_FAILED
    target = std.target

    def result():
        copies = {
            ring.names[i]: [target.names[j] for j in std.copy_index[i]] for i in range(ring.n)
        }
        return {"gens": [str(g) for g in J.gens], "meta": {"copies": copies}}

    return _emit(
        args,
        target,
        "standardize",
        result,
        lambda: format_ring_file(target, {args.ideal: list(J.gens)}).splitlines(),
    )


def cmd_polymatroid_check(args):
    if args.points:
        pts = _read_points(args.points)
    elif args.file and args.from_cee:
        _, I = _load(args, args.from_cee)
        pts = support_points(multidegree_C(I))
    else:
        raise InputError("polymatroid-check needs --points or a ring file with --from-cee")
    ok, witness = exchange_check(pts)
    result = {
        "ok": ok,
        "witness": [list(w) if isinstance(w, tuple) else w for w in witness]
        if witness
        else None,
        "meta": {"points": sorted(list(q) for q in pts)},
    }
    if ok:
        text = ["polymatroid"]
    elif len(witness) == 2:
        text = [f"not a polymatroid: {witness[0]} and {witness[1]} differ in total degree"]
    else:
        text = [f"not a polymatroid: witness {witness}"]
    rc = EXIT_OK if ok else EXIT_CHECK_FAILED
    return _emit(args, None, "polymatroid-check", lambda: result, lambda: text, rc=rc)


def cmd_snp_check(args):
    if args.points:
        ok, witness = snp_check(_read_points(args.points))
    elif args.file and args.ideal:
        _, I = _load(args)
        ok, witness = snp_check(support_points(multidegree_C(I)))
    else:
        raise InputError("snp-check needs --points or a ring file with --ideal")
    result = {"ok": ok, "witness": list(witness) if witness else None}
    text = ["SNP" if ok else f"not SNP: missing lattice point {witness}"]
    rc = EXIT_OK if ok else EXIT_CHECK_FAILED
    return _emit(args, None, "snp-check", lambda: result, lambda: text, rc=rc)


#: A coordinate of a points file: ASCII digits, after at most one minus
#: sign; int would also take "+3", "1_0" and digits of other scripts.
_COORDINATE = re.compile("-?[0-9]+")


def _read_points(path):
    pts = set()
    dim = 0  # that of the first point
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#")[0].strip()
                if not line:
                    continue
                words = line.replace(",", " ").split()
                # a line of commas has no coordinate
                if not words or not all(map(_COORDINATE.fullmatch, words)):
                    raise InputError("bad point line", lineno, 1)
                q = tuple(map(int, words))
                dim = dim or len(q)
                if len(q) != dim:
                    raise InputError("points have inconsistent dimensions", lineno, 1)
                pts.add(q)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    return pts


def cmd_det(args):
    # imported here so that the start-up every command pays does not load it
    from .determinantal import build_determinantal, closed_formulas

    m, n, r = args.m, args.n, args.r
    names = [f"t{i}" for i in range(1, m + 1)] + [f"s{j}" for j in range(1, n + 1)]
    meta = {"m": m, "n": n, "r": r}
    notes = []
    H = Kf = None
    if args.formulas_only:
        if r != m:
            raise InputError("closed formulas exist only for maximal minors (r = m)")
        C, K = closed_formulas(m, n)
        meta["formulas_only"] = True
    else:
        # K and C do not depend on the order: computed under grevlex
        _, I = build_determinantal(m, n, r)
        C, K = multidegree_C(I), k_polynomial(I)
        if r == m:
            H, Kf = closed_formulas(m, n)
            meta["matches_closed_formulas"] = C == H and K == Kf
            notes = [f"# closed formulas match: {meta['matches_closed_formulas']}"]

    def result():
        out = {"C": C.to_json_obj(), "K": K.to_json_obj(), "meta": meta}
        if not args.formulas_only:
            out["diff"] = None
            if H is not None:
                out["diff"] = {"C": (C - H).to_json_obj(), "K": (K - Kf).to_json_obj()}
        return out

    return _emit(
        args,
        None,
        "det",
        result,
        lambda: [f"C = {C.__str__(names)}", f"K = {K.__str__(names)}"],
        notes,
    )


def cmd_hf_oracle(args):
    ring, I = _load(args)
    bound = _ints(args.bound, "--bound")
    table = sorted(hilbert_function_oracle(I, bound).items())
    result = {
        "table": [{"nu": list(nu), "hf": v} for nu, v in table],
        "meta": {"bound": list(bound)},
    }
    text = [f"HF({','.join(str(x) for x in nu)}) = {v}" for nu, v in table]
    return _emit(args, ring, "hf-oracle", lambda: result, lambda: text)


def _add_common(sp):
    sp.add_argument("file", help="ring file, or - for stdin")
    sp.add_argument("--ideal", required=True, help="name of the ideal")
    sp.add_argument("--json", action="store_true", help="canonical JSON output")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mdeg",
        description="Multidegree computations in positively multigraded rings",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("kpoly", cmd_kpoly),
        ("cee", cmd_cee),
        ("gee", cmd_gee),
        ("geom", cmd_geom),
    ):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("arith", help="arithmetic multidegree (monomial ideals)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_arith)

    for name, fn in (("gin", cmd_gin), ("gin-report", cmd_gin_report)):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.add_argument("--order", default=None, help="grevlex | lex | weights:r1c1,r1c2;r2c1,...")
        sp.add_argument("--trials", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("project", help="contraction to a block subset")
    _add_common(sp)
    sp.add_argument("--blocks", required=True, help="e.g. 2,3")
    sp.set_defaults(fn=cmd_project)

    sp = sub.add_parser("cs-check", help="Cartwright-Sturmfels detection")
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_cs_check)

    sp = sub.add_parser("standardize")
    _add_common(sp)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_standardize)

    sp = sub.add_parser("polymatroid-check")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--from-cee", dest="from_cee", default=None, help="ideal name")
    sp.add_argument("--points", default=None, help="file of lattice points")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_polymatroid_check)

    sp = sub.add_parser("snp-check")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--ideal", default=None)
    sp.add_argument("--points", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_snp_check)

    sp = sub.add_parser("det", help="determinantal ideals, fine grading")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--formulas-only", dest="formulas_only", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_det)

    sp = sub.add_parser("hf-oracle")
    _add_common(sp)
    sp.add_argument("--bound", required=True, help="e.g. 2,2,2")
    sp.set_defaults(fn=cmd_hf_oracle)

    return ap


@lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, BadArgument) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Unstable as e:
        print(f"computation error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    except (MdegError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
