"""The benchmark's workloads: ring files, job lists and answer checks.

Every ring file the program reads is written here from the data below;
the workload seed only shuffles the generator order inside each file and
sets ``--seed`` for the randomized commands, and neither changes any
answer.  See NOTES.md for why each workload was chosen.
"""

import json
import random
import re
from itertools import combinations, permutations

FP = "field Fp 32003"

# The threefold P of Example 4.6 in P^3 x P^3 x P^3.
P_BLOCKS = (("x0", "x1", "x2", "x3"), ("y0", "y1", "y2", "y3"), ("z0", "z1", "z2", "z3"))
P_GENS = (
    "x1 - x2",
    "y3*z0 - y0*z1 - y2*z2",
    "y2*z0 - y0*z2",
    "x2*z0 - x0*z1",
    "y1^2 + y2^2 - y0*y3",
    "x3*y0 - x0*y1",
    "x2*y0 - x3*y1",
    "x0*x2 - x3^2",
    "y0*y2*z1 + y2^2*z2 - y0*y3*z2",
    "x3*y2*z1 - x2*y1*z2",
    "x0*y2*z1 - x3*y1*z2",
    "x3*y1*z1 - x0*y3*z1 + x2*y2*z2",
    "x3*y1*z0 - x0*y0*z1",
    "x3^2*z0 - x0^2*z1",
)

# The grevlex initial ideal in(P), exponents in the variable order above.
IN_P = (
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0),
    (0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0),
)

# Answers known independently of the program: the multidegree of P and
# the multidegrees of its six projections (acceptance criteria 1 and 2),
# as exponent -> coefficient over the kept blocks.
P_CEE = {(3, 3, 0): 2, (3, 2, 1): 4, (3, 1, 2): 2, (2, 3, 1): 2, (2, 2, 2): 4}
PROJECTION_CEE = {
    (1,): {(2,): 2},
    (2,): {(1,): 2},
    (3,): {(0,): 1},
    (1, 2): {(3, 1): 2, (2, 2): 4},
    (1, 3): {(3, 0): 2, (2, 1): 2},
    (2, 3): {(3, 0): 2, (2, 1): 4, (1, 2): 2},
}

WORKLOADS = ("threefold-qq", "gin-structure")


class Job:
    """One user-visible answer: a pipeline of ``mdeg`` invocations.

    Each later stage reads the previous stage's stdout on stdin.  `check`
    tests the parsed final output against an answer known without this
    program; `normalize` strips fields that legitimately vary by seed.
    """

    def __init__(self, name, stages, check=None, normalize=False):
        self.name = name
        self.stages = stages
        self.check = check
        self.normalize = normalize


def ring_text(field, blocks, ideal, gens, rng):
    """A ring file with one grading component per block, gens shuffled."""
    names = [v for block in blocks for v in block]
    lines = [field, "vars " + " ".join(names)]
    for k, block in enumerate(blocks):
        deg = ",".join("1" if j == k else "0" for j in range(len(blocks)))
        lines += [f"deg {v} = ({deg})" for v in block]
    gens = list(gens)
    rng.shuffle(gens)
    lines.append(f"ideal {ideal} = [ " + "; ".join(gens) + " ]")
    return "\n".join(lines) + "\n"


def monomial_text(names, exps):
    return "*".join(
        v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e
    )


def radical_gens(exps):
    """Minimal generators of the radical of a monomial ideal."""
    sq = {tuple(min(e, 1) for e in g) for g in exps}
    return sorted(
        g for g in sq
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in sq)
    )


def minors_ring_text(m, n, r, rng):
    """r-minors of the generic m x n matrix, deg x{i}_{j} = e_i + f_j, over GF(32003)."""
    names = [f"x{i}_{j}" for i in range(1, m + 1) for j in range(1, n + 1)]
    lines = [FP, "vars " + " ".join(names)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            deg = [0] * (m + n)
            deg[i - 1] = deg[m + j - 1] = 1
            lines.append(f"deg x{i}_{j} = ({','.join(map(str, deg))})")
    gens = []
    for rows in combinations(range(1, m + 1), r):
        for cols in combinations(range(1, n + 1), r):
            terms = []
            for perm in permutations(range(r)):
                inversions = sum(perm[a] > perm[b] for a in range(r) for b in range(a + 1, r))
                sign = "-" if inversions % 2 else "+"
                mono = "*".join(f"x{rows[a]}_{cols[perm[a]]}" for a in range(r))
                terms.append(f"{sign} {mono}")
            gens.append(" ".join(terms).lstrip("+ "))
    rng.shuffle(gens)
    lines.append("ideal I = [ " + "; ".join(gens) + " ]")
    return "\n".join(lines) + "\n"


def poly_terms(obj, key="poly"):
    """{exponent tuple: int coefficient} of a canonical JSON polynomial."""
    return {tuple(t["exp"]): int(t["coeff"]) for t in obj["result"][key]}


def _embedded(blocks, terms):
    out = {}
    for exp, c in terms.items():
        full = [0, 0, 0]
        for k, e in zip(blocks, exp):
            full[k - 1] = e
        out[tuple(full)] = c
    return out


def build(workload, seed, workdir):
    """Write the workload's ring files under `workdir`; return its jobs."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    if workload == "threefold-qq":
        ring = write("P-qq.ring", ring_text("field QQ", P_BLOCKS, "P", P_GENS, rng))
        jobs = [
            Job("cee P", [["cee", ring, "--ideal", "P", "--json"]],
                lambda o: poly_terms(o) == P_CEE),
            Job("kpoly P", [["kpoly", ring, "--ideal", "P", "--json"]]),
            Job("geom P", [["geom", ring, "--ideal", "P", "--json"]],
                lambda o: o["result"]["meta"]["dim"] == 3 and poly_terms(o) == P_CEE),
        ]
        for J, terms in PROJECTION_CEE.items():
            blocks = ",".join(map(str, J))
            jobs.append(Job(
                f"project {blocks} | cee",
                [["project", ring, "--ideal", "P", "--blocks", blocks],
                 ["cee", "-", "--ideal", "P", "--json"]],
                lambda o, want=_embedded(J, terms): poly_terms(o) == want,
            ))
        jobs += [
            Job("polymatroid-check P", [["polymatroid-check", ring, "--from-cee", "P", "--json"]],
                lambda o: o["result"]["ok"] is True
                and {tuple(q) for q in o["result"]["meta"]["points"]} == set(P_CEE)),
            Job("snp-check P", [["snp-check", ring, "--ideal", "P", "--json"]],
                lambda o: o["result"]["ok"] is True),
        ]
        shapes = [(3, 4, 2), (3, 3, 2)]
        shapes += [(m, n, m) for n in range(1, 5) for m in range(1, n + 1)]
        shapes.append((2, 5, 2))
        for m, n, r in shapes:
            check = None
            if r == m:
                check = lambda o: o["result"]["meta"]["matches_closed_formulas"] is True
            jobs.append(Job(
                f"det {m}x{n} r{r}",
                [["det", "--m", str(m), "--n", str(n), "--r", str(r), "--json"]],
                check,
            ))
        return jobs

    if workload == "gin-structure":
        seed_args = ["--seed", str(seed)]
        ring = write("P-fp.ring", ring_text(FP, P_BLOCKS, "P", P_GENS, rng))
        jobs = [Job("gin P", [["gin", ring, "--ideal", "P", "--json"] + seed_args],
                    normalize=True)]
        for J in ((1, 2), (1, 3), (2, 3)):
            blocks = [P_BLOCKS[k - 1] for k in J]
            kept = {v for b in blocks for v in b}
            # P's generators in the kept variables generate the projection's
            # ideal P_J = P ∩ k[blocks J]; the tests check this.
            gens = [g for g in P_GENS if set(re.findall(r"[xyz]\d", g)) <= kept]
            tag = "".join(map(str, J))
            path = write(f"P{tag}-fp.ring", ring_text(FP, blocks, "P", gens, rng))
            jobs.append(Job(
                f"gin-report P_{tag}",
                [["gin-report", path, "--ideal", "P", "--json"] + seed_args],
                lambda o: all(o["result"]["clauses"].values()),
            ))
        names = [v for b in P_BLOCKS for v in b]
        rad = [monomial_text(names, g) for g in radical_gens(IN_P)]
        path = write("radinP-fp.ring", ring_text(FP, P_BLOCKS, "M", rad, rng))
        jobs.append(Job("arith rad(in P)", [["arith", path, "--ideal", "M", "--json"]],
                        _radical_bounded_by_cee))
        # CS detection (acceptance criterion 8): the 2x4 maximal minors are
        # CS; x^2 in a standard-graded k[x, y] is not.
        cs_inputs = (
            ("cs-check 2x4 r2", minors_ring_text(2, 4, 2, rng), True),
            ("cs-check x^2", ring_text(FP, (("x", "y"),), "I", ["x^2"], rng), False),
        )
        for name, text, is_cs in cs_inputs:
            path = write(name.replace(" ", "-").replace("^", "") + ".ring", text)
            jobs.append(Job(
                name,
                [["cs-check", path, "--ideal", "I", "--json"] + seed_args],
                lambda o, want=is_cs: o["result"]["is_cs"] is want,
            ))
        return jobs

    raise ValueError(f"unknown workload {workload!r}")


def _radical_bounded_by_cee(o):
    """rad(in P) has the minimal primes of in(P), each counted once.

    So its codimension-6 part is supported on supp C(P) with coefficients
    at most those of C(P).
    """
    terms = poly_terms(o)
    top = {e: c for e, c in terms.items() if sum(e) == 6}
    return set(top) == set(P_CEE) and all(0 < c <= P_CEE[e] for e, c in top.items())


def normalized(job, stdout):
    """The stdout compared against the recorded output."""
    if not job.normalize:
        return stdout
    obj = json.loads(stdout)
    obj["result"]["meta"]["seed"] = None
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
