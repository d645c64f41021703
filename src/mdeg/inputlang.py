"""Parser for the ring-file input language.

Grammar (whitespace-insensitive, # comments):

    field QQ            | field Fp 32003
    vars x0 x1 x2
    deg x0 = (1,0,0)
    ideal P = [ x0*x1 - x2^2 ; x0^3 ]

Every variable is named once in vars and needs a degree declaration, and
every deg names a variable; one ring per file, with at most one field
declaration; several named ideals may follow, each name once.  Errors
carry line and column: each precondition of GradedRing is checked at the
token that breaks it, a repeated variable at its second name.

The text is tokenized line by line (str.splitlines), one regex findall
per line: a token is the plain tuple (num, name, op, bad) of the regex's
groups, one of them nonempty, and holds no position.  The parser walks
the token list by index.  An error works out its token's line and
column from the index only when it is raised, by scanning the lines
again (_where); so does Session.ideal, which keeps the index of each
generator's first token.  The declarations may come in any order: each
generator is only delimited while they are read, and evaluated once the
ring is built, in one loop over its tokens into one term dict (_terms).
A product of numbers, names and their ^ or / is one coefficient and one
exponent list, so x^k costs one multiplication of exponents, and + and -
add the product into the dict.  Only a parenthesized sum of several
terms is a Polynomial, multiplied and raised to powers by Polynomial
arithmetic; a power (f)^k of a sum of r terms is refused when
C(k + r, r), which bounds the terms of f, f^2, ..., f^k together, passes
POWER_TERMS_LIMIT.  Over QQ no coefficient may have a numerator or
denominator of more than POWER_BITS_LIMIT bits, and a power is refused
before it is worked out (_capped_power); over Fp a power c^k of a number
is pow(c, k, p).
"""

import re
import sys
from math import comb
from operator import add, itemgetter

from .errors import BadArgument, InputError, NonPrimeModulus
from .fields import QQ, PrimeField
from .groebner import Ideal
from .ring import GradedRing, Polynomial, is_homogeneous

#: Largest C(k + r, r) for a power (f)^k of a parenthesized sum f of r terms.
POWER_TERMS_LIMIT = 10**6

#: Most bits of the numerator or the denominator of a coefficient over QQ,
#: so that every coefficient read can be printed: an int of at most
#: D log2(10) bits is below 10^D, and D is the most digits Python writes as
#: a string (sys.get_int_max_str_digits; 4,300 where that is 0 or missing).
#: 14,284 bits at the default 4,300 digits.
POWER_BITS_LIMIT = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) * 3321928 // 10**6

# whitespace, then a token, a comment, or a character no token takes
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<op>[=\[\]();,+\-*^/])"
    r"|#.*|(?P<bad>\S))"
)

# the groups of a comment, and the last token of every token list
_EOF = ("", "", "", "")

_KEYWORDS = ("field", "deg", "ideal", "vars")


def _bits(c):
    """Bits of the wider of the numerator and denominator of c, an int or Fraction."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _capped_power(c, k):
    """c^k for an int or Fraction c, or None when its numerator or its
    denominator would have more than POWER_BITS_LIMIT bits.

    An int a of b >= 2 bits has a^k >= 2^((b - 1) k), so a power is
    refused unworked when (b - 1) k reaches the limit; otherwise a^k has
    fewer than b k < 2 * POWER_BITS_LIMIT bits and is worked out.  A base
    of at most one bit (0, 1, -1) passes for every k."""
    if (_bits(c) - 1) * k >= POWER_BITS_LIMIT:
        return None
    out = c**k
    return None if _bits(out) > POWER_BITS_LIMIT else out


def _tokenize(lines):
    """The tokens of `lines`, the text's str.splitlines, and a last _EOF
    token; an unexpected character is an input error."""
    toks = []
    findall = _TOKEN.findall
    for chars in lines:
        found = findall(chars)
        if found and found[-1] == _EOF:  # a comment, which ends its line
            found.pop()
        toks += found
    if any(map(itemgetter(3), toks)):
        raise next(_error(lines, i, f"unexpected character {t[3]!r}") for i, t in enumerate(toks) if t[3])
    toks.append(_EOF)
    return toks


def _where(lines, index):
    """(line, column) of the token at `index` of _tokenize(lines), found by
    scanning the lines again: the eof token is on the line after the last,
    and an unexpected character is at the column just past the last token
    before it on its line."""
    for line, chars in enumerate(lines, start=1):
        end = 0  # where the last token on the line ends
        for m in _TOKEN.finditer(chars):
            kind = m.lastgroup
            if kind:
                if not index:
                    return line, (end + 1 if kind == "bad" else m.start(kind) + 1)
                index -= 1
                end = m.end()
    return len(lines) + 1, 1


def _error(lines, index, msg):
    """The InputError `msg` at the token at `index`."""
    return InputError(msg, *_where(lines, index))


def _expected(lines, toks, index, what):
    """The InputError for the token at `index` where `what` was expected."""
    return _error(lines, index, f"expected {what}, found {''.join(toks[index])!r}")


def _int(lines, index, text):
    """The int of the number `text` at `index`; a number of more digits
    than Python reads into an int is an input error at it."""
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _error(lines, index, f"number of {len(text)} digits is too long") from None


class Session:
    """Parsed ring file: the ring plus named ideals (as Polynomial lists)."""

    def __init__(self, ring, ideals, positions, lines):
        self.ring = ring
        self.ideals = ideals  # name -> list of Polynomial
        self.positions = positions  # name -> token index where each generator starts
        self._lines = lines

    def ideal(self, name):
        if name not in self.ideals:
            raise InputError(f"no ideal named {name!r} in the input")
        gens = self.ideals[name]
        # every generator is checked here, with its position, so Ideal
        # need not check them again
        for f, start in zip(gens, self.positions[name]):
            if not is_homogeneous(f):
                raise _error(self._lines, start, f"generator {f} is not multihomogeneous")
        return Ideal._of(self.ring, [f for f in gens if f])


def parse_input(text):
    """Parse a ring file into a Session."""
    lines = text.splitlines()
    toks = _tokenize(lines)
    eof = len(toks) - 1
    field = names = None
    degrees = {}
    deg_at = {}  # name -> index of its name in its deg declaration
    spans = {}  # ideal name -> (start, end) token indices of each generator
    i = 0
    while i < eof:
        word = toks[i][1]
        if not word:
            raise _error(lines, i, "expected a declaration keyword")
        at = i
        i += 1
        if word == "field":
            if field is not None:
                raise _error(lines, at, "duplicate field declaration")
            kind = toks[i][1]
            if not kind:
                raise _expected(lines, toks, i, "name")
            i += 1
            if kind == "QQ":
                field = QQ
            elif kind == "Fp":
                if not toks[i][0]:
                    raise _expected(lines, toks, i, "num")
                try:
                    field = PrimeField(_int(lines, i, toks[i][0]))
                except (BadArgument, NonPrimeModulus) as e:
                    raise _error(lines, i, str(e)) from None
                i += 1
            else:
                raise _error(lines, at + 1, f"unknown field {kind!r} (use QQ or Fp <prime>)")
        elif word == "vars":
            if names is not None:
                raise _error(lines, at, "duplicate vars declaration")
            names, vars_at = [], at
            while (name := toks[i][1]) and name not in _KEYWORDS:
                if name in names:
                    raise _error(lines, i, f"repeated variable {name!r}")
                names.append(name)
                i += 1
            if not names:
                raise _error(lines, at, "vars needs at least one name")
        elif word == "deg":
            name = toks[i][1]
            if not name:
                raise _expected(lines, toks, i, "name")
            if names is not None and name not in names:
                raise _error(lines, i, f"unknown variable {name!r}")
            name_at = i
            if toks[i + 1][2] != "=":
                raise _expected(lines, toks, i + 1, "=")
            if toks[i + 2][2] != "(":
                raise _expected(lines, toks, i + 2, "(")
            i += 3
            d = []
            while True:
                if not toks[i][0]:
                    raise _expected(lines, toks, i, "num")
                d.append(_int(lines, i, toks[i][0]))
                i += 1
                if toks[i][2] != ",":
                    break
                i += 1
            if toks[i][2] != ")":
                raise _expected(lines, toks, i, ")")
            i += 1
            d = tuple(d)
            if name in degrees:
                raise _error(lines, at, f"duplicate degree for {name}")
            if not any(d):
                raise _error(lines, at, f"deg {name} = {d} is not a positive degree")
            degrees[name] = d
            deg_at[name] = name_at
        elif word == "ideal":
            name = toks[i][1]
            if not name:
                raise _expected(lines, toks, i, "name")
            if toks[i + 1][2] != "=":
                raise _expected(lines, toks, i + 1, "=")
            if toks[i + 2][2] != "[":
                raise _expected(lines, toks, i + 2, "[")
            i += 3
            gens = []
            if toks[i][2] == "]":
                i += 1
            else:
                while True:
                    # a generator runs to the first ; or ] outside parentheses
                    start, depth = i, 0
                    while True:
                        op = toks[i][2]
                        if op:
                            if op == "(":
                                depth += 1
                            elif op == ")":
                                depth -= 1
                            elif (op == ";" or op == "]") and not depth:
                                break
                        elif i == eof:
                            raise _error(lines, i, "unterminated ideal")
                        i += 1
                    gens.append((start, i))
                    i += 1
                    if op == "]":
                        break
                    if toks[i][2] == "]":
                        i += 1
                        break
            if name in spans:
                raise _error(lines, at, f"duplicate ideal {name}")
            spans[name] = gens
        else:
            raise _error(lines, at, f"unknown declaration {word!r}")
    if field is None:
        field = QQ
    if names is None:
        raise _error(lines, eof, "missing vars declaration")
    for name, at in deg_at.items():
        if name not in names:  # a deg before the vars declaration
            raise _error(lines, at, f"unknown variable {name!r}")
    missing = [name for name in names if name not in degrees]
    if missing:
        raise _error(lines, vars_at, f"missing degree for {missing[0]}")
    p = len(next(iter(degrees.values())))
    for name in names:
        if len(degrees[name]) != p:
            raise _error(lines, deg_at[name], f"degree of {name} has wrong length")
    ring = GradedRing(names, [degrees[name] for name in names], field)
    ideals = {
        name: [
            Polynomial._of(ring, _terms(ring, toks, lines, start, end)) if start < end else ring.zero()
            for start, end in gens
        ]
        for name, gens in spans.items()
    }
    positions = {name: [start for start, _ in gens] for name, gens in spans.items()}
    return Session(ring, ideals, positions, lines)


def _terms(ring, toks, lines, i, end):
    """The term dict of the generator toks[i:end], i < end, evaluated in
    one loop; toks[end] is the ; or ] after it.

    A term is a coefficient c, an exponent list e and a Polynomial poly,
    or None, which its factors multiply: a number, a name, or a
    parenthesized sum, with its ^ and /.  A sum in parentheses pushes the
    enclosing sum's state on `stack` and, at its ), is a factor: a
    Polynomial when it has several terms, else its one monomial.  Over
    QQ each factor but a variable, each product with a sum and each sum
    of like terms is checked at its last token, so that no coefficient
    grows past twice POWER_BITS_LIMIT.
    """
    F = ring.field
    p, one, fmul = F.p, F.one, F.mul
    minus_one = F.neg(one)
    index = ring._index
    too_large = f"coefficient too large: more than {POWER_BITS_LIMIT} bits"
    out = {}
    stack = []  # the enclosing sums' (out, sign, c, e, poly, index of the "(")
    first = i
    sign, c, e, poly = one, one, [0] * ring.n, None
    while True:
        # a factor: its base at i, then its ^ and /
        if i == end:
            raise _error(lines, end - 1, "unexpected end of polynomial")
        num, name, op, _ = toks[i]
        i += 1
        if name:
            v = index.get(name)
            if v is None:
                raise _error(lines, i - 1, f"unknown variable {name!r}")
            if toks[i][2] == "*":  # a variable times more factors
                e[v] += 1
                i += 1
                continue
            fc, fe, fp = one, ((v, 1),), None
        elif num:
            fc, fe, fp = _int(lines, i - 1, num), (), None
            if p:
                fc %= p
        elif op == "(":
            stack.append((out, sign, c, e, poly, i - 1))
            out, sign, c, e, poly = {}, one, one, [0] * ring.n, None
            continue
        elif op == "-" and (i - 1 == first or toks[i - 2][2] == "("):
            sign = minus_one  # a sum may start with a -
            continue
        else:
            raise _error(lines, i - 1, f"unexpected token {op!r}")
        while True:
            op = toks[i][2]
            while op == "^" or op == "/":
                i += 1
                if i == end or not toks[i][0]:
                    raise _error(lines, min(i, end - 1), "expected an integer after " + op)
                m = _int(lines, i, toks[i][0])
                if op == "/":
                    d = m % p if p else m
                    if not d:
                        raise _error(lines, i, f"cannot divide by {toks[i][0]} over {F!r}")
                    if fp is None:
                        fc = fmul(fc, F.inv(d))
                    else:
                        fp = fp.scale(F.inv(d))
                elif fp is not None:
                    r = len(fp.terms)
                    if comb(m + r, r) > POWER_TERMS_LIMIT:
                        raise _error(
                            lines,
                            i,
                            f"power {m} of a sum of {r} terms is too large: "
                            f"C({m} + {r}, {r}) > {POWER_TERMS_LIMIT}",
                        )
                    # refused unworked when f's widest coefficient to the m passes the limit
                    if not p and _capped_power(max(fp.terms.values(), key=_bits), m) is None:
                        raise _error(lines, i, f"power {m} of a sum is too large: more than {POWER_BITS_LIMIT} bits")
                    fp = fp**m
                else:
                    if fc != one:  # one stays one
                        fc = pow(fc, m, p) if p else _capped_power(fc, m)
                        if fc is None:
                            raise _error(
                                lines, i, f"power {m} of a number is too large: more than {POWER_BITS_LIMIT} bits"
                            )
                        fc = F.coerce(fc)
                    fe = [(v, k * m) for v, k in fe]
                i += 1
                op = toks[i][2]
            # the factor into the term
            if fp is None:
                if fc != one:
                    c = fmul(c, fc)
                    if not p and _bits(c) > POWER_BITS_LIMIT:
                        raise _error(lines, i - 1, too_large)
                for v, k in fe:
                    e[v] += k
            else:
                poly = fp if poly is None else poly * fp
                if not p and max(map(_bits, poly.terms.values()), default=0) > POWER_BITS_LIMIT:
                    raise _error(lines, i - 1, too_large)
            num, name, op, _ = toks[i]
            if op == "*":
                i += 1
                break
            if num or name or op == "(":
                break
            # the term into the sum
            c = fmul(sign, c)
            if poly is None:
                added = ((tuple(e), c),)
            else:
                added = [(tuple(map(add, pe, e)), fmul(c, pc)) for pe, pc in poly.terms.items()]
            for te, tc in added:
                prev = out.get(te)
                if prev is not None:
                    tc = F.add(prev, tc)
                    if not p and _bits(tc) > POWER_BITS_LIMIT:
                        raise _error(lines, i - 1, too_large)
                if tc:
                    out[te] = tc
                else:
                    out.pop(te, None)
            if poly is not None and not p and max(map(_bits, out.values()), default=0) > POWER_BITS_LIMIT:
                raise _error(lines, i - 1, too_large)
            if op == "+" or op == "-":
                i += 1
                sign = one if op == "+" else minus_one
                c, e, poly = one, [0] * ring.n, None
                break
            if not stack:
                if i != end:
                    raise _error(lines, i, "trailing tokens in polynomial")
                return out
            # the sum in parentheses ends: it is a factor of the enclosing term
            if op != ")":
                raise _error(lines, i if i < end else stack[-1][5], "expected )")
            i += 1
            inner = out
            out, sign, c, e, poly, _ = stack.pop()
            if len(inner) > 1:
                fc, fe, fp = None, None, Polynomial._of(ring, inner)
            elif inner:
                [(ie, fc)] = inner.items()
                fe, fp = [(v, k) for v, k in enumerate(ie) if k], None
            else:
                fc, fe, fp = F.zero, (), None


def format_ring_file(ring, ideals):
    """Emit a Session back in the input grammar (used by project/standardize)."""
    lines = []
    if ring.field.p:
        lines.append(f"field Fp {ring.field.p}")
    else:
        lines.append("field QQ")
    lines.append("vars " + " ".join(ring.names))
    for nm, d in zip(ring.names, ring.degrees):
        lines.append(f"deg {nm} = ({','.join(str(c) for c in d)})")
    for nm, gens in ideals.items():
        if not gens:
            lines.append(f"ideal {nm} = []")
            continue
        body = "; ".join(str(g) for g in gens)
        lines.append(f"ideal {nm} = [ {body} ]")
    return "\n".join(lines) + "\n"
