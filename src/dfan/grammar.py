"""The text grammar of every monomial format.

    sum      = term { (+|-) term }
    term     = [rational] { factor }        (a rational, a factor or both)
    factor   = <letter>[<index>][^<exponent>]
    rational = <int> | <int>/<nonzero int>

Each format has its own table of letters, in print order:

    x d t e   operators of D and D[t] and their vectors    (OPERATOR)
    x d w     syzygy operators in the toric coordinates    (SYZYGY)
    W w       monomials of Q[W], unsigned; w reads as W    (W_MONOMIAL)

Examples: ``3/2 x1^2 d1 e1 - d2 e1``, ``x1 d1 w2``, ``W1^2 W2``.  ``t``
carries no index; ``e<i>`` marks a vector component, is required for
vectors of rank r > 1 and forbidden for scalars.  Printing puts ``|c|``
before the factors when it is not 1 or there are none, a bare ``-`` on a
negative first term and ``+ `` or ``- `` on the later ones.  Formatting
is deterministic and ``parse(format(v)) == v`` holds bit-exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property

from .errors import SemanticError, SyntaxErrorWithPos
from .weyl import DtOp, DtVec, RingDescriptor, WeylOp, WeylVec


class Letters:
    """The factor letters of one format in print order.  ``unindexed``
    letters are written without an index (``t``); every other letter
    needs one."""

    def __init__(self, letters: str, unindexed: str = ""):
        self.letters = letters
        self.unindexed = unindexed
        self.indexed = tuple(letter not in unindexed for letter in letters)

    @cached_property
    def token(self) -> re.Pattern:
        """The token pattern of these letters, compiled on first use."""
        return re.compile(
            rf"\s*((\d+)(?:/(\d+))?|([{self.letters}])(\d*)(?:\^(\d+))?|[+-])"
        )


OPERATOR = Letters("xdte", unindexed="t")
SYZYGY = Letters("xdw")
W_MONOMIAL = Letters("Ww")


def number_too_long(line: int, column: int = 0) -> SyntaxErrorWithPos:
    """The error for a literal of more digits than Python converts to an
    int (``sys.get_int_max_str_digits()``, 4,300 by default)."""
    return SyntaxErrorWithPos(
        f"number longer than {sys.get_int_max_str_digits()} digits", line, column
    )


_UNITS = {1: Fraction(1), -1: Fraction(-1)}  # the coefficient of a bare term


def parse_sum(text: str, table: Letters) -> list:
    """The terms of a signed sum as (coefficient, factors) pairs, each
    factor a (letter, index, exponent) triple with index 0 for an
    unindexed letter, read in one walk over ``text``.  A bad token raises
    where the walk meets it; a token out of place is reported once the
    walk is over, so that a bad token anywhere comes first."""
    terms = []
    fault = sign = None  # sign: of the term being read, None before the first
    pos = 0
    match = table.token.match
    try:
        while True:
            m = match(text, pos)
            tok, num, den, letter, idx, exp = m.groups() if m else (None,) * 6
            if num is None and letter is None:  # a sign or the end ends a term
                if sign is not None and coef is None and not factors:
                    fault = fault or SyntaxErrorWithPos("empty term", 1, start)
                elif sign is not None:
                    terms.append((_UNITS[sign] if coef is None else coef, factors))
                if m is None:
                    break
                sign, coef, factors = -1 if tok == "-" else 1, None, []
                start, pos = m.start(1) + 1, m.end()
                continue
            col = m.start(1) + 1
            pos = m.end()
            if sign is None:
                sign, coef, factors, start = 1, None, [], col
            if letter is not None:
                if letter in table.unindexed:
                    if idx:
                        raise SyntaxErrorWithPos(f"bad factor {tok!r}", 1, col)
                elif not idx:
                    raise SyntaxErrorWithPos(f"missing index in factor {tok!r}", 1, col)
                factors.append((letter, int(idx or 0), int(exp or 1)))
                continue
            if den is None:
                value = Fraction(int(num))
            elif int(den):
                value = Fraction(int(num), int(den))
            else:
                raise SyntaxErrorWithPos(f"zero denominator in {tok!r}", 1, col)
            if coef is None and not factors:
                coef = sign * value
            else:
                fault = fault or SyntaxErrorWithPos("expected + or - between terms", 1, col)
    except ValueError:  # only int() raises it, on a literal past its limit
        raise number_too_long(1, col) from None
    rest = text[pos:].strip()
    if rest:
        raise SyntaxErrorWithPos(f"unexpected input {rest[:10]!r}", 1, pos + 1)
    if sign is None:
        raise SyntaxErrorWithPos("empty operator", 1, 1)
    if fault:
        raise fault
    return terms


def format_factors(table: Letters, exponents) -> list:
    """The factor texts of one term: ``exponents[j]`` holds the exponents
    of letter j of ``table`` by index; letters past its end print none."""
    out = []
    for letter, indexed, exps in zip(table.letters, table.indexed, exponents):
        for i, e in enumerate(exps):
            if e:
                head = f"{letter}{i + 1}" if indexed else letter
                out.append(f"{head}^{e}" if e > 1 else head)
    return out


def format_sum(items) -> str:
    """Render (coefficient, factor texts) pairs, already in print order,
    as a signed sum, ``|c|`` written when it is not 1 or there are no
    factors; no pairs give ``0``."""
    chunks = []
    for coef, factors in items:
        negative = coef < 0
        mag = -coef if negative else coef
        body = " ".join(factors if mag == 1 and factors else [str(mag), *factors])
        if chunks:
            chunks.append(("- " if negative else "+ ") + body)
        else:
            chunks.append(("-" if negative else "") + body)
    return " ".join(chunks) if chunks else "0"


# ---------------------------------------------------------------------------
# operators


def parse_terms(text: str, ring: RingDescriptor, *, vector: bool, dt: bool):
    """Parse into a list of (key, coef) pairs, the key (alpha, beta[, l])
    of a scalar, or that key followed by the component index i of a
    vector, as the operands key their terms."""
    n = ring.n
    terms = []
    for coef, factors in parse_sum(text, OPERATOR):
        alpha = [0] * n
        beta = [0] * n
        l = 0
        comp = None
        for head, idx, exp in factors:
            if head == "x" or head == "d":
                if not 1 <= idx <= n:
                    raise SemanticError(f"{head}{idx} out of range (n = {n})")
                (alpha if head == "x" else beta)[idx - 1] += exp
            elif head == "t":
                if not dt:
                    raise SemanticError("t factor outside D[t]")
                l += exp
            else:  # component marker
                if not vector:
                    raise SemanticError("component marker e<i> in a scalar")
                if not 1 <= idx <= ring.r:
                    raise SemanticError(f"e{idx} out of range (r = {ring.r})")
                if comp is not None and comp != idx - 1:
                    raise SemanticError("two component markers in one term")
                if exp != 1:
                    raise SemanticError("component marker cannot carry an exponent")
                comp = idx - 1
        if comp is None:
            if vector and ring.r != 1:
                raise SemanticError("vector term without component marker")
            comp = 0
        key = (tuple(alpha), tuple(beta), l) if dt else (tuple(alpha), tuple(beta))
        terms.append((key + (comp,) if vector else key, coef))
    return terms


def parse_op(text: str, ring: RingDescriptor) -> WeylOp:
    return WeylOp(ring, parse_terms(text, ring, vector=False, dt=False))


def parse_dt_op(text: str, ring: RingDescriptor) -> DtOp:
    return DtOp(ring, parse_terms(text, ring, vector=False, dt=True))


def parse_vec(text: str, ring: RingDescriptor) -> WeylVec:
    return WeylVec(ring, parse_terms(text, ring, vector=True, dt=False))


def parse_dt_vec(text: str, ring: RingDescriptor) -> DtVec:
    return DtVec(ring, parse_terms(text, ring, vector=True, dt=True))


def _display_key(key):
    # descending total degree, then reverse-lexicographic on (beta, alpha, t);
    # stable, so leading-ish terms print first
    if len(key) == 3:
        a, b, l = key
    else:
        (a, b), l = key, 0
    return (-(sum(a) + sum(b) + l), tuple(-e for e in b), tuple(-e for e in a), -l)


def _op_factors(key, comp: int | None) -> list:
    if len(key) == 3:
        key = (key[0], key[1], (key[2],))
    out = format_factors(OPERATOR, key)
    if comp is not None:
        out.append(f"e{comp + 1}")
    return out


def format_op(P) -> str:
    """Render a scalar WeylOp or DtOp."""
    keys = sorted(P.terms, key=_display_key)
    return format_sum([(P.terms[key], _op_factors(key, None)) for key in keys])


def format_vec(V) -> str:
    """Render a WeylVec or DtVec, component-major."""
    terms = V.terms
    keys = sorted(terms, key=lambda key: (key[-1], _display_key(key[:-1])))
    return format_sum([(terms[key], _op_factors(key[:-1], key[-1])) for key in keys])


# ---------------------------------------------------------------------------
# monomials of Q[W]


def parse_w_monomials(text: str, k: int) -> tuple:
    """Comma-separated W-monomials like ``W1^2, W2`` into exponents."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("1", ""):
            if chunk == "1":
                out.append((0,) * k)
            continue
        terms = ()  # a monomial: one term of factors only, so a letter first
        if chunk[0] in W_MONOMIAL.letters:
            try:
                terms = parse_sum(chunk, W_MONOMIAL)
            except SyntaxErrorWithPos:
                pass
        if len(terms) != 1:
            raise SemanticError(f"bad W-monomial {chunk!r}")
        exp = [0] * k
        for _, idx, e in terms[0][1]:
            if not 1 <= idx <= k:
                raise SemanticError(f"W{idx} out of range (k = {k})")
            exp[idx - 1] += e
        out.append(tuple(exp))
    if not out:
        raise SemanticError("empty ideal")
    return tuple(out)


def format_w_monomials(exps) -> str:
    return ", ".join(
        format_sum([(1, format_factors(W_MONOMIAL, (e,)))]) for e in exps
    )
