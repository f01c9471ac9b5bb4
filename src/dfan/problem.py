"""Problem and syzygy files: one problem per file, line-oriented.

    # comments and blank lines are skipped
    ring n=2 k=2 r=1
    shifts = [[0,0]]
    gen: x1 d1 + x2 d2
    target: x1^2 d1            (optional)
    cone = [[1,0],[0,1]]       (optional)
    weight = [1, 1/2]          (optional)
    ideal = W1, W2             (optional)
    s = [0, 0]                 (optional)
    degree_bound = 4           (optional)
    l_max = 8                  (optional)
    order = deg-revlex-pot     (optional; the only supported name)

A syzygy file has the header ``syzygy n=<n> k=<k>``, the field ``a`` and
``q:`` lines.  ``split_lines`` splits both formats, and ``read_field``
reads each ``key = value`` field; the command line reads its flags of the
same names with it too.

The round-trip tests print a parsed problem with a printer of their own
and parse it back to an equal value."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import SemanticError, SyntaxErrorWithPos, WeightError
from .flatness import parse_w_op
from .grammar import number_too_long, parse_vec, parse_w_monomials
from .weights import LinearForm, TermOrder
from .weyl import RingDescriptor, WeylVec

_RING = re.compile(r"ring\s+n\s*=\s*(\d+)\s+k\s*=\s*(\d+)\s+r\s*=\s*(\d+)\s*$")
_SYZ = re.compile(r"syzygy\s+n\s*=\s*(\d+)\s+k\s*=\s*(\d+)\s*$")


@dataclass
class ProblemFile:
    ring: RingDescriptor
    generators: tuple
    target: WeylVec | None = None
    cone: tuple | None = None
    weight: LinearForm | None = None
    ideal: tuple | None = None  # monomial exponents in N^k
    s: tuple | None = None
    degree_bound: int | None = None
    l_max: int | None = None
    order: str | None = None


_ROW = r"\[[^\[\]]*\]"
_MATRIX = re.compile(rf"\[\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\]")
_ROW_BODY = re.compile(r"\[([^\]]*)\]")
_INT = re.compile(r"-?\d+")
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")
_DIGITS = re.compile(r"\d+")


def parse_int_matrix(text: str, line: int) -> tuple:
    """A bracketed, comma-separated list of bracketed integer rows."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SyntaxErrorWithPos("expected a bracketed list of rows", line)
    if not text[1:-1].strip():
        raise SyntaxErrorWithPos("empty matrix", line)
    if not _MATRIX.fullmatch(text):
        raise SyntaxErrorWithPos("expected a comma-separated list of rows", line)
    rows = []
    for chunk in _ROW_BODY.findall(text, 1, len(text) - 1):
        row = []
        for piece in chunk.split(","):
            piece = piece.strip()
            if not _INT.fullmatch(piece):
                raise SyntaxErrorWithPos(f"bad integer {piece!r}", line)
            try:
                row.append(int(piece))
            except ValueError:
                raise number_too_long(line) from None
        rows.append(tuple(row))
    return tuple(rows)


def parse_rational_vector(text: str, line: int) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SyntaxErrorWithPos("expected a bracketed vector", line)
    out = []
    for piece in text[1:-1].split(","):
        piece = piece.strip()
        m = _RATIONAL.fullmatch(piece)
        if not m:
            raise SyntaxErrorWithPos(f"bad rational {piece!r}", line)
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:
            raise number_too_long(line) from None
        if not den:
            raise SyntaxErrorWithPos(f"zero denominator in {piece!r}", line)
        out.append(Fraction(num) if den == 1 else Fraction(num, den))
    return tuple(out)


def nonnegative_int(text: str) -> int:
    """A count written as decimal digits only: no sign, no spaces."""
    if not _DIGITS.fullmatch(text):
        raise ValueError(f"must be a nonnegative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(number_too_long(0).message) from None


def read_field(name: str, text: str, line: int, k: int | None):
    """The value of the field ``name`` written as ``text``, checked
    against a ring with ``k`` W-variables (None: no ring, so rows of any
    length).  An error ends with ``(line N)``; line 0 stands for a flag's
    value, whose errors carry the bare message."""
    try:
        if name in ("degree_bound", "l_max"):
            try:
                return nonnegative_int(text)
            except ValueError as exc:
                raise SemanticError(f"{name} {exc}") from None
        if name == "order":
            if text != TermOrder.NAME:
                raise SemanticError(f"unsupported order {text!r}")
            return text
        if name == "ideal":
            return parse_w_monomials(text, k)
        if name == "weight":
            vec = parse_rational_vector(text, line)
            if len(vec) != k:
                raise SemanticError(f"weight must have length {k}")
            return LinearForm(vec)
        if name == "s":
            vec = parse_rational_vector(text, line)
            if len(vec) != k or any(v.denominator != 1 for v in vec):
                raise SemanticError(f"s must be an integer vector of length {k}")
            return tuple(map(int, vec))
        rows = parse_int_matrix(text, line)  # shifts, cone or a syzygy's a
        if name != "shifts" and k is not None and any(len(row) != k for row in rows):
            what = "cone" if name == "cone" else "exponent"
            raise SemanticError(f"{what} rows must have length {k}")
        if name == "a" and any(c < 0 for row in rows for c in row):
            raise SemanticError("exponents must be nonnegative")
        return rows
    except (SemanticError, WeightError) as exc:
        if not line:
            raise
        raise type(exc)(f"{exc} (line {line})") from None


def split_lines(text: str, word: str, header: re.Pattern, tags: tuple, keys: tuple):
    """The lines of a problem or syzygy file, comments and blank lines
    skipped: the numbers of the one header line (a line starting with
    ``word`` must match ``header``), the (text, line) pairs of the lines
    starting with each of ``tags`` in file order, and the (value, line) pair of
    each ``key = value`` field, ``key`` one of ``keys``.  A line of none
    of these forms, such as the other format's header, is unrecognized."""
    numbers = None
    tagged = {tag: [] for tag in tags}
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line.startswith(word):
            m = header.match(line)
            if not m:
                raise SyntaxErrorWithPos(f"bad {word} line", lineno, 1)
            if numbers is not None:
                raise SyntaxErrorWithPos(f"duplicate {word} line", lineno, 1)
            try:
                numbers = tuple(map(int, m.groups()))
            except ValueError:
                raise number_too_long(lineno) from None
        elif line.startswith(tags):
            tag = line[: line.index(":") + 1]
            tagged[tag].append((line[len(tag):].strip(), lineno))
        else:
            key, eq, value = line.partition("=")
            key = key.strip()
            if not (eq and key.isidentifier()):
                raise SyntaxErrorWithPos(f"unrecognized line {line[:20]!r}", lineno, 1)
            if key not in keys:
                raise SyntaxErrorWithPos(f"unknown field {key!r}", lineno, 1)
            if key in fields:
                raise SyntaxErrorWithPos(f"duplicate field {key!r}", lineno, 1)
            fields[key] = (value.strip(), lineno)
    return numbers, tagged, fields


_FIELDS = ("shifts", "cone", "weight", "ideal", "s", "degree_bound", "l_max", "order")


def parse_problem(text: str) -> ProblemFile:
    ring, lines, fields = split_lines(text, "ring", _RING, ("gen:", "target:"), _FIELDS)
    if ring is None:
        raise SyntaxErrorWithPos("missing ring line", 1, 1)
    if len(lines["target:"]) > 1:
        raise SyntaxErrorWithPos("duplicate target line", lines["target:"][1][1], 1)
    n, k, r = ring
    if not 1 <= k <= n:
        raise SemanticError(f"need 1 <= k <= n, got k={k}, n={n}")
    if r < 1:
        raise SemanticError(f"need r >= 1, got r={r}")
    values = {key: read_field(key, *where, k) for key, where in fields.items()}
    shifts = values.pop("shifts", None)
    if shifts is not None and (len(shifts) != r or any(len(col) != k for col in shifts)):
        raise SemanticError(
            f"shifts must be {r} rows of length {k}, got {list(map(list, shifts))}"
            f" (line {fields['shifts'][1]})"
        )
    ring_desc = RingDescriptor(n, k, r, shifts)

    def parse_line(vtext, lineno):
        try:
            return parse_vec(vtext, ring_desc)
        except SyntaxErrorWithPos as exc:
            raise SyntaxErrorWithPos(exc.message, lineno, exc.column) from None
        except SemanticError as exc:
            raise SemanticError(f"{exc} (line {lineno})") from None

    generators = []
    for gtext, lineno in lines["gen:"]:
        g = parse_line(gtext, lineno)
        if g.is_zero():
            raise SemanticError(f"zero generator at line {lineno}")
        generators.append(g)
    if not generators:
        raise SemanticError("problem has no generators")
    targets = lines["target:"]
    target = parse_line(*targets[0]) if targets else None
    return ProblemFile(ring_desc, tuple(generators), target, **values)


@dataclass
class SyzygyFile:
    n: int
    k: int
    a: tuple
    qs: tuple  # one term dict (alpha, beta, ell) -> coef per q: line


def parse_syzygy(text: str) -> SyzygyFile:
    header, lines, fields = split_lines(text, "syzygy", _SYZ, ("q:",), ("a",))
    qs = lines["q:"]
    if header is None or "a" not in fields or not qs:
        raise SemanticError("syzygy file needs a header, exponents and q: lines")
    n, k = header
    a = read_field("a", *fields["a"], k)
    if len(a) != len(qs):
        raise SemanticError("need as many q: lines as exponent rows")
    ops = []
    for qtext, lineno in qs:
        try:
            ops.append(parse_w_op(qtext, n, k))
        except SemanticError as exc:
            raise SemanticError(f"{exc} (line {lineno})") from None
    return SyzygyFile(n, k, a, tuple(ops))
