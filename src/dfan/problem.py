"""Problem files: one problem per file, line-oriented.

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

The round-trip tests print a parsed problem with a printer of their own
and parse it back to an equal value."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import SemanticError, SyntaxErrorWithPos
from .flatness import parse_w_op
from .grammar import parse_vec, parse_w_monomials
from .weights import LinearForm, TermOrder
from .weyl import RingDescriptor, WeylVec

_RING = re.compile(r"ring\s+n\s*=\s*(\d+)\s+k\s*=\s*(\d+)\s+r\s*=\s*(\d+)\s*$")


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
    order_name: str | None = None


_ROW = r"\[[^\[\]]*\]"
_MATRIX = re.compile(rf"\[\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\]")


def parse_int_matrix(text: str, line: int) -> tuple:
    """A bracketed, comma-separated list of bracketed integer rows."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SyntaxErrorWithPos("expected a bracketed list of rows", line, 1)
    if not text[1:-1].strip():
        raise SyntaxErrorWithPos("empty matrix", line, 1)
    if not _MATRIX.fullmatch(text):
        raise SyntaxErrorWithPos("expected a comma-separated list of rows", line, 1)
    rows = []
    for chunk in re.findall(r"\[([^\]]*)\]", text[1:-1]):
        row = []
        for piece in chunk.split(","):
            piece = piece.strip()
            if not re.fullmatch(r"-?\d+", piece):
                raise SyntaxErrorWithPos(f"bad integer {piece!r}", line, 1)
            row.append(int(piece))
        rows.append(tuple(row))
    return tuple(rows)


def parse_rational_vector(text: str, line: int) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SyntaxErrorWithPos("expected a bracketed vector", line, 1)
    out = []
    for piece in text[1:-1].split(","):
        piece = piece.strip()
        m = re.fullmatch(r"-?\d+(?:/(\d+))?", piece)
        if not m:
            raise SyntaxErrorWithPos(f"bad rational {piece!r}", line, 1)
        if m.group(1) is not None and not int(m.group(1)):
            raise SyntaxErrorWithPos(f"zero denominator in {piece!r}", line, 1)
        out.append(Fraction(piece))
    return tuple(out)


def nonnegative_int(text: str) -> int:
    """A count written as decimal digits only: no sign, no spaces."""
    if not re.fullmatch(r"\d+", text):
        raise ValueError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _parse_count(name: str, text: str, line: int) -> int:
    try:
        return nonnegative_int(text)
    except ValueError as exc:
        raise SemanticError(f"{name} {exc} (line {line})") from None


def parse_problem(text: str) -> ProblemFile:
    ring = None
    shifts = None
    gens: list[str] = []
    target_text = None
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ring"):
            m = _RING.match(line)
            if not m:
                raise SyntaxErrorWithPos("bad ring line", lineno, 1)
            n, k, r = (int(g) for g in m.groups())
            if not 1 <= k <= n:
                raise SemanticError(f"need 1 <= k <= n, got k={k}, n={n}")
            if r < 1:
                raise SemanticError(f"need r >= 1, got r={r}")
            ring = (n, k, r)
            continue
        if line.startswith("gen:"):
            gens.append((line[4:].strip(), lineno))
            continue
        if line.startswith("target:"):
            target_text = (line[7:].strip(), lineno)
            continue
        if "=" in line:
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key in fields:
                raise SyntaxErrorWithPos(f"duplicate field {key!r}", lineno, 1)
            fields[key] = (value, lineno)
            continue
        raise SyntaxErrorWithPos(f"unrecognized line {line[:20]!r}", lineno, 1)
    if ring is None:
        raise SyntaxErrorWithPos("missing ring line", 1, 1)
    n, k, r = ring
    if "shifts" in fields:
        shifts = parse_int_matrix(*fields.pop("shifts"))
        if len(shifts) != r or any(len(col) != k for col in shifts):
            raise SemanticError(
                f"shifts must be {r} rows of length {k}, got {list(map(list, shifts))}"
            )
    ring_desc = RingDescriptor(n, k, r, shifts)

    def parse_line(vtext, lineno):
        try:
            return parse_vec(vtext, ring_desc)
        except SyntaxErrorWithPos as exc:
            raise SyntaxErrorWithPos(exc.message, lineno, exc.column) from None

    generators = []
    for gtext, lineno in gens:
        g = parse_line(gtext, lineno)
        if g.is_zero():
            raise SemanticError(f"zero generator at line {lineno}")
        generators.append(g)
    if not generators:
        raise SemanticError("problem has no generators")
    target = None
    if target_text is not None:
        target = parse_line(*target_text)
    out = ProblemFile(ring_desc, tuple(generators), target)
    if "cone" in fields:
        out.cone = parse_int_matrix(*fields.pop("cone"))
        if any(len(row) != k for row in out.cone):
            raise SemanticError(f"cone rows must have length {k}")
    if "weight" in fields:
        vec = parse_rational_vector(*fields.pop("weight"))
        if len(vec) != k:
            raise SemanticError(f"weight must have length {k}")
        out.weight = LinearForm(vec)
    if "ideal" in fields:
        value, lineno = fields.pop("ideal")
        try:
            out.ideal = parse_w_monomials(value, k)
        except SemanticError as exc:
            raise SemanticError(f"{exc} (line {lineno})") from None
    if "s" in fields:
        vec = parse_rational_vector(*fields.pop("s"))
        if len(vec) != k or any(v.denominator != 1 for v in vec):
            raise SemanticError(f"s must be an integer vector of length {k}")
        out.s = tuple(int(v) for v in vec)
    if "degree_bound" in fields:
        out.degree_bound = _parse_count("degree_bound", *fields.pop("degree_bound"))
    if "l_max" in fields:
        out.l_max = _parse_count("l_max", *fields.pop("l_max"))
    if "order" in fields:
        name = fields.pop("order")[0]
        if name != TermOrder.NAME:
            raise SemanticError(f"unsupported order {name!r}")
        out.order_name = name
    if fields:
        key, (_, lineno) = sorted(fields.items())[0]
        raise SyntaxErrorWithPos(f"unknown field {key!r}", lineno, 1)
    return out


@dataclass
class SyzygyFile:
    n: int
    k: int
    a: tuple
    qs: tuple  # one WOp per q: line


_SYZ = re.compile(r"syzygy\s+n\s*=\s*(\d+)\s+k\s*=\s*(\d+)\s*$")


def parse_syzygy(text: str) -> SyzygyFile:
    header = None
    a = None
    qs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("syzygy"):
            m = _SYZ.match(line)
            if not m:
                raise SyntaxErrorWithPos("bad syzygy header", lineno, 1)
            header = (int(m.group(1)), int(m.group(2)))
            continue
        if re.match(r"a\b", line):
            _, eq, value = line.partition("=")
            if not eq:
                raise SyntaxErrorWithPos("expected 'a = [[..], ..]'", lineno, 1)
            a = parse_int_matrix(value, lineno)
            continue
        if line.startswith("q:"):
            qs.append((line[2:].strip(), lineno))
            continue
        raise SyntaxErrorWithPos(f"unrecognized line {line[:20]!r}", lineno, 1)
    if header is None or a is None or not qs:
        raise SemanticError("syzygy file needs a header, exponents and q: lines")
    n, k = header
    if any(len(row) != k for row in a):
        raise SemanticError(f"exponent rows must have length {k}")
    if any(any(c < 0 for c in row) for row in a):
        raise SemanticError("exponents must be nonnegative")
    if len(a) != len(qs):
        raise SemanticError("need as many q: lines as exponent rows")
    ops = []
    for qtext, lineno in qs:
        try:
            ops.append(parse_w_op(qtext, n, k))
        except SemanticError as exc:
            raise SemanticError(f"{exc} (line {lineno})") from None
    return SyzygyFile(n, k, tuple(a), tuple(ops))
