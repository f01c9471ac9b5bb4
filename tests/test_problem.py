import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfan.errors import SemanticError, SyntaxErrorWithPos
from dfan.grammar import (
    format_vec,
    format_w_monomials,
    number_too_long,
    parse_w_monomials,
)
from dfan.problem import (
    nonnegative_int,
    parse_int_matrix,
    parse_problem,
    parse_rational_vector,
    parse_syzygy,
)
from conftest import FUZZ_TOKENS, field_texts


def format_problem(p):
    """Print a parsed problem; parsing the text gives back an equal value."""
    lines = [f"ring n={p.ring.n} k={p.ring.k} r={p.ring.r}"]
    lines.append(
        "shifts = [" + ", ".join("[" + ", ".join(map(str, col)) + "]" for col in p.ring.shifts) + "]"
    )
    if p.order:
        lines.append(f"order = {p.order}")
    for g in p.generators:
        lines.append(f"gen: {format_vec(g)}")
    if p.target is not None:
        lines.append(f"target: {format_vec(p.target)}")
    if p.cone is not None:
        lines.append(
            "cone = [" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in p.cone) + "]"
        )
    if p.weight is not None:
        lines.append("weight = [" + ", ".join(str(c) for c in p.weight.coeffs) + "]")
    if p.ideal is not None:
        lines.append(f"ideal = {format_w_monomials(p.ideal)}")
    if p.s is not None:
        lines.append("s = [" + ", ".join(map(str, p.s)) + "]")
    if p.degree_bound is not None:
        lines.append(f"degree_bound = {p.degree_bound}")
    if p.l_max is not None:
        lines.append(f"l_max = {p.l_max}")
    return "\n".join(lines) + "\n"


EULER = """\
ring n=2 k=2 r=1
shifts = [[0, 0]]
gen: x1 d1 + x2 d2
"""


def test_parse_euler():
    p = parse_problem(EULER)
    assert (p.ring.n, p.ring.k, p.ring.r) == (2, 2, 1)
    assert len(p.generators) == 1


def test_round_trip_idempotent():
    p = parse_problem(EULER)
    printed = format_problem(p)
    assert parse_problem(printed) == p
    assert format_problem(parse_problem(printed)) == printed


def test_round_trip_full_fields():
    text = """\
# everything at once
ring n=2 k=2 r=2
shifts = [[0, 0], [1, 3]]
order = deg-revlex-pot
gen: x1 d1 e1 + x2 d2 e2
gen: d2 e2
target: x1 e1
cone = [[1, 0], [1, 1]]
weight = [1/2, 1]
ideal = W1 W2^2, W2
s = [1, -1]
degree_bound = 5
l_max = 7
"""
    p = parse_problem(text)
    assert p.weight.coeffs[0] == 0.5
    assert p.ideal == ((1, 2), (0, 1))
    assert p.s == (1, -1)
    assert parse_problem(format_problem(p)) == p


def test_compact_field_spelling():
    # fields also parse without spaces around the equals sign
    p = parse_problem("ring n=2 k=2 r=1\nshifts=[[0,0]]\ngen: x1 d1 + x2 d2\n")
    assert p.ring.shifts == ((0, 0),)
    assert parse_problem(format_problem(p)) == p


def test_corpus_round_trips():
    from pathlib import Path

    corpus = Path(__file__).resolve().parents[1] / "problems"
    seen = 0
    for path in sorted(corpus.glob("*.txt")):
        text = path.read_text()
        if "q:" in text:  # syzygy files use their own parser
            continue
        p = parse_problem(text)
        assert parse_problem(format_problem(p)) == p
        seen += 1
    assert seen >= 4


def test_index_out_of_range_message():
    with pytest.raises(SemanticError, match="x3 out of range"):
        parse_problem("ring n=2 k=2 r=1\ngen: x3 d1\n")


def test_k_exceeding_n_rejected():
    with pytest.raises(SemanticError, match="1 <= k <= n"):
        parse_problem("ring n=2 k=3 r=1\ngen: x1\n")


def test_shift_shape_checked():
    with pytest.raises(SemanticError, match="shifts"):
        parse_problem("ring n=2 k=2 r=1\nshifts = [[0, 0], [1, 1]]\ngen: x1\n")


def test_zero_generator_rejected():
    with pytest.raises(SemanticError, match="no generators"):
        parse_problem("ring n=2 k=2 r=1\n")


def test_unknown_field_located():
    with pytest.raises(SyntaxErrorWithPos, match="unknown field"):
        parse_problem("ring n=2 k=2 r=1\ngen: x1\nfrobnicate = 3\n")


def test_syntax_error_has_line():
    try:
        parse_problem("ring n=2 k=2 r=1\ngen: x1\nwhat is this\n")
    except SyntaxErrorWithPos as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a syntax error")


def test_target_error_carries_its_line():
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse_problem("ring n=2 k=2 r=1\ngen: x1 d1\ntarget: x1 y2\n")
    assert (info.value.line, info.value.column) == (3, 3)
    assert str(info.value) == "unexpected input 'y2' (line 3, column 3)"


def test_ideal_error_carries_its_line():
    with pytest.raises(SemanticError) as info:
        parse_problem("ring n=2 k=2 r=1\ngen: x1 d1\n\nideal = W3\n")
    assert str(info.value) == "W3 out of range (k = 2) (line 4)"


def test_unsupported_order_name():
    with pytest.raises(SemanticError, match="unsupported order"):
        parse_problem("ring n=2 k=2 r=1\ngen: x1\norder = lex\n")


@pytest.mark.parametrize("field", ["degree_bound", "l_max"])
@pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
def test_integer_fields_checked(field, value):
    with pytest.raises(SemanticError, match=f"{field} must be a nonnegative"):
        parse_problem(f"ring n=2 k=2 r=1\ngen: x1\n{field} = {value}\n")


def test_w_monomials():
    assert parse_w_monomials("W1^2, W2", 2) == ((2, 0), (0, 1))
    assert parse_w_monomials("1", 2) == (((0, 0)),)
    assert format_w_monomials(((2, 0), (0, 1))) == "W1^2, W2"
    with pytest.raises(SemanticError, match="W3 out of range"):
        parse_w_monomials("W3", 2)


def test_parse_syzygy():
    syz = parse_syzygy(
        "syzygy n=2 k=2\na = [[1, 0], [0, 1]]\nq: x1 d1 w2\nq: - x1 d1 w1\n"
    )
    assert syz.n == 2 and syz.k == 2
    assert syz.a == ((1, 0), (0, 1))
    assert len(syz.qs) == 2
    with pytest.raises(SemanticError):
        parse_syzygy("syzygy n=2 k=2\na = [[1, 0]]\nq: x1\nq: x2\n")


def test_generator_and_target_errors_carry_their_line():
    with pytest.raises(SemanticError) as info:
        parse_problem("ring n=2 k=2 r=1\ngen: x3 d1\n")
    assert str(info.value) == "x3 out of range (n = 2) (line 2)"
    with pytest.raises(SemanticError) as info:
        parse_problem("ring n=2 k=2 r=1\ngen: x1\n\ntarget: x1 t\n")
    assert str(info.value) == "t factor outside D[t] (line 4)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("ring n=2 k=2 r=1\ngen: x1\ntarget: x2\nring n=2 k=2 r=1\ntarget: d1 x1\n",
         "duplicate ring line (line 4, column 1)"),
        ("ring n=2 k=2 r=1\ngen: x1\ntarget: x2\ntarget: d1 x1\n",
         "duplicate target line (line 4, column 1)"),
    ],
    ids=["ring", "target"],
)
def test_a_second_header_or_target_is_an_error(text, message):
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse_problem(text)
    assert str(info.value) == message


def test_a_second_syzygy_header_is_an_error():
    text = "syzygy n=2 k=2\na = [[1, 0]]\nsyzygy n=2 k=2\nq: x1\n"
    with pytest.raises(SyntaxErrorWithPos) as info:
        parse_syzygy(text)
    assert str(info.value) == "duplicate syzygy line (line 3, column 1)"


# ---------------------------------------------------------------------------
# The field readers against the ones that matched each piece through the
# regex module's pattern cache, kept here verbatim as references.

_REF_ROW = r"\[[^\[\]]*\]"
_REF_MATRIX = re.compile(rf"\[\s*{_REF_ROW}(?:\s*,\s*{_REF_ROW})*\s*\]")


def ref_parse_int_matrix(text: str, line: int) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SyntaxErrorWithPos("expected a bracketed list of rows", line)
    if not text[1:-1].strip():
        raise SyntaxErrorWithPos("empty matrix", line)
    if not _REF_MATRIX.fullmatch(text):
        raise SyntaxErrorWithPos("expected a comma-separated list of rows", line)
    rows = []
    for chunk in re.findall(r"\[([^\]]*)\]", text[1:-1]):
        row = []
        for piece in chunk.split(","):
            piece = piece.strip()
            if not re.fullmatch(r"-?\d+", piece):
                raise SyntaxErrorWithPos(f"bad integer {piece!r}", line)
            try:
                row.append(int(piece))
            except ValueError:
                raise number_too_long(line) from None
        rows.append(tuple(row))
    return tuple(rows)


def ref_parse_rational_vector(text: str, line: int) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SyntaxErrorWithPos("expected a bracketed vector", line)
    out = []
    for piece in text[1:-1].split(","):
        piece = piece.strip()
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", piece)
        if not m:
            raise SyntaxErrorWithPos(f"bad rational {piece!r}", line)
        try:
            num, den = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:
            raise number_too_long(line) from None
        if not den:
            raise SyntaxErrorWithPos(f"zero denominator in {piece!r}", line)
        out.append(Fraction(num, den))
    return tuple(out)


def ref_nonnegative_int(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise ValueError(f"must be a nonnegative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(number_too_long(0).message) from None


def outcome(f, *args):
    """("ok", value), or the class and message of the error raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


reader_texts = (
    field_texts()
    | st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8).map("".join)
    | st.text(" \t0123456789-+/,[]\u00a0\u0663", max_size=16)
)


@settings(max_examples=400, deadline=None)
@given(reader_texts, st.sampled_from([0, 3]))
def test_field_readers_read_as_the_references(text, line):
    for new, ref in (
        (parse_int_matrix, ref_parse_int_matrix),
        (parse_rational_vector, ref_parse_rational_vector),
    ):
        assert outcome(new, text, line) == outcome(ref, text, line)
        assert outcome(new, f"[{text}]", line) == outcome(ref, f"[{text}]", line)
    assert outcome(nonnegative_int, text) == outcome(ref_nonnegative_int, text)
    assert outcome(nonnegative_int, text.strip()) == outcome(ref_nonnegative_int, text.strip())
