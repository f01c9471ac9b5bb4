import pytest

from dfan.errors import SemanticError, SyntaxErrorWithPos
from dfan.grammar import format_vec, format_w_monomials, parse_w_monomials
from dfan.problem import parse_problem, parse_syzygy


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
