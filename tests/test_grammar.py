import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfan.errors import DfanError, SemanticError, SyntaxErrorWithPos
from dfan.flatness import format_w_op, parse_w_op
from dfan.grammar import (
    OPERATOR,
    SYZYGY,
    W_MONOMIAL,
    format_op,
    format_vec,
    format_w_monomials,
    number_too_long,
    parse_dt_op,
    parse_dt_vec,
    parse_op,
    parse_sum,
    parse_vec,
    parse_w_monomials,
)
from dfan.weyl import DtOp, DtVec, RingDescriptor, WeylOp, WeylVec
from conftest import (
    FUZZ_TOKENS, components, from_components, random_dt_op, random_nonzero_op, random_vec,
)

R2 = RingDescriptor(2, 2, 1)
RV = RingDescriptor(2, 2, 2, [[0, 0], [1, 3]])


@pytest.mark.parametrize(
    "text",
    [
        "3/2 x1^2 d1 - d2",
        "x1 d1 + x2 d2",
        "1",
        "-1",
        "5/3",
        "-x1 + x2",
        "d1^4",
    ],
)
def test_scalar_round_trip(text):
    P = parse_op(text, R2)
    assert parse_op(format_op(P), R2) == P


def test_vector_round_trip_with_markers():
    v = parse_dt_vec("3/2 x1^2 d1 e1 - d2 e1 + t e2", RV)
    assert parse_dt_vec(format_vec(v), RV) == v


def test_random_round_trips(rng):
    for _ in range(40):
        P = random_nonzero_op(rng, R2)
        assert parse_op(format_op(P), R2) == P
        D = random_dt_op(rng, R2)
        from dfan.grammar import parse_dt_op

        assert parse_dt_op(format_op(D), R2) == D
        V = random_vec(rng, RV)
        assert parse_vec(format_vec(V), RV) == V


def test_index_out_of_range():
    with pytest.raises(SemanticError, match="x3 out of range"):
        parse_op("x3 d1", R2)


def test_t_forbidden_in_plain_ring():
    with pytest.raises(SemanticError, match="t factor"):
        parse_op("x1 t", R2)


def test_marker_forbidden_in_scalar():
    with pytest.raises(SemanticError, match="component marker"):
        parse_op("x1 e1", R2)


def test_marker_required_for_rank_two():
    with pytest.raises(SemanticError, match="without component marker"):
        parse_vec("x1 + x2 e2", RV)


def test_marker_optional_for_rank_one():
    assert parse_vec("x1 d1", R2) == parse_vec("x1 d1 e1", R2)


def test_bad_component_index():
    with pytest.raises(SemanticError, match="e3 out of range"):
        parse_vec("x1 e3", RV)


def test_syntax_errors_carry_position():
    with pytest.raises(SyntaxErrorWithPos):
        parse_op("x1 $ d1", R2)
    with pytest.raises(SyntaxErrorWithPos):
        parse_op("", R2)
    with pytest.raises(SyntaxErrorWithPos):
        parse_op("x1 + + d1", R2)


def test_zero_formats_as_zero():
    from dfan.weyl import WeylOp

    assert format_op(WeylOp(R2)) == "0"


# ---------------------------------------------------------------------------
# The grammar against the hand-written parsers and formatters it replaced,
# kept here verbatim as references.

_REF_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<fac>[xdet]\d*(?:\^\d+)?)|(?P<sign>[+-]))"
)


def ref_tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m or m.lastgroup is None:
            break
        out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    if text[pos:].strip():
        raise SyntaxErrorWithPos(
            f"unexpected input {text[pos:].strip()[:10]!r}", 1, pos + 1
        )
    return out


def ref_parse_factor(tok, pos):
    head = tok[0]
    body = tok[1:]
    exp = 1
    if "^" in body:
        body, etxt = body.split("^", 1)
        exp = int(etxt)
    if head == "t":
        if body:
            raise SyntaxErrorWithPos(f"bad factor {tok!r}", 1, pos + 1)
        return ("t", 0, exp)
    if not body:
        raise SyntaxErrorWithPos(f"missing index in factor {tok!r}", 1, pos + 1)
    return (head, int(body), exp)


def ref_parse_terms(text, ring, *, vector, dt):
    toks = ref_tokenize(text)
    if not toks:
        raise SyntaxErrorWithPos("empty operator", 1, 1)
    terms = []
    i = 0
    first = True
    while i < len(toks):
        sign = 1
        kind, val, pos = toks[i]
        if kind == "sign":
            sign = -1 if val == "-" else 1
            i += 1
        elif not first:
            raise SyntaxErrorWithPos("expected + or - between terms", 1, pos + 1)
        first = False
        coef = Fraction(sign)
        saw_rat = False
        if i < len(toks) and toks[i][0] == "rat":
            coef = sign * Fraction(toks[i][1])
            saw_rat = True
            i += 1
        alpha = [0] * ring.n
        beta = [0] * ring.n
        l = 0
        comp = None
        saw_factor = False
        while i < len(toks) and toks[i][0] == "fac":
            saw_factor = True
            head, idx, exp = ref_parse_factor(toks[i][1], toks[i][2])
            if head in ("x", "d"):
                if not (1 <= idx <= ring.n):
                    raise SemanticError(f"{head}{idx} out of range (n = {ring.n})")
                (alpha if head == "x" else beta)[idx - 1] += exp
            elif head == "t":
                if not dt:
                    raise SemanticError("t factor outside D[t]")
                l += exp
            else:
                if not vector:
                    raise SemanticError("component marker e<i> in a scalar")
                if not (1 <= idx <= ring.r):
                    raise SemanticError(f"e{idx} out of range (r = {ring.r})")
                if comp is not None and comp != idx - 1:
                    raise SemanticError("two component markers in one term")
                if exp != 1:
                    raise SemanticError("component marker cannot carry an exponent")
                comp = idx - 1
            i += 1
        if not saw_rat and not saw_factor:
            raise SyntaxErrorWithPos("empty term", 1, pos + 1)
        if vector:
            if comp is None:
                if ring.r == 1:
                    comp = 0
                else:
                    raise SemanticError("vector term without component marker")
        else:
            comp = 0
        terms.append((tuple(alpha), tuple(beta), l, comp, coef))
    return terms


def ref_parse(kind, text, ring):
    dt = kind in (DtOp, DtVec)
    vector = kind in (WeylVec, DtVec)
    terms = ref_parse_terms(text, ring, vector=vector, dt=dt)
    if not vector:
        return kind(ring, ((((a, b, l) if dt else (a, b)), c) for a, b, l, _, c in terms))
    scalar = DtOp if dt else WeylOp
    buckets = [[] for _ in range(ring.r)]
    for a, b, l, comp, c in terms:
        buckets[comp].append((((a, b, l) if dt else (a, b)), c))
    return from_components(ring, [scalar(ring, bucket) for bucket in buckets])


def ref_display_key(key):
    if len(key) == 3:
        a, b, l = key
    else:
        (a, b), l = key, 0
    return (-(sum(a) + sum(b) + l), tuple(-e for e in b), tuple(-e for e in a), -l)


def ref_format_term(key, coef, comp):
    if len(key) == 3:
        a, b, l = key
    else:
        (a, b), l = key, 0
    factors = []
    for i, e in enumerate(a):
        if e:
            factors.append(f"x{i + 1}" + (f"^{e}" if e > 1 else ""))
    for i, e in enumerate(b):
        if e:
            factors.append(f"d{i + 1}" + (f"^{e}" if e > 1 else ""))
    if l:
        factors.append("t" + (f"^{l}" if l > 1 else ""))
    has_var = bool(factors)
    if comp is not None:
        factors.append(f"e{comp + 1}")
    mag = abs(coef)
    parts = []
    if mag != 1 or not factors:
        parts.append(str(mag))
    elif not has_var and comp is None:
        parts.append(str(mag))
    parts.extend(factors)
    return " ".join(parts)


def ref_format_terms(items):
    if not items:
        return "0"
    chunks = []
    for idx, (key, comp, coef) in enumerate(items):
        body = ref_format_term(key, coef, comp)
        if idx == 0:
            chunks.append(("-" if coef < 0 else "") + body)
        else:
            chunks.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(chunks)


def ref_format_op(P):
    items = sorted(P.terms.items(), key=lambda kv: ref_display_key(kv[0]))
    return ref_format_terms([(key, None, coef) for key, coef in items])


def ref_format_vec(V):
    items = []
    for i, comp in enumerate(components(V)):
        for key in sorted(comp.terms, key=ref_display_key):
            items.append((key, i, comp.terms[key]))
    return ref_format_terms(items)


_REF_W_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+(?:/\d+)?)|(?P<fac>[xdw]\d+(?:\^\d+)?)|(?P<sign>[+-]))"
)


def ref_parse_w_op(text, n, k):
    pos = 0
    toks = []
    while pos < len(text):
        m = _REF_W_TOKEN.match(text, pos)
        if not m or m.lastgroup is None:
            break
        toks.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    if text[pos:].strip():
        raise SemanticError(f"unexpected input {text[pos:].strip()[:10]!r}")
    if not toks:
        raise SemanticError("empty operator")
    terms = []
    i = 0
    first = True
    while i < len(toks):
        sign = 1
        if toks[i][0] == "sign":
            sign = -1 if toks[i][1] == "-" else 1
            i += 1
        elif not first:
            raise SemanticError("expected + or - between terms")
        first = False
        coef = Fraction(sign)
        saw = False
        if i < len(toks) and toks[i][0] == "rat":
            coef = sign * Fraction(toks[i][1])
            saw = True
            i += 1
        alpha = [0] * n
        beta = [0] * n
        ell = [0] * k
        while i < len(toks) and toks[i][0] == "fac":
            saw = True
            tok = toks[i][1]
            head, body = tok[0], tok[1:]
            exp = 1
            if "^" in body:
                body, e = body.split("^")
                exp = int(e)
            idx = int(body)
            if head == "x":
                if not 1 <= idx <= n:
                    raise SemanticError(f"x{idx} out of range")
                alpha[idx - 1] += exp
            elif head == "d":
                if not 1 <= idx <= n:
                    raise SemanticError(f"d{idx} out of range")
                beta[idx - 1] += exp
            else:
                if not 1 <= idx <= k:
                    raise SemanticError(f"w{idx} out of range")
                ell[idx - 1] += exp
            i += 1
        if not saw:
            raise SemanticError("empty term")
        terms.append(((tuple(alpha), tuple(beta), tuple(ell)), coef))
    out = {}
    for key, coef in terms:
        out[key] = out.get(key, 0) + coef
    return {key: c for key, c in out.items() if c}


def ref_format_w_op(q):
    if not q:
        return "0"
    chunks = []
    for idx, key in enumerate(sorted(q, key=lambda key: (sum(key[0]) + sum(key[1]) + sum(key[2]), key))):
        a, b, l = key
        coef = q[key]
        factors = []
        for i, e in enumerate(a):
            if e:
                factors.append(f"x{i + 1}" + (f"^{e}" if e > 1 else ""))
        for i, e in enumerate(b):
            if e:
                factors.append(f"d{i + 1}" + (f"^{e}" if e > 1 else ""))
        for i, e in enumerate(l):
            if e:
                factors.append(f"w{i + 1}" + (f"^{e}" if e > 1 else ""))
        body = " ".join(factors) if factors else str(abs(coef))
        if abs(coef) != 1 and factors:
            body = f"{abs(coef)} {body}"
        if idx == 0:
            chunks.append(("-" if coef < 0 else "") + body)
        else:
            chunks.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(chunks)


_REF_WMON = re.compile(r"W(\d+)(?:\^(\d+))?\s*", re.IGNORECASE)


def ref_parse_w_monomials(text, k):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("1", ""):
            if chunk == "1":
                out.append((0,) * k)
            continue
        exp = [0] * k
        pos = 0
        while pos < len(chunk):
            m = _REF_WMON.match(chunk, pos)
            if not m:
                raise SemanticError(f"bad W-monomial {chunk!r}")
            idx = int(m.group(1))
            if not 1 <= idx <= k:
                raise SemanticError(f"W{idx} out of range (k = {k})")
            exp[idx - 1] += int(m.group(2) or 1)
            pos = m.end()
        out.append(tuple(exp))
    if not out:
        raise SemanticError("empty ideal")
    return tuple(out)


def ref_format_w_monomials(exps):
    def one(e):
        parts = [
            f"W{i + 1}" + (f"^{c}" if c > 1 else "") for i, c in enumerate(e) if c
        ]
        return " ".join(parts) if parts else "1"

    return ", ".join(one(e) for e in exps)


# ---------------------------------------------------------------- values

coefficients = st.builds(
    Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 4)
) | st.sampled_from([Fraction(1), Fraction(-1)])


def exponents(size):
    return st.tuples(*[st.integers(0, 3)] * size)


def term_dicts(key):
    return st.dictionaries(key, coefficients, max_size=5)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    ring = RingDescriptor(n, n, r)
    dt = draw(st.booleans())
    key = st.tuples(exponents(n), exponents(n))
    if dt:
        key = st.tuples(exponents(n), exponents(n), st.integers(0, 3))
    scalar = DtOp if dt else WeylOp
    comps = [scalar(ring, draw(term_dicts(key))) for _ in range(r)]
    return comps[0], from_components(ring, comps)


@settings(max_examples=200, deadline=None)
@given(operators())
def test_operators_print_as_the_reference(value):
    op, vec = value
    assert format_op(op) == ref_format_op(op)
    assert format_vec(vec) == ref_format_vec(vec)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.data())
def test_syzygy_operators_print_as_the_reference(n, k, data):
    key = st.tuples(exponents(n), exponents(n), exponents(k))
    q = data.draw(term_dicts(key))
    assert format_w_op(q) == ref_format_w_op(q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_w_monomials_print_as_the_reference(k, data):
    exps = data.draw(st.lists(exponents(k), max_size=4))
    assert format_w_monomials(exps) == ref_format_w_monomials(exps)


# --------------------------------------------------------------- strings

ALPHABET = "xdetwW0123^/+- ,"
PIECES = ["x1", "d2", "t", "e1", "e2", "w1", "W2", "^2", "^0", "3", "/2", "/0",
          "+", "- ", " ", ",", "1", "x", "t1", "e3", "w", "W"]

LETTERS = [
    ["x1", "x2", "d1", "d2", "t", "e1", "e2"],
    ["x1", "x2", "d1", "d2", "w1", "w2"],
    ["W1", "W2", "w1"],
    ["x1", "d2", "t", "e1", "w1", "W1", "x", "t2", "e"],
]


@st.composite
def sums(draw):
    """Signed sums over one format's letters, sometimes with another's."""
    factor = st.tuples(
        st.sampled_from(draw(st.sampled_from(LETTERS))),
        st.sampled_from(["", "", "^2", "^0"]),
    ).map("".join)
    term = st.tuples(
        st.sampled_from(["", "", "2 ", "3/2 ", "1 ", "1/0 "]),
        st.lists(factor, max_size=3),
    ).map(lambda t: t[0] + " ".join(t[1]))
    parts = draw(st.lists(
        st.tuples(st.sampled_from(["", "-", " + ", " - ", ", ", " "]), term),
        min_size=1,
        max_size=3,
    ))
    return "".join(sep + text for sep, text in parts)


texts = (
    st.text(ALPHABET, max_size=16)
    | st.lists(st.sampled_from(PIECES), max_size=8).map("".join)
    | sums()
)


def outcome(parse, *args, rejects=DfanError):
    """("ok", value) or ("reject",)."""
    try:
        return ("ok", parse(*args))
    except rejects:
        return ("reject",)


def ref_outcome(parse, *args):
    """As ``outcome``; the reference's ZeroDivisionError on a zero
    denominator counts as a reject."""
    return outcome(parse, *args, rejects=(DfanError, ZeroDivisionError))


R2V = RingDescriptor(2, 2, 2)
R1V = RingDescriptor(2, 2, 1)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_operator_strings_parse_as_the_reference(text):
    parsers = {WeylOp: parse_op, DtOp: parse_dt_op, WeylVec: parse_vec, DtVec: parse_dt_vec}
    for kind, parse in parsers.items():
        for ring in (R1V, R2V):
            assert outcome(parse, text, ring) == ref_outcome(ref_parse, kind, text, ring)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_syzygy_strings_parse_as_the_reference(text):
    for n, k in ((1, 1), (2, 2)):
        assert outcome(parse_w_op, text, n, k) == ref_outcome(ref_parse_w_op, text, n, k)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_w_monomial_strings_parse_as_the_reference(text):
    for k in (1, 2):
        assert outcome(parse_w_monomials, text, k) == ref_outcome(
            ref_parse_w_monomials, text, k
        )


def test_zero_denominator_is_a_positioned_syntax_error():
    with pytest.raises(SyntaxErrorWithPos, match="zero denominator in '1/0'") as exc:
        parse_op("x1 + 1/0 d1", R2)
    assert exc.value.column == 6
    with pytest.raises(SemanticError, match="zero denominator"):
        parse_w_op("1/0 x1 w2", 2, 2)


# ---------------------------------------------------------------------------
# The one-walk sum reader against the token list and the walk over it that
# it replaced, kept here verbatim as references.


def two_walk_tokenize(text, table):
    pos = 0
    out = []
    match = table.token.match
    try:
        while True:
            m = match(text, pos)
            if m is None:
                break
            tok, num, den, letter, idx, exp = m.groups()
            col = m.start(1) + 1
            if num is not None:
                if den is None:
                    out.append(("rat", Fraction(int(num)), col))
                elif int(den):
                    out.append(("rat", Fraction(int(num), int(den)), col))
                else:
                    raise SyntaxErrorWithPos(f"zero denominator in {tok!r}", 1, col)
            elif letter is not None:
                if letter in table.unindexed:
                    if idx:
                        raise SyntaxErrorWithPos(f"bad factor {tok!r}", 1, col)
                elif not idx:
                    raise SyntaxErrorWithPos(f"missing index in factor {tok!r}", 1, col)
                out.append(("fac", (letter, int(idx or 0), int(exp or 1)), col))
            else:
                out.append(("sign", -1 if tok == "-" else 1, col))
            pos = m.end()
    except ValueError:
        raise number_too_long(1, col) from None
    rest = text[pos:].strip()
    if rest:
        raise SyntaxErrorWithPos(f"unexpected input {rest[:10]!r}", 1, pos + 1)
    return out


def two_walk_parse_sum(text, table):
    toks = two_walk_tokenize(text, table)
    if not toks:
        raise SyntaxErrorWithPos("empty operator", 1, 1)
    terms = []
    i, end = 0, len(toks)
    while i < end:
        kind, sign, col = toks[i]
        if kind == "sign":
            i += 1
        elif terms:
            raise SyntaxErrorWithPos("expected + or - between terms", 1, col)
        else:
            sign = 1
        coef = None
        if i < end and toks[i][0] == "rat":
            coef = sign * toks[i][1]
            i += 1
        factors = []
        while i < end and toks[i][0] == "fac":
            factors.append(toks[i][1])
            i += 1
        if coef is None:
            if not factors:
                raise SyntaxErrorWithPos("empty term", 1, col)
            coef = Fraction(sign)
        terms.append((coef, factors))
    return terms


def two_walk_parse_w_monomials(text, k):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("1", ""):
            if chunk == "1":
                out.append((0,) * k)
            continue
        try:
            toks = two_walk_tokenize(chunk, W_MONOMIAL)
        except SyntaxErrorWithPos:
            toks = None
        if not toks or any(kind != "fac" for kind, _, _ in toks):
            raise SemanticError(f"bad W-monomial {chunk!r}")
        exp = [0] * k
        for _, (_, idx, e), _ in toks:
            if not 1 <= idx <= k:
                raise SemanticError(f"W{idx} out of range (k = {k})")
            exp[idx - 1] += e
        out.append(tuple(exp))
    if not out:
        raise SemanticError("empty ideal")
    return tuple(out)


def exact_outcome(f, *args):
    """("ok", value), or the class, message and position of the error."""
    try:
        return "ok", f(*args)
    except DfanError as exc:
        return type(exc), str(exc)


generator_texts = (
    texts
    | st.lists(st.sampled_from(FUZZ_TOKENS + tuple(PIECES)), max_size=8).map("".join)
)


@settings(max_examples=600, deadline=None)
@given(generator_texts)
def test_one_walk_sums_read_as_the_two_walk_reference(text):
    for table in (OPERATOR, SYZYGY, W_MONOMIAL):
        assert exact_outcome(parse_sum, text, table) == exact_outcome(
            two_walk_parse_sum, text, table
        )
    for k in (1, 2):
        assert exact_outcome(parse_w_monomials, text, k) == exact_outcome(
            two_walk_parse_w_monomials, text, k
        )


def test_a_misplaced_token_is_reported_after_a_bad_one():
    # the two-walk reader tokenized the whole text before it looked at the
    # order of the tokens, so the bad token later in the text wins
    with pytest.raises(SyntaxErrorWithPos, match=r"unexpected input '\$'"):
        parse_sum("x1 3 + - d1 $", OPERATOR)
    with pytest.raises(SyntaxErrorWithPos, match="expected \\+ or - between terms"):
        parse_sum("x1 3 + - d1", OPERATOR)
    with pytest.raises(SyntaxErrorWithPos, match="empty term"):
        parse_sum("x1 + - d1 3", OPERATOR)
