"""Seeded operation streams for the three benchmark workloads.

Operation ``i`` of workload ``w`` under seed ``s`` is a pure function of
``(w, s, i)``: it draws from ``random.Random(f"{w}/{s}/{i}")``, so a stream
can be cut at any length and any operation replayed on its own.  An
operation is a ``dfan`` argv plus the problem files it reads; paths in
the argv are relative to the directory the files are written to.

Why each family is in the benchmark, and which inputs are kept out, is
recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("certify", "fan", "quick")

# Distinct operations generated and written during set-up.  A timed run
# goes through its pool again and again until the window ends, and times
# each operation by the median of its passes; a pool is small enough that
# a 40 s window holds about eight passes or more.
POOL_SIZE = {"certify": 11, "fan": 90, "quick": 200}

# Operations in the fixed pass that a traced run replays (deterministic
# counts need a pass that does not depend on the clock).  The certify
# pass is the whole stream: its pool, then the three corpus runs.
TRACE_PASS = {"certify": 14, "fan": 90, "quick": 200}

CORPUS_DIR = "problems"

# The corpus of tests/test_acceptance.py, split by cost: the three
# flat-cert runs on euler.txt take seconds, the rest milliseconds.
CORPUS_SLOW = (
    ("flat-cert", "--input", "euler.txt"),
    ("flat-cert", "--input", "euler.txt", "--json"),
    ("flat-cert", "--input", "euler.txt", "--cone", "[[1,1],[1,2]]",
     "--l-max", "6", "--json"),
)
CORPUS_FAST = (
    ("fiber", "--input", "paper_fiber.txt"),
    ("fiber", "--input", "paper_fiber.txt", "--json"),
    ("fan", "--input", "euler.txt"),
    ("fan", "--input", "threecone.txt", "--json"),
    ("gb", "--input", "euler.txt", "--weight", "[1,0]"),
    ("gb", "--input", "vector2.txt"),
    ("gb", "--input", "threecone.txt", "--json"),
    ("divide", "--input", "vector2.txt"),
    ("normalize-syzygy", "--input", "syzygy1.txt"),
    ("normalize-syzygy", "--input", "syzygy1.txt", "--json"),
    ("monomial-chain", "--ideal", "W1^2,W2", "--k", "2"),
    ("monomial-chain", "--ideal", "W1 W2,W2^3", "--k", "2", "--json"),
    ("cones", "--cone", "[[1,2],[1,3]]"),
    ("cones", "--cone", "[[1,0],[1,2]]", "--json"),
    ("fan", "--input", "threevar.txt"),
    ("fan", "--input", "vector2.txt", "--json"),
    ("cones", "--input", "euler.txt"),
    ("fiber", "--input", "threevar.txt", "--expect", "nonzero"),
    ("flat-cert", "--input", "euler_target.txt"),
    ("flat-cert", "--input", "euler_target.txt", "--json"),
)

# certify: fixed supports of one-generator n=2 modules (exponent pairs
# (alpha, beta) per term).  Support shape decides the size of the
# Macaulay matrices, so the seed varies coefficients and the x1<->x2
# labelling only; that keeps the cost of a window steady across seeds.
CERTIFY_SUPPORTS = (
    (((1, 0), (1, 0)),),
    (((0, 0), (0, 1)), ((0, 1), (1, 0))),
    (((1, 0), (0, 0)),),
    (((0, 0), (0, 1)), ((1, 0), (0, 1))),
    (((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 0), (1, 0))),
    (((0, 1), (1, 0)),),
    (((1, 0), (0, 0)), ((1, 0), (0, 1))),
    (((0, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 2), (0, 0))),
    (((0, 0), (1, 1)),),
    (((0, 0), (1, 0)), ((1, 1), (0, 0))),
    (((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1))),
)


@dataclass(frozen=True)
class Op:
    """One ``dfan`` command.  ``verdicts`` lists the verdicts the
    construction allows; ``kind`` selects an extra structural check."""

    oid: int
    argv: tuple
    files: tuple = ()
    verdicts: frozenset = field(default_factory=frozenset)
    kind: str = ""
    corpus: bool = False


# ---------------------------------------------------------------- text


def _factors(alpha, beta, w=()):
    out = []
    for prefix, exps in (("x", alpha), ("d", beta), ("w", w)):
        for i, e in enumerate(exps):
            if e:
                out.append(f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else ""))
    return out


def format_terms(terms, rank=1):
    """Operator text for ``[(coef, alpha, beta, comp), ...]`` in the dfan
    grammar; ``comp`` is 0-based and printed only when ``rank > 1``."""
    chunks = []
    for coef, alpha, beta, comp in terms:
        body = _factors(alpha, beta)
        if rank > 1:
            body.append(f"e{comp + 1}")
        mag = abs(Fraction(coef))
        if mag != 1 or not _factors(alpha, beta):
            body.insert(0, str(mag))
        sign = "-" if coef < 0 else "+"
        if not chunks:
            chunks.append(("-" if sign == "-" else "") + " ".join(body))
        else:
            chunks.append(f"{sign} {' '.join(body)}")
    return " ".join(chunks) if chunks else "0"


def _rand_monomial(rng, n, lo, hi):
    alpha, beta = [0] * n, [0] * n
    for _ in range(rng.randint(lo, hi)):
        v = rng.randrange(2 * n)
        if v < n:
            alpha[v] += 1
        else:
            beta[v - n] += 1
    return tuple(alpha), tuple(beta)


COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _recoefficient(rng, terms):
    """``terms`` with new coefficients drawn from ``rng``."""
    return [(rng.choice(COEFFICIENTS), alpha, beta, comp)
            for _, alpha, beta, comp in terms]


def _rand_terms(rng, n, max_deg, count, comps=(0,)):
    seen = {}
    for _ in range(50):
        if len(seen) == count:
            break
        alpha, beta = _rand_monomial(rng, n, 1, max_deg)
        comp = rng.choice(comps)
        seen.setdefault((alpha, beta, comp), rng.choice(COEFFICIENTS))
    return [(c, a, b, comp) for (a, b, comp), c in seen.items()]


def _problem(n, k, r, gens, shifts=None, extra=()):
    shifts = shifts or [[0] * k for _ in range(r)]
    lines = [f"ring n={n} k={k} r={r}", f"shifts = {shifts}"]
    lines += [f"gen: {format_terms(g, r)}" for g in gens]
    lines += list(extra)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- certify


def _certify_op(seed, i):
    # the corpus runs take seconds each, too long to time again and again
    # in a window; they follow the pool and run in the traced pass
    slot = i - POOL_SIZE["certify"]
    if slot >= 0:
        return _corpus_op(i, CORPUS_SLOW[slot])
    rng = random.Random(f"certify/{seed}/{i}")
    support = CERTIFY_SUPPORTS[i % len(CERTIFY_SUPPORTS)]
    swap = rng.random() < 0.5
    terms = []
    for alpha, beta in support:
        if swap:
            alpha, beta = alpha[::-1], beta[::-1]
        terms.append((rng.choice(COEFFICIENTS), alpha, beta, 0))
    name = f"c{i:05d}.txt"
    text = _problem(
        2, 2, 1, [terms],
        extra=("cone = [[1, 0], [0, 1]]", "ideal = W1, W2", "s = [0, 0]",
               "degree_bound = 2"),
    )
    return Op(i, ("flat-cert", "--input", name), ((name, text),),
              frozenset({"certified", "counterexample"}))


# ----------------------------------------------------------------- fan


def _fan_op(seed, i):
    # The support of operation i is drawn from a generator that does not
    # depend on the seed; the seed draws the coefficients and the weight.
    # Random supports made the cost of a pool vary by about 10 % from seed
    # to seed (first to third quartile), over a third of the 25 % bound.
    shape = random.Random(f"fan-shape/{i}")
    family = i % 3
    if family == 0:  # one generator, n=2, degree <= 3
        n, gens = 2, [_rand_terms(shape, 2, 3, shape.randint(2, 3))]
    elif family == 1:  # one generator, n=3, degree <= 2
        n, gens = 3, [_rand_terms(shape, 3, 2, shape.randint(2, 3))]
    else:  # two generators, n=2, degree <= 2
        n = 2
        gens = [_rand_terms(shape, 2, 2, shape.randint(1, 2)),
                _rand_terms(shape, 2, 2, shape.randint(1, 2))]
    rng = random.Random(f"fan/{seed}/{i}")
    gens = [_recoefficient(rng, g) for g in gens]
    name = f"f{i:05d}.txt"
    text = _problem(n, n, 1, gens)
    if i % 4 == 3:
        weight = [rng.randint(0, 3) for _ in range(n)]
        weight[rng.randrange(n)] += 1
        argv = ("gb", "--input", name, "--weight", str(weight).replace(" ", ""))
        return Op(i, argv, ((name, text),), frozenset({"ok", "inconclusive"}))
    argv = ("fan", "--input", name) + (("--json",) if i % 5 == 0 else ())
    return Op(i, argv, ((name, text),), frozenset({"ok", "inconclusive"}))


# --------------------------------------------------------------- quick


def _quick_rank2(rng, i):
    """Shifts and generators of a rank-2 problem.  As in ``fan``, the
    supports come from a generator seeded with ``i`` alone and ``rng``
    draws the coefficients: the cost of gb and divide on these problems
    is set by the support (one divide took 0.7-0.9 s with every choice of
    coefficients tried, where most take 3-20 ms), so random supports made
    the cost of a pool depend on whether the seed drew such a support."""
    shape = random.Random(f"quick-shape/{i}")
    shifts = [[0, 0], [shape.randint(0, 1), shape.randint(0, 1)]]
    gens = [_rand_terms(shape, 2, 2, shape.randint(1, 2), comps=(0, 1)),
            _rand_terms(shape, 2, 2, shape.randint(1, 2), comps=(0, 1))]
    return shape, shifts, [_recoefficient(rng, g) for g in gens]


def _quick_gb(rng, i):
    shape, shifts, gens = _quick_rank2(rng, i)
    name = f"q{i:05d}.txt"
    weight = f"[{shape.randint(1, 3)},{shape.randint(1, 3)}]"
    argv = ("gb", "--input", name, "--weight", weight)
    if rng.random() < 0.3:
        argv += ("--json",)
    return Op(i, argv, ((name, _problem(2, 2, 2, gens, shifts)),),
              frozenset({"ok", "inconclusive"}))


def _quick_divide(rng, i):
    shape, shifts, gens = _quick_rank2(rng, i)
    target = _recoefficient(
        rng, _rand_terms(shape, 2, 3, shape.randint(1, 3), comps=(0, 1)))
    name = f"q{i:05d}.txt"
    text = _problem(2, 2, 2, gens, shifts,
                    extra=(f"target: {format_terms(target, 2)}",))
    return Op(i, ("divide", "--input", name), ((name, text),),
              frozenset({"ok", "inconclusive"}))


def _quick_cones(rng, i):
    while True:
        rows = [[rng.randint(0, 3) for _ in range(2)] for _ in range(2)]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if 1 <= abs(det) <= 4 and all(any(r) for r in rows):
            break
    argv = ("cones", "--cone", str(rows).replace(" ", ""), "--json")
    return Op(i, argv, (), frozenset({"basic", "refined"}), kind="cones")


def _quick_chain(rng, i):
    k = rng.randint(2, 3)
    gens = set()
    for _ in range(rng.randint(1, 3)):
        e = [rng.randint(0, 2) for _ in range(k)]
        if any(e):
            gens.add(tuple(e))
    if not gens:
        gens.add((1,) + (0,) * (k - 1))
    text = ",".join(
        " ".join(f"W{j + 1}" + (f"^{c}" if c > 1 else "")
                 for j, c in enumerate(e) if c)
        for e in sorted(gens)
    )
    argv = ("monomial-chain", "--ideal", text, "--k", str(k))
    return Op(i, argv, (), frozenset({"ok"}))


def _quick_syzygy(rng, i):
    """A syzygy built as in acceptance criterion 7: each random term is
    added to q_i shifted by a_j and subtracted from q_j shifted by a_i."""
    r, k = rng.randint(1, 4), rng.randint(1, 3)
    a = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(r)]
    qs = [dict() for _ in range(r)]
    for _ in range(rng.randint(1, 4)):
        p, q = rng.randrange(r), rng.randrange(r)
        if p == q:
            continue
        alpha = tuple(rng.randint(0, 2) for _ in range(2))
        beta = tuple(rng.randint(0, 2) for _ in range(2))
        w = tuple(rng.randint(0, 1) for _ in range(k))
        c = rng.randint(-3, 3)
        if not c:
            continue
        for target, shift, sign in ((p, a[q], 1), (q, a[p], -1)):
            key = (alpha, beta, tuple(x + y for x, y in zip(w, shift)))
            v = qs[target].get(key, 0) + sign * c
            if v:
                qs[target][key] = v
            else:
                qs[target].pop(key, None)
    lines = [f"syzygy n=2 k={k}", f"a = {[list(row) for row in a]}"]
    for q in qs:
        chunks = []
        for (alpha, beta, w), c in sorted(q.items()):
            body = _factors(alpha, beta, w)
            if abs(c) != 1 or not body:
                body.insert(0, str(abs(c)))
            chunks.append(("- " if c < 0 else "+ ") + " ".join(body))
        q_text = " ".join(chunks).removeprefix("+ ") if chunks else "0"
        lines.append(f"q: {q_text}")
    name = f"q{i:05d}.syz"
    argv = ("normalize-syzygy", "--input", name)
    if rng.random() < 0.3:
        argv += ("--json",)
    return Op(i, argv, ((name, "\n".join(lines) + "\n"),),
              frozenset({"normalized"}))


def _quick_flat_target(rng, i):
    """Terms share one alpha - beta, so every weight sees the generator as
    homogeneous: the fan is a single cone and the orthant lies in it."""
    delta = (rng.randint(-1, 1), rng.randint(-1, 1))
    gen = {}
    for _ in range(rng.randint(1, 3)):
        beta = tuple(rng.randint(max(0, -d), max(0, -d) + 1) for d in delta)
        alpha = tuple(b + d for b, d in zip(beta, delta))
        if any(alpha) or any(beta):
            gen[(alpha, beta)] = rng.choice(COEFFICIENTS)
    if not gen:
        gen[((1, 0), (1, 0))] = 1
    shift = _rand_monomial(rng, 2, 1, 2)[0]
    # left multiplication by x^shift keeps normal order: x's stay left
    target = [(c, tuple(p + q for p, q in zip(alpha, shift)), beta, 0)
              for (alpha, beta), c in gen.items()]
    gen = [(c, alpha, beta, 0) for (alpha, beta), c in gen.items()]
    name = f"q{i:05d}.txt"
    text = _problem(
        2, 2, 1, [gen],
        extra=(f"target: {format_terms(target)}", "cone = [[1, 0], [0, 1]]",
               "ideal = W1, W2", "s = [0, 0]"),
    )
    return Op(i, ("flat-cert", "--input", name), ((name, text),),
              frozenset({"certified", "not-in-ideal"}))


def _quick_fiber(rng, i):
    n = rng.randint(1, 2)
    terms = _rand_terms(rng, n, 2, rng.randint(1, 2))
    terms.append((rng.choice((1, 2, -1)), (0,) * n, (0,) * n, 0))
    name = f"q{i:05d}.txt"
    text = _problem(n, n, 1, [terms])
    bound = rng.choice((2, 2, 3, 3, 4))
    argv = ("fiber", "--input", name, "--bound", str(bound))
    return Op(i, argv, ((name, text),),
              frozenset({"zero", "nonzero", "inconclusive"}))


_QUICK_KINDS = (_quick_gb, _quick_divide, _quick_cones, _quick_chain,
                _quick_syzygy, _quick_flat_target, _quick_fiber)
QUICK_CORPUS_EVERY = 10


def _quick_op(seed, i):
    slot = i // QUICK_CORPUS_EVERY
    if i % QUICK_CORPUS_EVERY == 0 and slot < len(CORPUS_FAST):
        return _corpus_op(i, CORPUS_FAST[slot])
    rng = random.Random(f"quick/{seed}/{i}")
    return _QUICK_KINDS[i % len(_QUICK_KINDS)](rng, i)


# -------------------------------------------------------------- corpus


def _corpus_op(i, argv):
    files = tuple(
        (part, f"@{CORPUS_DIR}/{part}") for part in argv if part.endswith(".txt")
    )
    return Op(i, tuple(argv), files, corpus=True)


_MAKERS = {"certify": _certify_op, "fan": _fan_op, "quick": _quick_op}


def make_op(workload: str, seed: int, i: int) -> Op:
    return _MAKERS[workload](seed, i)


def make_pool(workload: str, seed: int, size: int | None = None) -> list:
    size = POOL_SIZE[workload] if size is None else size
    return [make_op(workload, seed, i) for i in range(size)]


def write_pool(pool, root: Path, workdir: Path) -> None:
    """Write every problem file of ``pool`` into ``workdir``.  Corpus files
    (text ``@problems/<name>``) are copied from the checkout at ``root``."""
    workdir.mkdir(parents=True, exist_ok=True)
    written = set()
    for op in pool:
        for name, text in op.files:
            if name in written:
                continue
            if text.startswith("@"):
                text = (root / text[1:]).read_text(encoding="utf-8")
            (workdir / name).write_text(text, encoding="utf-8")
            written.add(name)


def argv_in(op: Op, workdir: Path) -> list:
    """The op's argv with its file names resolved inside ``workdir``."""
    names = {name for name, _ in op.files}
    return [str(workdir / a) if a in names else a for a in op.argv]
