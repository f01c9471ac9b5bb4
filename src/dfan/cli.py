"""Batch command-line front door.

Subcommands: gb, divide, fan, cones, fiber, flat-cert, normalize-syzygy,
monomial-chain.  One problem per file; reports are deterministic, carry
the bounds they used in their header, and have a machine-readable twin
behind --json (schema in docs/report-schema.json).

Exit codes: 0 success, 1 mathematical negative, 2 inconclusive at the
stated bound, 3 usage or validation error."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import __version__
from .basis import reduce_basis
from .errors import DfanError, ResourceBoundExceeded
from .fan import standard_fan
from .flatness import (
    MonomialIdeal,
    flat_decompose,
    format_w_op,
    greedy_parts,
    intersection_oracle,
    kernel_normalize,
    monomial_filtration,
    parse_w_op,
)
from .grammar import format_op, format_vec
from .problem import (
    format_w_monomials,
    nonnegative_int,
    parse_problem,
    parse_syzygy,
    parse_w_monomials,
)
from .rees import fiber_V_zero_test
from .toric import BasicCone, refine_to_basic
from .weights import LinearForm, ones_form
from .weyl import homogenize_vec

NEGATIVE_VERDICTS = {"nonzero", "counterexample", "not-in-ideal", "no"}
INCONCLUSIVE_VERDICTS = {"inconclusive"}


class UsageError(DfanError):
    pass


def _report(command: str, verdict: str, data: dict, bounds: dict) -> dict:
    return {
        "tool": "dfan",
        "version": __version__,
        "command": command,
        "bounds": bounds,
        "verdict": verdict,
        "data": data,
    }


def _render_value(value, indent="  "):
    lines = []
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_value(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}[{i}]")
                lines.extend(_render_value(v, indent + "  "))
            else:
                lines.append(f"{indent}[{i}] {v}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"dfan {report['command']} (v{report['version']})"]
    bounds = report["bounds"]
    lines.append(
        "bounds: "
        + ", ".join(f"{k}={bounds[k]}" for k in sorted(bounds))
    )
    lines.append(f"{report['command']}: {report['verdict']}")
    if report["command"] == "gb":
        # the basis itself, bare operator grammar, one element per line
        data = dict(report["data"])
        elements = data.pop("elements")
        lines.extend(_render_value(data, ""))
        lines.extend(elements)
    else:
        lines.extend(_render_value(report["data"], ""))
    return "\n".join(lines) + "\n"


def _read_input(args) -> str:
    if not args.input:
        raise UsageError("--input is required")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}")


def _load_problem(args):
    return parse_problem(_read_input(args))


def _resolve_weight(args, problem):
    if getattr(args, "weight", None):
        vec = [p.strip() for p in args.weight.strip().strip("[]").split(",")]
        from fractions import Fraction

        try:
            form = LinearForm(tuple(Fraction(p) for p in vec))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad weight {args.weight!r}: {exc}")
        if form.k != problem.ring.k:
            raise UsageError(
                f"weight has length {form.k}, the ring has k = {problem.ring.k}"
            )
        return form
    if problem.weight is not None:
        return problem.weight
    return ones_form(problem.ring.k)


def _resolve_cone_rows(args, problem):
    text = getattr(args, "cone", None)
    if text:
        from .problem import _parse_int_matrix

        rows = _parse_int_matrix(text, 0)
    elif problem is not None and problem.cone is not None:
        rows = problem.cone
    else:
        raise UsageError("a cone is required (--cone or a cone= line)")
    if problem is not None and any(len(r) != problem.ring.k for r in rows):
        raise UsageError(
            f"cone rows must have length k = {problem.ring.k}"
        )
    return rows


def _resolve_ideal(args, problem, k):
    text = getattr(args, "ideal", None)
    if text:
        return parse_w_monomials(text, k)
    if problem is not None and problem.ideal is not None:
        return problem.ideal
    raise UsageError("an ideal is required (--ideal or an ideal= line)")


def _cmd_gb(args):
    problem = _load_problem(args)
    weight = _resolve_weight(args, problem)
    basis = reduce_basis(list(problem.generators), weight)
    data = {
        "weight": [str(c) for c in weight.coeffs],
        "size": len(basis.elements),
        "elements": [format_vec(h) for h in basis.elements],
        "exponents": [
            {"alpha": list(e[0]), "beta": list(e[1]), "t": e[2], "component": e[3] + 1}
            for e in basis.exponents
        ],
    }
    return _report("gb", "ok", data, {"degree_bound": None, "l_max": None})


def _cmd_divide(args):
    problem = _load_problem(args)
    if problem.target is None:
        raise UsageError("divide needs a target: line in the problem file")
    weight = _resolve_weight(args, problem)
    basis = reduce_basis(list(problem.generators), weight)
    res = basis.divide(homogenize_vec(problem.target))
    data = {
        "weight": [str(c) for c in weight.coeffs],
        "basis": [format_vec(h) for h in basis.elements],
        "quotients": [format_op(a) for a in res.quotients],
        "remainder": format_vec(res.remainder),
        "remainder_zero": res.remainder.is_zero(),
    }
    return _report("divide", "ok", data, {"degree_bound": None, "l_max": None})


def _cmd_fan(args):
    problem = _load_problem(args)
    fan = standard_fan(list(problem.generators))
    closures = fan.closure_relations()
    cones = []
    for c, hosts in zip(fan.cones, closures):
        cones.append(
            {
                "equalities": [list(v) for v in c.equalities],
                "stricts": [list(v) for v in c.stricts],
                "sample": list(c.sample),
                "basis": [format_vec(h) for h in c.basis.elements],
                "in_closure_of": list(hosts),
            }
        )
    data = {"count": len(fan), "cones": cones}
    return _report("fan", "ok", data, {"degree_bound": None, "l_max": None})


def _cmd_cones(args):
    problem = None
    if args.input:
        problem = _load_problem(args)
    rows = _resolve_cone_rows(args, problem)
    try:
        cone = BasicCone(rows)
    except DfanError:
        subcones = refine_to_basic(rows)
        data = {
            "input_rows": [list(r) for r in rows],
            "subcones": [[list(r) for r in c.rows] for c in subcones],
        }
        return _report(
            "cones", "refined", data, {"degree_bound": None, "l_max": None}
        )
    data = {
        "rows": [list(r) for r in cone.rows],
        "inverse": [list(r) for r in cone.inverse],
        "columns": [list(c) for c in cone.columns],
    }
    return _report("cones", "basic", data, {"degree_bound": None, "l_max": None})


def _cmd_fiber(args):
    problem = _load_problem(args)
    bound = args.bound if args.bound is not None else problem.degree_bound
    gamma = None
    if getattr(args, "cone", None) or problem.cone is not None:
        try:
            gamma = BasicCone(_resolve_cone_rows(args, problem))
        except DfanError as exc:
            raise UsageError(f"cone not basic: {exc}")
    res = fiber_V_zero_test(list(problem.generators), bound, gamma)
    data = {
        "witnesses": [
            {"unit": i + 1, "element": format_vec(w)} for i, w in res.witnesses
        ],
    }
    if res.failing_unit is not None:
        data["unit"] = res.failing_unit + 1
    return _report(
        "fiber", res.verdict, data, {"degree_bound": res.bound, "l_max": None}
    )


def _cmd_flat_cert(args):
    problem = _load_problem(args)
    ring = problem.ring
    rows = _resolve_cone_rows(args, problem)
    try:
        gamma = BasicCone(rows)
    except DfanError as exc:
        raise UsageError(f"cone not basic: {exc}")
    exps = _resolve_ideal(args, problem, ring.k)
    J = []
    for e in exps:
        if sum(e) != 1:
            raise UsageError(f"flat-cert needs a coordinate ideal, got {format_w_monomials([e])}")
        J.append(e.index(1) + 1)
    J = tuple(sorted(set(J)))
    if args.s:
        from .problem import _parse_rational_vector

        svec = _parse_rational_vector(args.s, 0)
        if len(svec) != ring.k or any(v.denominator != 1 for v in svec):
            raise UsageError(f"--s must be an integer vector of length {ring.k}")
        s = tuple(int(v) for v in svec)
    elif problem.s is not None:
        s = problem.s
    else:
        s = (0,) * ring.k
    bound = (
        args.degree_bound
        if args.degree_bound is not None
        else (problem.degree_bound if problem.degree_bound is not None else 4)
    )
    l_max = args.l_max if args.l_max is not None else problem.l_max
    bounds = {"degree_bound": bound, "l_max": l_max}
    fan = standard_fan(list(problem.generators))
    interior = LinearForm(tuple(sum(col) for col in zip(*gamma.rows)))
    fan_cone = fan.cone_of_weight(interior)
    if problem.target is not None:
        parts = greedy_parts(problem.target, s, gamma, J)
        if parts is None:
            return _report(
                "flat-cert",
                "not-in-ideal",
                {"reason": "a term of the target fits no ideal region"},
                bounds,
            )
        cert = flat_decompose(
            problem.target, s, gamma, J, fan_cone.basis, parts,
            fan_cone=fan_cone, l_max=l_max,
        )
        data = {"certificates": [cert.to_report()]}
        return _report("flat-cert", "certified", data, bounds)
    oracle = intersection_oracle(list(problem.generators), gamma, J, s, bound)
    if not oracle.equal:
        data = {
            "counterexample": format_vec(oracle.counterexample),
            "lhs_dim": oracle.lhs_dim,
            "rhs_dim": oracle.rhs_dim,
        }
        return _report("flat-cert", "counterexample", data, bounds)
    certs = []
    for elt, parts in zip(oracle.elements, oracle.part_assignments):
        cert = flat_decompose(
            elt, s, gamma, J, fan_cone.basis, parts, fan_cone=fan_cone, l_max=l_max
        )
        certs.append(cert.to_report())
    data = {
        "oracle": {
            "equal": True,
            "lhs_dim": oracle.lhs_dim,
            "rhs_dim": oracle.rhs_dim,
            "slack": oracle.slack,
        },
        "certificates": certs,
    }
    return _report("flat-cert", "certified", data, bounds)


def _cmd_normalize_syzygy(args):
    syz = parse_syzygy(_read_input(args))
    qs = [parse_w_op(text, syz.n, syz.k) for text in syz.q_texts]
    norm = kernel_normalize(syz.a, qs)
    entries = []
    for (i, p), rop in sorted(norm.matrix.items()):
        v, w = norm.offsets[(i, p)]
        entries.append(
            {
                "i": i + 1,
                "p": p + 1,
                "R": format_w_op(rop),
                "v": list(v),
                "w": list(w),
            }
        )
    data = {"a": [list(row) for row in syz.a], "matrix": entries}
    return _report(
        "normalize-syzygy", "normalized", data, {"degree_bound": None, "l_max": None}
    )


def _cmd_monomial_chain(args):
    problem = None
    if args.input:
        problem = _load_problem(args)
        k = problem.ring.k
    elif args.k is not None:
        if args.k < 1:
            raise UsageError("--k must be at least 1")
        k = args.k
    else:
        raise UsageError("monomial-chain needs --k or --input")
    exps = _resolve_ideal(args, problem, k)
    ideal = MonomialIdeal(k, exps)
    chain = monomial_filtration(ideal)
    data = {
        "ideal": format_w_monomials(ideal.gens) if ideal.gens else "(0)",
        "length": len(chain.steps),
        "steps": [
            {
                "monomial": format_w_monomials([st.monomial]),
                "J": list(st.J),
                "colon": st.colon.format(),
            }
            for st in chain.steps
        ],
    }
    return _report(
        "monomial-chain", "ok", data, {"degree_bound": None, "l_max": None}
    )


_HANDLERS = {
    "gb": _cmd_gb,
    "divide": _cmd_divide,
    "fan": _cmd_fan,
    "cones": _cmd_cones,
    "fiber": _cmd_fiber,
    "flat-cert": _cmd_flat_cert,
    "normalize-syzygy": _cmd_normalize_syzygy,
    "monomial-chain": _cmd_monomial_chain,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every later ``run`` call:
    ``parse_args`` leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="dfan",
        description="standard bases, standard fans and flatness certificates "
        "over the Weyl algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="problem file")
        p.add_argument("--weight", help="weight form, e.g. \"[1,0]\"")
        p.add_argument("--cone", help="cone rows, e.g. \"[[1,0],[0,1]]\"")
        p.add_argument("--ideal", help="W-monomials, e.g. \"W1,W2\"")
        p.add_argument("--s", help="graded degree, e.g. \"[0,0]\"")
        p.add_argument("--degree-bound", type=nonnegative_int, dest="degree_bound")
        p.add_argument("--l-max", type=nonnegative_int, dest="l_max")
        p.add_argument("--bound", type=nonnegative_int, help="fiber truncation bound")
        p.add_argument("--k", type=nonnegative_int, help="number of W variables")
        p.add_argument("--json", action="store_true")
        p.add_argument("--expect", help="expected verdict; exit 0 iff it matches")
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        report = _HANDLERS[args.command](args)
        text = render_report(report, args.json)
    except ResourceBoundExceeded as exc:
        stderr.write(f"dfan: inconclusive: {exc}\n")
        return 2
    except DfanError as exc:
        stderr.write(f"dfan: error: {exc}\n")
        return 3
    except Exception as exc:
        # a bug, not a verdict: exit 1 must only ever mean a negative result
        msg = str(exc).replace("\n", " ")
        stderr.write(f"dfan: internal error: {type(exc).__name__}: {msg}\n")
        return 3
    stdout.write(text)
    verdict = report["verdict"]
    if args.expect:
        if verdict == args.expect:
            return 0
        return 2 if verdict in INCONCLUSIVE_VERDICTS else 1
    if verdict in NEGATIVE_VERDICTS:
        return 1
    if verdict in INCONCLUSIVE_VERDICTS:
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
