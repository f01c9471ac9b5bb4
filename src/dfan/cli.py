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
from .fan import check_fan_k, standard_fan
from .flatness import (
    MonomialIdeal,
    flat_decompose,
    format_w_op,
    in_ideal_piece,
    intersection_oracle,
    kernel_normalize,
    monomial_filtration,
    offsets,
)
from .grammar import format_op, format_vec, format_w_monomials
from .problem import nonnegative_int, parse_problem, parse_syzygy, read_field
from .rees import fiber_V_zero_test
from .toric import BasicCone, refine_to_basic
from .weights import LinearForm, ones_form
from .weyl import homogenize_vec

NEGATIVE_VERDICTS = {"nonzero", "counterexample", "not-in-ideal", "no"}
INCONCLUSIVE_VERDICTS = {"inconclusive"}


class UsageError(DfanError):
    pass


def _report(
    command: str,
    verdict: str,
    data: dict,
    bounds: dict = {"degree_bound": None, "l_max": None},
) -> dict:
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
        # decoded whole, without a text-mode wrapper: the readers split
        # lines with str.splitlines, which takes every newline convention
        with open(args.input, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.input}: {exc}")


def _load_problem(args):
    return parse_problem(_read_input(args))


def _field(args, problem, name, k, required=False):
    """--name read and checked as the problem-file field of that name,
    an error naming the flag; else that field of ``problem`` (None when
    there is no problem or the field is left out)."""
    text = getattr(args, name)
    if text:
        try:
            return read_field(name, text, 0, k)
        except DfanError as exc:
            raise UsageError(f"--{name}: {exc}") from None
    value = getattr(problem, name, None)
    if value is None and required:
        raise UsageError(f"{name} is required (--{name} or the {name} = line)")
    return value


def _cmd_gb(args):
    problem = _load_problem(args)
    k = problem.ring.k
    weight = _field(args, problem, "weight", k) or ones_form(k)
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
    return _report("gb", "ok", data)


def _cmd_divide(args):
    problem = _load_problem(args)
    if problem.target is None:
        raise UsageError("divide needs a target: line in the problem file")
    k = problem.ring.k
    weight = _field(args, problem, "weight", k) or ones_form(k)
    basis = reduce_basis(list(problem.generators), weight)
    res = basis.divide(homogenize_vec(problem.target))
    data = {
        "weight": [str(c) for c in weight.coeffs],
        "basis": [format_vec(h) for h in basis.elements],
        "quotients": [format_op(a) for a in res.quotients],
        "remainder": format_vec(res.remainder),
        "remainder_zero": res.remainder.is_zero(),
    }
    return _report("divide", "ok", data)


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
    return _report("fan", "ok", data)


def _cmd_cones(args):
    problem = None
    if args.input:
        problem = _load_problem(args)
    rows = _field(args, problem, "cone", problem and problem.ring.k, required=True)
    try:
        cone = BasicCone(rows)
    except DfanError:
        subcones = refine_to_basic(rows)
        data = {
            "input_rows": [list(r) for r in rows],
            "subcones": [[list(r) for r in c.rows] for c in subcones],
        }
        return _report("cones", "refined", data)
    data = {
        "rows": [list(r) for r in cone.rows],
        "inverse": [list(r) for r in cone.inverse],
        "columns": [list(c) for c in cone.columns],
    }
    return _report("cones", "basic", data)


def _cmd_fiber(args):
    problem = _load_problem(args)
    bound = args.bound if args.bound is not None else problem.degree_bound
    gamma = None
    rows = _field(args, problem, "cone", problem.ring.k)
    if rows is not None:
        try:
            gamma = BasicCone(rows)
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
    k = problem.ring.k
    rows = _field(args, problem, "cone", k, required=True)
    try:
        gamma = BasicCone(rows)
    except DfanError as exc:
        raise UsageError(f"cone not basic: {exc}")
    exps = _field(args, problem, "ideal", k, required=True)
    J = []
    for e in exps:
        if sum(e) != 1:
            raise UsageError(f"flat-cert needs a coordinate ideal, got {format_w_monomials([e])}")
        J.append(e.index(1) + 1)
    J = tuple(sorted(set(J)))
    s = _field(args, problem, "s", k) or (0,) * k
    bound = (
        args.degree_bound
        if args.degree_bound is not None
        else (problem.degree_bound if problem.degree_bound is not None else 4)
    )
    l_max = args.l_max if args.l_max is not None else problem.l_max
    bounds = {"degree_bound": bound, "l_max": l_max}
    check_fan_k(k)
    interior = LinearForm(tuple(sum(col) for col in zip(*gamma.rows)))

    def certify(elements):
        """One certificate per element, each dividing by the basis of the
        standard fan's cone at the interior of Γ.  Only the verdicts that
        carry certificates call this, so no other verdict builds the fan."""
        fan_cone = standard_fan(list(problem.generators)).cone_of_weight(interior)
        return [
            flat_decompose(elt, s, gamma, J, fan_cone, l_max=l_max).to_report()
            for elt in elements
        ]

    if problem.target is not None:
        if not in_ideal_piece(problem.target, s, gamma, J):
            return _report(
                "flat-cert",
                "not-in-ideal",
                {"reason": "a term of the target fits no ideal region"},
                bounds,
            )
        data = {"certificates": certify([problem.target])}
        return _report("flat-cert", "certified", data, bounds)
    oracle = intersection_oracle(list(problem.generators), gamma, J, s, bound)
    if not oracle.equal:
        data = {
            "counterexample": format_vec(oracle.counterexample),
            "lhs_dim": oracle.lhs_dim,
            "rhs_dim": oracle.rhs_dim,
        }
        return _report("flat-cert", "counterexample", data, bounds)
    certs = certify(oracle.elements) if oracle.elements else []
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
    norm = kernel_normalize(syz.a, syz.qs)
    entries = []
    for (i, p), rop in sorted(norm.matrix.items()):
        v, w = offsets(norm.a[i], norm.a[p])
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
    return _report("normalize-syzygy", "normalized", data)


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
    exps = _field(args, problem, "ideal", k, required=True)
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
    return _report("monomial-chain", "ok", data)


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


# the flags besides --input, --json and --expect, and the commands that
# read each: a command accepts only the flags it reads
_FLAGS = (
    ("--weight", {"help": "weight form, e.g. \"[1,0]\""}, "gb divide"),
    ("--cone", {"help": "cone rows, e.g. \"[[1,0],[0,1]]\""}, "cones fiber flat-cert"),
    ("--ideal", {"help": "W-monomials, e.g. \"W1,W2\""}, "flat-cert monomial-chain"),
    ("--s", {"help": "graded degree, e.g. \"[0,0]\""}, "flat-cert"),
    ("--degree-bound", {"type": nonnegative_int}, "flat-cert"),
    ("--l-max", {"type": nonnegative_int}, "flat-cert"),
    ("--bound", {"type": nonnegative_int, "help": "fiber truncation bound"}, "fiber"),
    ("--k", {"type": nonnegative_int, "help": "number of W variables"}, "monomial-chain"),
)

# the sub-parser of each command, filled in by ``_build_parser``
_SUBPARSERS: dict = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every later ``run`` call:
    ``parse_args`` leaves the parser unchanged.  No parser takes a prefix
    of a flag, so a flag means the same whatever other flags its command
    has."""
    parser = argparse.ArgumentParser(
        prog="dfan",
        description="standard bases, standard fans and flatness certificates "
        "over the Weyl algebra",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = _SUBPARSERS[name] = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--input", help="problem file")
        for flag, kwargs, commands in _FLAGS:
            if name in commands.split():
                p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true")
        p.add_argument("--expect", help="expected verdict; exit 0 iff it matches")
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    # a command's arguments go straight to its own sub-parser; no argv,
    # --help or an unknown command go to the full parser
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if sub is None:
                args = parser.parse_args(argv)
            else:
                args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
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
