"""Span tracer installed from outside the program.

``Tracer.install()`` replaces each traced function by a wrapper in every
``dfan`` module namespace that holds it (``flatness.rref`` as well as
``_linalg.rref``), and each traced method on its class, so a call is
caught whichever name it is looked up by.  ``uninstall()`` puts the
originals back.

Layer calls become spans: name, operation id, parent span, start, end and
self time (duration minus the time of child spans and hot calls inside
it).  Hot functions (``TermOrder.key``, the Weyl products) keep aggregate
counters only.  Deterministic counts (calls, matrix sizes, cones) are
taken outside the timed interval of the span that owns them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _matrix_counts(rows):
    rows = list(rows)
    cols = len(rows[0]) if rows else 0
    return {"cells": len(rows) * cols, "nnz": sum(1 for r in rows for x in r if x)}


def _rref_counts(args, kwargs, result):
    return _matrix_counts(args[0])


def _solve_counts(args, kwargs, result):
    return {"cells": _matrix_counts(args[0])["cells"]}


def _cone_point_counts(args, kwargs, result):
    return {"hits": int(result is not None)}


def _reduce_counts(args, kwargs, result):
    return {"elements": len(result.elements)}


def _fan_counts(args, kwargs, result):
    return {"cones": len(result.cones), "normals": len(result.normals)}


def _oracle_counts(args, kwargs, result):
    return {"lhs_dim": result.lhs_dim}


def _mul_counts(args, kwargs, result):
    return len(result.terms)


# (metric name, module, qualified attribute, counts) of span layers.
SPAN_TARGETS = (
    ("cli.run", "dfan.cli", "run", None),
    ("cli.render_report", "dfan.cli", "render_report", None),
    ("problem.parse_problem", "dfan.problem", "parse_problem", None),
    ("grammar.format_vec", "dfan.grammar", "format_vec", None),
    ("basis.reduce_basis", "dfan.basis", "reduce_basis", _reduce_counts),
    ("basis.divide", "dfan.basis", "StandardBasis.divide", None),
    ("basis.member", "dfan.basis", "StandardBasis.member", None),
    ("fan.standard_fan", "dfan.fan", "standard_fan", _fan_counts),
    ("linalg.rref", "dfan._linalg", "rref", _rref_counts),
    ("linalg.nullspace", "dfan._linalg", "nullspace", None),
    ("linalg.solve_affine", "dfan._linalg", "solve_affine", _solve_counts),
    ("linalg.cone_interior_point", "dfan._linalg", "cone_interior_point",
     _cone_point_counts),
    ("flatness.intersection_oracle", "dfan.flatness", "intersection_oracle",
     _oracle_counts),
    ("flatness.flat_decompose", "dfan.flatness", "flat_decompose", None),
    ("flatness.kernel_normalize", "dfan.flatness", "kernel_normalize", None),
    ("flatness.monomial_filtration", "dfan.flatness", "monomial_filtration",
     None),
    ("rees.fiber_V_zero_test", "dfan.rees", "fiber_V_zero_test", None),
    ("toric.refine_to_basic", "dfan.toric", "refine_to_basic", None),
)

# Hot methods: aggregate counters, no spans.  Both Weyl products feed
# one metric.
HOT_TARGETS = (
    ("weights.key", "dfan.weights", "TermOrder.key", None),
    ("weyl.mul", "dfan.weyl", "WeylOp.__mul__", _mul_counts),
    ("weyl.mul", "dfan.weyl", "DtOp.__mul__", _mul_counts),
)

CAP_ERROR = "ResourceBoundExceeded"


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []  # (sid, parent, op, name, start, end, self_s, counts)
        self.stack = []  # open spans: [sid, child seconds]
        self.hot = defaultdict(lambda: [0, 0.0, 0])  # calls, seconds, terms
        self.hot_by_op = defaultdict(lambda: [0, 0.0, 0])
        self._patches = []
        self._next = 0

    # ------------------------------------------------------- installing

    def install(self):
        for name, module, attr, counts in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, n=name, c=counts: self._span(n, fn, c))
        for name, module, attr, counts in HOT_TARGETS:
            self._patch(module, attr, lambda fn, n=name, c=counts: self._hot(n, fn, c))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, make):
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dfan" and not mod_name.startswith("dfan."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # --------------------------------------------------------- wrappers

    def _span(self, name, fn, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                stack.pop()
                extra = {"capped": 1} if type(exc).__name__ == CAP_ERROR else {}
                tracer._close(sid, parent, name, start, end, frame[1], extra)
                raise
            end = perf()
            stack.pop()
            extra = counts(args, kwargs, result) if counts else {}
            tracer._close(sid, parent, name, start, end, frame[1], extra)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, sid, parent, name, start, end, child, extra):
        self.spans.append(
            (sid, parent, self.op, name, start, end, end - start - child, extra)
        )
        if self.stack:
            # the parent excludes this span and its bookkeeping
            self.stack[-1][1] += perf() - start

    def _hot(self, name, fn, counts):
        tracer = self
        agg = self.hot[name]
        by_op = self.hot_by_op

        def wrapper(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            end = perf()
            agg[0] += 1
            agg[1] += end - start
            row = by_op[(tracer.op, name)]
            row[0] += 1
            row[1] += end - start
            if counts:
                n = counts(args, kwargs, result)
                agg[2] += n
                row[2] += n
            if tracer.stack:
                tracer.stack[-1][1] += perf() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- results

    def layer_metrics(self) -> dict:
        """Per-layer totals: ``<layer>.calls``, ``.self_s`` and counts."""
        out = defaultdict(float)
        names = {}
        for sid, parent, _, name, _, _, self_s, extra in self.spans:
            names[sid] = (name, parent)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            for key, value in extra.items():
                out[f"{name}.{key}"] += value
        for name, (calls, seconds, terms) in self.hot.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += seconds
            if name == "weyl.mul":
                out["weyl.mul.terms_out"] += terms
        # reduce_basis calls made under standard_fan
        under_fan = 0
        for sid, (name, parent) in names.items():
            if name != "basis.reduce_basis":
                continue
            while parent is not None:
                pname, parent = names[parent]
                if pname == "fan.standard_fan":
                    under_fan += 1
                    break
        cones = out.get("fan.standard_fan.cones", 0)
        out["fan.useful_ratio"] = cones / under_fan if under_fan else 0.0
        calls = out.get("linalg.cone_interior_point.calls", 0)
        hits = out.pop("linalg.cone_interior_point.hits", 0)
        out["linalg.cone_interior_point.hit_ratio"] = hits / calls if calls else 0.0
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write the header, one line per span, then the hot counters per
        operation, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, parent, op, name, start, end, self_s, extra in self.spans:
                fh.write(json.dumps({
                    "span": sid, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "self_s": self_s, **extra,
                }) + "\n")
            for (op, name), (calls, seconds, terms) in sorted(
                self.hot_by_op.items(), key=lambda kv: (kv[0][0], kv[0][1])
            ):
                fh.write(json.dumps({"hot": name, "op": op, "calls": calls,
                                     "self_s": seconds, "terms_out": terms}) + "\n")
