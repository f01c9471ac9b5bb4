"""Fast self-check of the benchmark harness (a few seconds).

    python3 perfbench/selfcheck.py

For each workload it runs a tiny closed-loop window and a tiny traced
pass twice, and checks that:
- every operation passes the correctness checks;
- every workload in ``BENCHMARK.json`` exists here, and its end-to-end
  and per-layer names match the ones the runs report;
- the two traced passes give identical deterministic per-layer counts;
- uninstalling the tracer restores every patched function.
Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys

import run as R
import workloads as W
from spans import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_PASS = 3


def timing_name(name):
    return name.endswith("self_s") or name == "trace.overhead_s"


def traced_counts(cli, workload, seed):
    work = R.Workdir(workload, seed, TINY_PASS + 1)
    # skip op 0: on certify it is a multi-second corpus run
    work.pool, work.argvs = work.pool[1:], work.argvs[1:]
    tracer = Tracer()
    tracer.install()
    try:
        tally, _ = R.run_pass(cli, R.Checker(workload, seed), work, tracer)
    finally:
        tracer.uninstall()
        work.close()
    metrics = R.layer_metrics(tracer, 0.0)
    return tally, {k: v for k, (v, _) in metrics.items() if not timing_name(k)}


def main() -> int:
    problems = []
    spec = json.loads((R.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(W.WORKLOADS):
        problems.append(f"workloads {names} not all in {list(W.WORKLOADS)}")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not NAME.fullmatch(entry["name"]):
                problems.append(f"bad {group} name {entry['name']!r}")
    for entry in spec["end_to_end"]:
        if not 0 < entry["bound"] <= 0.25:
            problems.append(f"bound of {entry['name']} outside (0, 0.25]")

    cli = R.import_dfan()
    originals = {name: getattr(sys.modules["dfan.cli"], name)
                 for name in ("run", "render_report", "standard_fan")}
    for workload in W.WORKLOADS:
        seed = 1
        work = R.Workdir(workload, seed, TINY_PASS + 1)
        work.pool, work.argvs = work.pool[1:], work.argvs[1:]
        try:
            tally = R.run_window(cli, R.Checker(workload, seed), work, 0.2)
        finally:
            work.close()
        for _, op, why in R.Checker(workload, seed).failures(tally):
            problems.append(f"{workload} op {op.oid}: {why}")
        metrics, _ = R.end_to_end(tally, [(0.1, 0.1)])
        want = [m["name"] for m in spec["end_to_end"]]
        if sorted(metrics) != sorted(want):
            problems.append(f"end-to-end names {sorted(metrics)} != {sorted(want)}")

        first_tally, first = traced_counts(cli, workload, seed)
        _, second = traced_counts(cli, workload, seed)
        want = [m["name"] for m in spec["per_layer"]]
        if sorted(R.LAYER_METRICS) != sorted(want):
            problems.append("per-layer names differ from BENCHMARK.json")
        if first != second:
            diff = sorted(k for k in first if first[k] != second.get(k))
            problems.append(f"{workload}: traced counts differ in {diff}")
        if not any(first.values()):
            problems.append(f"{workload}: traced pass recorded nothing")
        print(f"{workload}: {len(tally)} window ops, "
              f"{len(first_tally)} traced ops, {len(first)} counts")
    for name, fn in originals.items():
        if getattr(sys.modules["dfan.cli"], name) is not fn:
            problems.append(f"tracer left dfan.cli.{name} patched")
    for problem in problems:
        print("SELF-CHECK FAILED:", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
