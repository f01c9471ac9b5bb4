"""dfan benchmark: closed-loop batch workloads driven through ``dfan.cli.run``.

    python3 perfbench/run.py --workload {certify,fan,quick} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload quick --seed N --dump DIR [--ops K]

Each run is one fresh process and one client: it sends one command at a
time through ``dfan.cli.run(argv, stdout, stderr)``, the entry point of the
``dfan`` command, and checks every report.  Run it from the root of a
checkout; ``dfan`` is imported from ``src/``, so nothing is installed.

``--trace 0`` goes through the seed's pool of operations in passes for
``--seconds``, times each command against a host-speed probe run between
commands, and prints the end-to-end metrics.  ``--trace 1`` replays the
fixed first ``TRACE_PASS`` operations twice, plain then with the span
tracer of ``spans.py`` installed, prints the per-layer metrics and writes
the spans to ``.bench_out/``.  ``--dump`` writes the problem files and
argv list of a seed so that any operation can be replayed with the
``dfan`` command.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed, and 2 when the program
under test could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads as W
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

NEGATIVE = {"nonzero", "counterexample", "not-in-ideal", "no"}
# Set-up probes before and after the timed window: spread over the run,
# they do not all land in one phase of the host.
SETUP_PROBES = (5, 4)
PROBE_TIMEOUT_S = 60
# Timed operations are bracketed by speed probes at least this often.
SPEED_PROBE_EVERY_S = 0.02
# What one speed probe takes on the reference host: a 2-CPU Intel Xeon
# VM under Python 3.11.7, in its fastest phase.  Calibrated times are
# expressed in milliseconds of that host.
REF_MS = 2.0


# ------------------------------------------------------------- set-up


def import_dfan():
    sys.path.insert(0, str(ROOT / "src"))
    from dfan import cli

    return cli


class Workdir:
    """A pool of operations written under ``.bench_work/``; removed on close."""

    def __init__(self, workload: str, seed: int, size: int | None = None):
        self.path = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.pool = W.make_pool(workload, seed, size)
        W.write_pool(self.pool, ROOT, self.path)
        self.argvs = [W.argv_in(op, self.path) for op in self.pool]

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up measurement: speed probe, import, generate,
    write, report ready, speed probe, clean up."""
    before = speed_probe()
    import_dfan()
    work = Workdir(workload, seed)
    try:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        sys.stdout.write(f"{before!r} {speed_probe()!r}\n")
    finally:
        work.close()
    return 0


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """``(calibrated, wall)`` seconds from spawning a fresh interpreter
    until its first operation is ready, once per probe.  The child runs a
    speed probe first thing and one after it is ready; the calibrated time
    leaves the first probe out and is divided by the mean of the two, in
    seconds of the reference host."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready\n" or len(rest) != 2 or code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}")
        before, after = map(float, rest)
        calibrated = (elapsed - before) / ((before + after) / 2) * REF_MS / 1000
        times.append((calibrated, elapsed))
    return times


# ------------------------------------------------------------ running


@dataclass
class Outcome:
    """Everything one command returned; checked at once, then dropped."""

    op: W.Op
    code: int | None
    out: str
    err: str
    exc: str | None


class Tally:
    """What a run keeps: the wall time and the calibrated time (wall time
    over host speed) of each pass of each pool operation, the exit code of
    its first run, each failure, and the digest of each operation of the
    first pass (the recorded blocks cover that pass)."""

    def __init__(self, size: int):
        self.times = [array("d") for _ in range(size)]
        self.ratios = [array("d") for _ in range(size)]
        self.codes = []  # exit code of each pool operation's first run
        self.attempts = 0
        self.failed = {}  # attempt -> (op, reason)
        self.first = []  # (op, digest) of the first pass

    def __len__(self):
        return self.attempts

    @property
    def passes(self) -> float:
        return self.attempts / len(self.times)

    def add(self, pos, op, code, seconds, digest, reason):
        if reason:
            self.failed[self.attempts] = (op, reason)
        self.attempts += 1
        self.times[pos].append(seconds)
        if pos == len(self.first):
            self.first.append((op, digest))
            self.codes.append(code)

    def calibrate(self, timed, probe_s):
        """Record each ``(pos, seconds)`` of ``timed`` over ``probe_s``, the
        speed probe time around them."""
        for pos, seconds in timed:
            self.ratios[pos].append(seconds / probe_s)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python ``Fraction`` loop, the kind of work
    dfan does; about ``REF_MS`` on the reference host."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.perf_counter() - start


def run_op(cli, checker, pos, op, argv, tally: Tally) -> float:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code, exc = cli.run(argv, out, err), None
    except Exception:  # a traceback is a failed operation, not a crash
        code, exc = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    res = Outcome(op, code, out.getvalue(), err.getvalue(), exc)
    tally.add(pos, op, code, seconds, output_digest(res), checker.check(res))
    return seconds


def run_window(cli, checker, work: Workdir, seconds: float) -> Tally:
    """Closed loop: the next command starts when the previous one returns.
    Passes over the pool repeat until ``seconds`` have passed; the first
    pass is always completed, so every operation has a time.  A speed
    probe runs before the first command and after every
    ``SPEED_PROBE_EVERY_S`` of commands; each command's time is divided
    by the mean of the two probes around it."""
    n = len(work.pool)
    tally = Tally(n)
    before, timed = speed_probe(), []
    start = time.perf_counter()
    while len(tally) < n or time.perf_counter() - start < seconds:
        i = len(tally) % n
        timed.append((i, run_op(cli, checker, i, work.pool[i], work.argvs[i],
                                tally)))
        if sum(t for _, t in timed) >= SPEED_PROBE_EVERY_S:
            after = speed_probe()
            tally.calibrate(timed, (before + after) / 2)
            before, timed = after, []
    if timed:
        tally.calibrate(timed, (before + speed_probe()) / 2)
    return tally


def run_pass(cli, checker, work: Workdir, tracer=None):
    """Every operation of the pool once, in order; returns the tally and
    the wall time."""
    tally = Tally(len(work.pool))
    start = time.perf_counter()
    for i, (op, argv) in enumerate(zip(work.pool, work.argvs)):
        if tracer is not None:
            tracer.op = op.oid
        run_op(cli, checker, i, op, argv, tally)
    return tally, time.perf_counter() - start


# ----------------------------------------------------------- checking


def _load(name):
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def verdict_of(res: Outcome):
    if res.code == 2 and not res.out:
        return "inconclusive"  # exit 2 without a report: a cap tripped
    if "--json" in res.op.argv:
        try:
            return json.loads(res.out)["verdict"]
        except (ValueError, KeyError, TypeError):
            return None
    lines = res.out.splitlines()
    prefix = f"{res.op.argv[0]}: "
    if len(lines) > 2 and lines[2].startswith(prefix):
        return lines[2][len(prefix):]
    return None


def expected_code(op, verdict):
    if "--expect" in op.argv:
        want = op.argv[op.argv.index("--expect") + 1]
        if verdict == want:
            return 0
        return 2 if verdict == "inconclusive" else 1
    if verdict in NEGATIVE:
        return 1
    return 2 if verdict == "inconclusive" else 0


def _det2(rows):
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def check_cones(res: Outcome, verdict):
    rows = json.loads(res.op.argv[res.op.argv.index("--cone") + 1])
    want = "basic" if abs(_det2(rows)) == 1 else "refined"
    if verdict != want:
        return f"cone with |det| {abs(_det2(rows))} reported {verdict}"
    if verdict == "refined":
        subcones = json.loads(res.out)["data"]["subcones"]
        if not subcones or any(abs(_det2(s)) != 1 for s in subcones):
            return "refinement has a non-basic subcone"
    return None


def output_digest(res: Outcome) -> str:
    """Exit code plus report sha256; inconclusive output is compared by
    exit code only, because its text is due to change."""
    if res.code == 2:
        return "2"
    return f"{res.code}:{hashlib.sha256(res.out.encode()).hexdigest()}"


def block_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


class Checker:
    """Checks every operation: exit-code contract, no traceback, allowed or
    expected verdict, corpus facts and hashes, and for seeds with recorded
    hashes the digest of every complete block of operations.
    ``recorded=False`` skips the two hash checks (used while recording)."""

    def __init__(self, workload: str, seed: int, recorded: bool = True):
        corpus = _load("corpus.json")["entries"]
        self.corpus = {tuple(e["argv"]): e for e in corpus}
        hashes = {"corpus": {}, "generated": {}}
        if recorded and (HERE / "hashes.json").exists():
            hashes = _load("hashes.json")
        self.recorded = recorded
        self.corpus_sha = hashes["corpus"]
        spec = hashes["generated"].get(workload, {})
        self.block = spec.get("block", 1)
        self.blocks = spec.get("seeds", {}).get(str(seed), [])

    def check(self, res: Outcome):
        """None when the operation is correct, else the reason it failed."""
        if res.exc is not None:
            return "traceback: " + res.exc.strip().splitlines()[-1]
        if res.code == 3:
            return "exit 3: " + res.err.strip()[:120]
        if "Traceback" in res.err:
            return "traceback on stderr"
        verdict = verdict_of(res)
        if verdict is None:
            return "no verdict in the report"
        if res.code != expected_code(res.op, verdict):
            return f"exit {res.code} does not match verdict {verdict}"
        if res.op.corpus:
            entry = self.corpus[res.op.argv]
            if verdict != entry["verdict"] or res.code != entry["exit"]:
                return f"corpus verdict {verdict}, expected {entry['verdict']}"
            missing = [c for c in entry["contains"] if c not in res.out]
            if missing:
                return f"corpus report lacks {missing[0]!r}"
            sha = hashlib.sha256(res.out.encode()).hexdigest()
            if self.recorded and sha != self.corpus_sha.get(" ".join(res.op.argv)):
                return "corpus report hash differs"
            return None
        if verdict not in res.op.verdicts:
            return f"verdict {verdict} not among {sorted(res.op.verdicts)}"
        if res.op.kind == "cones":
            return check_cones(res, verdict)
        return None

    def failures(self, tally: Tally) -> list:
        """(position, op, reason) for each failed operation."""
        bad = dict(tally.failed)
        # recorded block digests cover the first pass over the pool
        for b, want in enumerate(self.blocks):
            lo, hi = b * self.block, (b + 1) * self.block
            block = tally.first[lo:hi]
            if len(block) < self.block or any(
                    op.oid != i for i, (op, _) in zip(range(lo, hi), block)):
                break
            if block_digest([digest for _, digest in block]) != want:
                for idx, (op, _) in zip(range(lo, hi), block):
                    bad.setdefault(
                        idx, (op, f"report hash differs in ops {lo}-{hi - 1}"))
        return [(idx, op, why) for idx, (op, why) in sorted(bad.items())]


# ------------------------------------------------------------ metrics


def env_stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "host_ref_ms": host_ref_ms(),
        "commit": commit_hash(),
    }


def host_ref_ms() -> float:
    """Median of nine speed probes: how fast the host ran dfan's kind of
    code at the start and at the end of a run, in the stamp beside the
    metrics."""
    return statistics.median(speed_probe() for _ in range(9)) * 1000


def commit_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(tally: Tally, setup_times) -> tuple[dict, list]:
    """Each pool operation counts once, with the median of its calibrated
    times over the passes of the window, in milliseconds of the reference
    host.  Wall times spread by up to 2x with the phases of a shared host;
    calibrated times do not.  The wall-time figures are printed as notes."""
    n = len(tally.ratios)
    cost = [statistics.median(r) * REF_MS for r in tally.ratios]
    wall = [statistics.median(t) * 1000 for t in tally.times]
    metrics = {
        # time inside dfan.cli.run; the client's own checks are left out
        "ops_per_s": (n * 1000 / sum(cost), "1/s"),
        "op_p50_ms": (statistics.median(cost), "ms"),
        "setup_s": (statistics.median(c for c, _ in setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decided_ratio": (sum(c in (0, 1) for c in tally.codes) / n, "ratio"),
    }
    notes = [f"pool {n} ops, {tally.passes:.2f} passes, {len(tally)} attempts",
             f"wall time (not calibrated): ops_per_s {n * 1000 / sum(wall):.6g}"
             f" 1/s, op_p50_ms {statistics.median(wall):.6g} ms, setup_s "
             f"{statistics.median(w for _, w in setup_times):.6g} s"]
    if n >= 100:
        notes.append(f"op_p90_ms {percentile(cost, 90):.4f} ms (n={n})")
    else:
        notes.append(f"op_p90_ms not reported: {n} samples, fewer than 100")
    return metrics, notes


# Per-layer metrics of a traced run and their units, as named in
# BENCHMARK.json.  The comment on each group names the end-to-end metric
# and workload the layer should move.
LAYER_METRICS = {
    # op_p50_ms on quick
    "cli.run.self_s": "s",
    "cli.render_report.self_s": "s",
    "problem.parse_problem.calls": "count",
    "problem.parse_problem.self_s": "s",
    "grammar.format_vec.calls": "count",
    "grammar.format_vec.self_s": "s",
    # ops_per_s on certify (oracle columns) and quick; fan
    "weyl.mul.calls": "count",
    "weyl.mul.self_s": "s",
    "weyl.mul.terms_out": "count",
    # ops_per_s on quick; fan
    "weights.key.calls": "count",
    "weights.key.self_s": "s",
    # op_p50_ms and ops_per_s on quick; fan
    "basis.reduce_basis.calls": "count",
    "basis.reduce_basis.self_s": "s",
    "basis.reduce_basis.elements": "count",
    "basis.reduce_basis.capped": "count",
    "basis.divide.calls": "count",
    "basis.divide.self_s": "s",
    "basis.member.calls": "count",
    "basis.member.self_s": "s",
    # ops_per_s on quick; fan
    "fan.standard_fan.calls": "count",
    "fan.standard_fan.self_s": "s",
    "fan.standard_fan.cones": "count",
    "fan.standard_fan.normals": "count",
    "fan.useful_ratio": "ratio",
    # ops_per_s and op_p50_ms on certify
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.rref.nnz": "count",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_s": "s",
    # op_p50_ms on quick
    "linalg.solve_affine.calls": "count",
    "linalg.solve_affine.self_s": "s",
    "linalg.solve_affine.cells": "count",
    # ops_per_s on quick; fan
    "linalg.cone_interior_point.calls": "count",
    "linalg.cone_interior_point.self_s": "s",
    "linalg.cone_interior_point.hit_ratio": "ratio",
    # certify
    "flatness.intersection_oracle.calls": "count",
    "flatness.intersection_oracle.self_s": "s",
    "flatness.intersection_oracle.lhs_dim": "count",
    # quick
    "flatness.flat_decompose.calls": "count",
    "flatness.flat_decompose.self_s": "s",
    "flatness.kernel_normalize.self_s": "s",
    "flatness.monomial_filtration.self_s": "s",
    "rees.fiber_V_zero_test.calls": "count",
    "rees.fiber_V_zero_test.self_s": "s",
    "toric.refine_to_basic.calls": "count",
    "toric.refine_to_basic.self_s": "s",
    # traced wall minus plain wall over the same pass
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    raw = tracer.layer_metrics()
    out = {}
    for name, unit in LAYER_METRICS.items():
        value = overhead if name == "trace.overhead_s" else raw.get(name, 0)
        out[name] = (value, unit)
    return out


# --------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dump", metavar="DIR",
                   help="write problem files and argv list, run nothing")
    p.add_argument("--ops", type=int, help="operations to dump (default: pool)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def dump(workload, seed, directory, count):
    pool = W.make_pool(workload, seed, count)
    directory = Path(directory)
    W.write_pool(pool, ROOT, directory)
    lines = [shlex.join(("dfan",) + op.argv) for op in pool]
    (directory / "commands.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
    (directory / "argv.json").write_text(
        json.dumps([list(op.argv) for op in pool], indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {len(pool)} operations to {directory}; run the lines of "
          f"commands.txt from inside that directory")


def report(result, metrics, notes, failures):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    for _, op, reason in failures[:20]:
        print(f"FAILED op {op.oid} ({' '.join(op.argv)}): {reason}")
    print(json.dumps(result))


def timed_run(cli, checker, args, stamp):
    before, after = SETUP_PROBES
    setup_times = measure_setup(args.workload, args.seed, before)
    work = Workdir(args.workload, args.seed)
    try:
        tally = run_window(cli, checker, work, args.seconds)
    finally:
        work.close()
    setup_times += measure_setup(args.workload, args.seed, after)
    failures = checker.failures(tally)
    metrics, notes = end_to_end(tally, setup_times)
    notes.append(f"fail_ratio {len(failures) / len(tally):.6g} "
                 f"({len(failures)}/{len(tally)})")
    return len(tally), failures, metrics, notes


def traced_run(cli, checker, args, stamp):
    """The fixed pass plain, then traced; spans go to ``.bench_out/``."""
    work = Workdir(args.workload, args.seed, W.TRACE_PASS[args.workload])
    tracer = Tracer()
    try:
        plain, plain_wall = run_pass(cli, checker, work)
        tracer.install()
        try:
            traced, traced_wall = run_pass(cli, checker, work, tracer)
        finally:
            tracer.uninstall()
    finally:
        work.close()
    failures = checker.failures(plain) + checker.failures(traced)
    metrics = layer_metrics(tracer, traced_wall - plain_wall)
    notes = [f"traced pass: {len(traced)} ops, {traced_wall:.3f} s traced, "
             f"{plain_wall:.3f} s plain"]
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "env": stamp})
    return len(plain) + len(traced), failures, metrics, notes


def main(argv=None) -> int:
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.dump:
        dump(args.workload, args.seed, args.dump, args.ops)
        return 0
    try:
        cli = import_dfan()
    except ImportError as exc:
        print(f"perfbench: cannot import dfan from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    stamp = env_stamp()
    checker = Checker(args.workload, args.seed)
    run_mode = traced_run if args.trace else timed_run
    attempted, failures, metrics, notes = run_mode(cli, checker, args, stamp)
    stamp.update(loadavg_end=list(os.getloadavg()), host_ref_ms_end=host_ref_ms())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(stamp)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report(result, metrics, notes, failures)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
