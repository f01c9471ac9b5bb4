"""The benchmark's report digests as a tier-1 check.

The first pass of each benchmark pool (certify 11, fan 90 and quick 200
operations) is replayed for seeds 1, 2 and 3, and that of the certify
and fan pools also for seeds 4 and 5.  In the fan pool the seed
draws the coefficients that the completion's integer arithmetic scales;
in the certify pool one operation per seed builds certificates, and with
them the fan; in the quick pool it draws the operands, weights and cones
of all eight subcommands.  The replay goes through ``perfbench/run.py``: its
``Workdir`` writes the pool, ``run_pass`` sends every command through
``dfan.cli.run``, and ``Checker.failures`` checks each report against the
corpus verdicts and the recorded sha256 digests of ``perfbench/hashes.json``.
A change that alters any benchmark report fails here, not only in a
benchmark run.  Nothing under ``perfbench/`` is written to."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dfan import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def runner():
    """``perfbench/run.py`` as a module; it imports its siblings by name.
    The modules loaded from ``perfbench/`` leave ``sys.modules`` again
    after this file's tests, so their generic names (``workloads``,
    ``spans``) shadow nothing in later tests."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    yield module
    for name, mod in list(sys.modules.items()):
        if BENCH in Path(getattr(mod, "__file__", None) or "/").resolve().parents:
            del sys.modules[name]


def replay(runner, workload, seed):
    checker = runner.Checker(workload, seed)
    work = runner.Workdir(workload, seed)
    try:
        tally, _ = runner.run_pass(cli, checker, work)
    finally:
        work.close()
    assert len(tally) == len(work.pool) == runner.W.POOL_SIZE[workload]
    assert checker.blocks, f"no digests recorded for {workload} seed {seed}"
    failed = [(idx, " ".join(op.argv), why) for idx, op, why in checker.failures(tally)]
    assert failed == []


@pytest.mark.parametrize("workload", ["certify", "fan", "quick"])
def test_first_pass_keeps_every_report(runner, workload):
    replay(runner, workload, 1)


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_first_fan_pass_of_more_seeds_keeps_every_report(runner, seed):
    replay(runner, "fan", seed)


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_first_certify_pass_of_more_seeds_keeps_every_report(runner, seed):
    replay(runner, "certify", seed)


@pytest.mark.parametrize("seed", [2, 3])
def test_first_quick_pass_of_more_seeds_keeps_every_report(runner, seed):
    replay(runner, "quick", seed)
