"""The benchmark's report digests as a tier-1 check.

The first pass of each benchmark pool for seed 1 (certify 11, fan 90 and
quick 200 operations) is replayed through ``perfbench/run.py``: its
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


@pytest.mark.parametrize("workload", ["certify", "fan", "quick"])
def test_first_pass_keeps_every_report(runner, workload):
    checker = runner.Checker(workload, 1)
    work = runner.Workdir(workload, 1)
    try:
        tally, _ = runner.run_pass(cli, checker, work)
    finally:
        work.close()
    assert len(tally) == len(work.pool) == runner.W.POOL_SIZE[workload]
    assert checker.blocks, f"no digests recorded for {workload} seed 1"
    failed = [(idx, " ".join(op.argv), why) for idx, op, why in checker.failures(tally)]
    assert failed == []
