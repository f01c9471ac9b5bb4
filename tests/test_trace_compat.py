"""The benchmark's span tracer (``perfbench/spans.py``) wraps the Weyl
products and the layer functions from outside the program.  Every
command must print the same report and exit with the same code under it:
a call such as ``scalar * vector`` that reaches ``WeylOp.__mul__`` and
returns ``NotImplemented`` breaks the tracer's counters."""

import importlib.util
import io
from pathlib import Path

import pytest

from dfan import cli

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

COMMANDS = [
    ["gb", "--input", str(PROBLEMS / "vector2.txt")],
    ["divide", "--input", str(PROBLEMS / "vector2.txt")],
    ["fiber", "--input", str(PROBLEMS / "paper_fiber.txt")],
    ["cones", "--cone", "[[1,0],[1,2]]"],
    ["normalize-syzygy", "--input", str(PROBLEMS / "syzygy1.txt")],
    ["flat-cert", "--input", str(PROBLEMS / "euler.txt"), "--degree-bound", "2"],
]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_traced_run_matches_plain_run(argv):
    plain = invoke(argv)
    tracer = load_tracer()
    tracer.install()
    try:
        traced = invoke(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert any(span[3] == "cli.run" for span in tracer.spans)
