"""The benchmark's span tracer (``perfbench/spans.py``) wraps the Weyl
products and the layer functions from outside the program.  Every
command must print the same report and exit with the same code under it,
so a wrapped method must keep its name and its class.  Order keys must
be built by ``TermOrder.key``, the method the tracer counts."""

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
    ["fan", "--input", str(PROBLEMS / "threecone.txt")],
    # an explicit target: the region check, flat_decompose and member
    ["flat-cert", "--input", str(PROBLEMS / "euler_target.txt")],
]
# a subcommand's first run is named by it, a later one by its problem too
IDS = [
    argv[0] if all(a[0] != argv[0] for a in COMMANDS[:i])
    else f"{argv[0]}-{Path(argv[2]).stem}"
    for i, argv in enumerate(COMMANDS)
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


@pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
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
    if argv[0] in ("gb", "fan"):
        # every order key is built by TermOrder.key, where the tracer counts it
        assert tracer.hot["weights.key"][0] > 0
