import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dfan import basis, cli, fan, flatness, toric, weyl
from dfan.errors import ResourceBoundExceeded
from dfan.cli import NEGATIVE_VERDICTS, run
from conftest import FUZZ_TOKENS, field_texts

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report-schema.json"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_fiber_paper_example_exit_zero():
    code, out, err = invoke(
        ["fiber", "--input", str(PROBLEMS / "paper_fiber.txt")]
    )
    assert code == 0, err
    assert "fiber: zero" in out


def test_fiber_expect_mismatch_is_exit_one(tmp_path):
    problem = tmp_path / "d1.txt"
    problem.write_text("ring n=1 k=1 r=1\ngen: d1\n")
    code, out, _ = invoke(["fiber", "--input", str(problem)])
    assert code == 1
    assert "fiber: nonzero" in out
    code2, _, _ = invoke(
        ["fiber", "--input", str(problem), "--expect", "zero"]
    )
    assert code2 == 1
    code3, _, _ = invoke(
        ["fiber", "--input", str(problem), "--expect", "nonzero"]
    )
    assert code3 == 0


def test_fiber_with_cone_flag(tmp_path):
    problem = tmp_path / "p.txt"
    problem.write_text("ring n=2 k=2 r=1\ngen: 1 + x2^2 d1\n")
    code, out, _ = invoke(["fiber", "--input", str(problem), "--bound", "4"])
    assert code == 2 and "fiber: inconclusive" in out
    code2, out2, _ = invoke(
        ["fiber", "--input", str(problem), "--cone", "[[1,1],[0,1]]", "--bound", "4"]
    )
    assert code2 == 0 and "fiber: zero" in out2


def test_an_inconclusive_membership_reports_and_exits_two():
    # the membership search of the target finds no t-power up to its
    # bound: a report with verdict inconclusive, its reason and the bound
    # searched, and exit 2, as for every inconclusive verdict
    problem = str(PROBLEMS / "euler_inconclusive.txt")
    reason = "module membership of the input is inconclusive up to t^10"
    code, out, err = invoke(["flat-cert", "--input", problem])
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "dfan flat-cert (v0.1.0)",
        "bounds: degree_bound=4, l_max=10",
        "flat-cert: inconclusive",
        f"reason: {reason}",
    ]
    code, out, _ = invoke(["flat-cert", "--input", problem, "--l-max", "4"])
    assert code == 2 and "l_max=4" in out and "up to t^4" in out
    code, out, _ = invoke(["flat-cert", "--input", problem, "--expect", "certified"])
    assert code == 2 and "flat-cert: inconclusive" in out
    code, out, _ = invoke(["flat-cert", "--input", problem, "--json"])
    report = json.loads(out)
    assert code == 2
    assert report["verdict"] == "inconclusive"
    assert report["data"] == {"reason": reason}
    assert report["bounds"] == {"degree_bound": 4, "l_max": 10}
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))


def test_fan_euler_single_cone():
    code, out, _ = invoke(["fan", "--input", str(PROBLEMS / "euler.txt")])
    assert code == 0
    assert "count: 1" in out


def test_fan_three_cones():
    code, out, _ = invoke(["fan", "--input", str(PROBLEMS / "threecone.txt")])
    assert code == 0
    assert "count: 3" in out


def test_gb_prints_elements_one_per_line():
    code, out, _ = invoke(
        ["gb", "--input", str(PROBLEMS / "euler.txt"), "--weight", "[1,1]"]
    )
    assert code == 0
    assert "\nx1 d1 e1 + x2 d2 e1\n" in out


def test_flat_cert_non_basic_cone_exit_three():
    code, _, err = invoke(
        [
            "flat-cert",
            "--input", str(PROBLEMS / "euler.txt"),
            "--cone", "[[1,0],[1,2]]",
        ]
    )
    assert code == 3
    assert "cone not basic" in err


def test_flat_cert_non_coordinate_ideal_exit_three():
    code, _, err = invoke(
        [
            "flat-cert",
            "--input", str(PROBLEMS / "euler.txt"),
            "--ideal", "W1 W2",
        ]
    )
    assert code == 3
    assert "coordinate ideal" in err


def test_flat_cert_euler_certifies():
    code, out, _ = invoke(["flat-cert", "--input", str(PROBLEMS / "euler.txt")])
    assert code == 0
    assert "flat-cert: certified" in out


@pytest.mark.parametrize(
    "degree_bound, digest",
    [
        ("8", "ef97935908778c76a3eb81ca92bc0501b0414a54bf24f9eb720461f25031a496"),
        ("12", "a4e5fa4f9e458eaeab3a034c5a500663952fecb06cf38072ae6fabbb0c8df341"),
    ],
    ids=["D8", "D12"],
)
def test_flat_cert_euler_reports_at_larger_degree_bounds(degree_bound, digest):
    # the intersection oracle on Macaulay matrices of hundreds of rows,
    # well past the benchmark's degree bound of 2
    code, out, _ = invoke(
        ["flat-cert", "--input", str(PROBLEMS / "euler.txt"),
         "--degree-bound", degree_bound]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_flat_cert_target_path():
    code, out, _ = invoke(
        ["flat-cert", "--input", str(PROBLEMS / "euler_target.txt")]
    )
    assert code == 0
    assert "flat-cert: certified" in out


def test_flat_cert_target_outside_ideal_piece(tmp_path):
    problem = tmp_path / "p.txt"
    problem.write_text(
        "ring n=2 k=2 r=1\n"
        "gen: x1 d1 + x2 d2\n"
        "target: x1 d1 + x2 d2\n"  # weight-0 terms fit no drop region at s=0
        "cone = [[1, 0], [0, 1]]\n"
        "ideal = W1, W2\n"
        "s = [0, 0]\n"
    )
    code, out, _ = invoke(["flat-cert", "--input", str(problem)])
    assert code == 1
    assert "not-in-ideal" in out


COUNTEREXAMPLE_PROBLEM = """ring n=2 k=2 r=1
gen: x1 d2 + d1
cone = [[1, 1], [0, 1]]
ideal = W1, W2
s = [0, 1]
degree_bound = 2
"""


@pytest.fixture
def fan_builds(monkeypatch):
    """The generators of every standard fan that flat-cert builds."""
    builds = []

    def spy(generators):
        builds.append(generators)
        return fan.standard_fan(generators)

    monkeypatch.setattr(cli, "standard_fan", spy)
    return builds


@pytest.mark.parametrize(
    "problem, flags, verdict, builds",
    [
        ("euler.txt", ["--degree-bound", "2"], "certified", 0),
        ("counterexample.txt", [], "counterexample", 0),
        ("euler.txt", [], "certified", 1),
        ("euler_target.txt", [], "certified", 1),
    ],
    ids=["empty-intersection", "counterexample", "oracle", "target"],
)
def test_flat_cert_builds_the_fan_only_for_a_certificate(
    tmp_path, fan_builds, problem, flags, verdict, builds
):
    (tmp_path / "counterexample.txt").write_text(COUNTEREXAMPLE_PROBLEM)
    folder = tmp_path if problem == "counterexample.txt" else PROBLEMS
    code, out, err = invoke(
        ["flat-cert", "--input", str(folder / problem), "--json", *flags]
    )
    assert code == (1 if verdict == "counterexample" else 0), err
    report = json.loads(out)
    assert report["verdict"] == verdict
    assert bool(report["data"].get("certificates")) == bool(builds)
    assert len(fan_builds) == builds


def test_flat_cert_meets_the_fan_caps_only_when_it_certifies(monkeypatch):
    # the empty intersection at degree bound 2 reads no fan; the default
    # run certifies, so its fan trips the cell cap
    monkeypatch.setattr(fan, "MAX_CELLS", 1)
    euler = ["flat-cert", "--input", str(PROBLEMS / "euler.txt")]
    code, out, err = invoke(euler + ["--degree-bound", "2"])
    assert code == 0, err
    assert "lhs_dim: 0" in out
    assert "exceeded 1 cells" in inconclusive_line(euler)


def test_flat_cert_checks_the_fan_dimension_before_the_oracle(tmp_path, monkeypatch):
    def oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "intersection_oracle", oracle)
    problem = tmp_path / "k4.txt"
    problem.write_text(
        "ring n=4 k=4 r=1\ngen: x1 d1 + x4 d4\n"
        "cone = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"
        "ideal = W1, W2\ns = [0, 0, 0, 0]\n"
    )
    err = inconclusive_line(["flat-cert", "--input", str(problem)])
    assert err == (
        "dfan: inconclusive: fan construction is capped at k = 3 filtered "
        "coordinates (got 4)\n"
    )


def test_usage_error_on_missing_input():
    code, _, err = invoke(["gb"])
    assert code == 3
    assert "--input is required" in err


def test_weight_length_checked():
    code, _, err = invoke(
        ["gb", "--input", str(PROBLEMS / "euler.txt"), "--weight", "[1,0,0]"]
    )
    assert code == 3
    assert "length" in err


def test_cone_length_checked():
    code, _, err = invoke(
        ["flat-cert", "--input", str(PROBLEMS / "euler.txt"),
         "--cone", "[[1,0,0],[0,1,0],[0,0,1]]"]
    )
    assert code == 3


def test_fan_resource_bound_exit_two(tmp_path):
    # module whose analytic closure is not polynomial: the fan reports an
    # explicit resource verdict instead of looping
    problem = tmp_path / "p.txt"
    problem.write_text(
        "ring n=2 k=2 r=1\ngen: x1 d1 + d2\ngen: x2 d2 + x1^2 d1\n"
    )
    code, _, err = invoke(["fan", "--input", str(problem)])
    assert code == 2
    assert "inconclusive" in err


def test_fan_report_where_completions_near_the_degree_cap(tmp_path):
    # fan pool op 38 (seed 3): completions at some weights of this module
    # climb toward the division degree cap, and a basis check there may
    # trip it; the fan must still come out as it did with one completion
    # per cell
    problem = tmp_path / "p.txt"
    problem.write_text(
        "ring n=2 k=2 r=1\nshifts = [[0, 0]]\ngen: -x2\ngen: 2 x2 d2 + 3 x1\n"
    )
    code, out, err = invoke(["fan", "--input", str(problem), "--json"])
    assert code == 0, err
    assert json.loads(out)["data"] == {
        "cones": [
            {
                "basis": ["x2 e1", "x1 t e1 - 2/3 t e1"],
                "equalities": [[1, 0]],
                "in_closure_of": [1],
                "sample": [0, 1],
                "stricts": [],
            },
            {
                "basis": ["-3/2 x1 t e1 + t e1", "x2 e1"],
                "equalities": [],
                "in_closure_of": [],
                "sample": [1, 1],
                "stricts": [[1, 0]],
            },
        ],
        "count": 2,
    }


def test_cone_refinement_cap_exit_two():
    # |det| = 100, but the box scan would visit 1401^2 lattice points
    start = time.perf_counter()
    code, out, err = invoke(["cones", "--cone", "[[1,200],[3,700]]"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("dfan: inconclusive:") and err.count("\n") == 1
    # 141^2 = 19,881 points still fit under the cap
    code, out, _ = invoke(["cones", "--cone", "[[1,20],[3,70]]"])
    assert code == 0 and "cones: refined" in out


def test_multiplier_cap_exit_two():
    # the oracle would walk 58,905 multipliers of the euler generator
    start = time.perf_counter()
    code, out, err = invoke(
        ["flat-cert", "--input", str(PROBLEMS / "euler.txt"),
         "--degree-bound", "30"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("dfan: inconclusive:") and err.count("\n") == 1


LOOP_PROBLEM = """ring n=2 k=2 r=1
gen: x1
gen: -2 x1 d1 - x2
target: d2 + x1 x2
weight = [1, 1]
"""

# two generators: the oracle spans them with the padded multiplier room
TWO_GEN_PROBLEM = """ring n=2 k=2 r=1
gen: x1 d1 + x2 d2
gen: x1 d2
cone = [[1, 0], [0, 1]]
ideal = W1, W2
"""


# d1^30000 x1^30000 expands into 30,001 terms of huge binomial weights
PRODUCT_PROBLEM = "ring n=1 k=1 r=1\ngen: d1^30000\ngen: x1^30000\n"


def inconclusive_line(argv):
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err.startswith("dfan: inconclusive:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "module, name, value, argv, message",
    [
        (basis, "STEP_CAP", 1, ["divide", "vector2.txt"], "exceeded 1 steps;"),
        (fan, "MAX_K", 1, ["fan", "euler.txt"], "capped at k = 1 "),
        (fan, "MAX_NORMALS", 2, ["fan", "threecone.txt"], "more than 2 wall normals"),
        (fan, "MAX_CELLS", 4, ["fan", "threecone.txt"], "exceeded 4 cells"),
        (basis, "MAX_COEFF_BITS", 0, ["gb", "vector2.txt"], "over MAX_COEFF_BITS = 0;"),
    ],
    ids=["STEP_CAP", "MAX_K", "MAX_NORMALS", "MAX_CELLS", "MAX_COEFF_BITS"],
)
def test_each_cap_exits_two_naming_its_limit(module, name, value, argv, message, monkeypatch):
    argv = [argv[0], "--input", str(PROBLEMS / argv[1])]
    code, _, err = invoke(argv)
    assert code == 0, err
    monkeypatch.setattr(module, name, value)
    assert message in inconclusive_line(argv)


def test_growing_coefficients_exit_two_naming_their_cap(tmp_path):
    # the completion at the zero weight adds elements of bounded degree
    # whose coefficients grow without end; no degree or size cap trips
    problem = tmp_path / "growth.txt"
    problem.write_text(
        "ring n=2 k=2 r=1\n"
        "gen: -2 x1 d1^2 - x2^2 d1 - x1 x2 d2\n"
        "gen: 3 x2 d1 + 3 x2 d2 - 3 x1^2\n"
    )
    start = time.perf_counter()
    err = inconclusive_line(["fan", "--input", str(problem)])
    assert time.perf_counter() - start < 10.0
    assert "MAX_COEFF_BITS = 4096;" in err


def test_degree_slack_sets_the_cap_a_looping_division_reports(tmp_path, monkeypatch):
    # the homogenized target d2 + x1 x2 t divides by t - 1/2 x2 t again and
    # again while x2 climbs; the cap is 3 + 2 + DEGREE_SLACK
    problem = tmp_path / "loop.txt"
    problem.write_text(LOOP_PROBLEM)
    argv = ["divide", "--input", str(problem)]
    assert "exceeded total degree 21;" in inconclusive_line(argv)
    monkeypatch.setattr(basis, "DEGREE_SLACK", 2)
    assert "exceeded total degree 7;" in inconclusive_line(argv)


@pytest.mark.parametrize(
    "module, name, value, argv, limit, observed",
    [
        (basis, "STEP_CAP", 1, ["divide", "vector2.txt"], 1, 2),
        # the completion of vector2 adds a third element before autoreduction
        (basis, "MAX_BASIS_ELEMENTS", 2, ["gb", "vector2.txt"], 2, 3),
        # the degree cap is 3 + 2 + DEGREE_SLACK for the looping division
        (basis, "DEGREE_SLACK", 2, ["divide", "loop.txt"], 7, 8),
        # -2 x1 d1 - x2 enters the basis with a 2-bit coefficient
        (basis, "MAX_COEFF_BITS", 1, ["gb", "loop.txt"], 1, 2),
        (fan, "MAX_K", 1, ["fan", "euler.txt"], 1, 2),
        (fan, "MAX_NORMALS", 2, ["fan", "threecone.txt"], 2, 3),
        (fan, "MAX_CELLS", 4, ["fan", "threecone.txt"], 4, 6),
        (toric, "MAX_BOX_POINTS", 100, ["cones", "--cone", "[[1,20],[3,70]]"],
         100, 141**2),
        (flatness, "MAX_BOX_POINTS", 100,
         ["monomial-chain", "--ideal", "W1^20 W2^20 W3^20", "--k", "3"], 100, 21**3),
        # one generator of degree 2 spans with room 4 - 2: C(2 + 4, 4)
        (weyl, "MAX_MULTIPLIERS", 10, ["flat-cert", "euler.txt"], 10, 15),
        # two generators span with room 4 + slack 4 - 2: C(6 + 4, 4)
        (weyl, "MAX_MULTIPLIERS", 10, ["flat-cert", "two_gen.txt"], 10, 210),
        # the chain of W1^3, W2^3 takes 9 steps
        (flatness, "MAX_CHAIN_STEPS", 2,
         ["monomial-chain", "--ideal", "W1^3, W2^3", "--k", "2"], 2, 3),
        # nu = 0..30000 in d1^30000 * x1^30000
        (weyl, "MAX_PRODUCT_TERMS", 4096, ["gb", "product.txt"], 4096, 30001),
    ],
    ids=[
        "STEP_CAP", "MAX_BASIS_ELEMENTS", "DEGREE_SLACK",
        "MAX_COEFF_BITS", "MAX_K",
        "MAX_NORMALS",
        "MAX_CELLS", "toric.MAX_BOX_POINTS", "flatness.MAX_BOX_POINTS",
        "MAX_MULTIPLIERS", "MAX_MULTIPLIERS-two-generators", "MAX_CHAIN_STEPS",
        "MAX_PRODUCT_TERMS",
    ],
)
def test_cap_error_carries_its_cap_limit_and_observed_value(
    tmp_path, module, name, value, argv, limit, observed, monkeypatch
):
    (tmp_path / "loop.txt").write_text(LOOP_PROBLEM)
    (tmp_path / "two_gen.txt").write_text(TWO_GEN_PROBLEM)
    (tmp_path / "product.txt").write_text(PRODUCT_PROBLEM)
    if argv[1].endswith(".txt"):
        folder = tmp_path if (tmp_path / argv[1]).exists() else PROBLEMS
        argv = [argv[0], "--input", str(folder / argv[1])]
    monkeypatch.setattr(module, name, value)
    args = cli._build_parser().parse_args(argv)
    with pytest.raises(ResourceBoundExceeded) as got:
        cli._HANDLERS[args.command](args)
    exc = got.value
    assert (exc.cap, exc.limit, exc.observed) == (name, limit, observed)
    # the fields add nothing to the one stderr line or the exit code
    assert invoke(argv) == (2, "", f"dfan: inconclusive: {exc}\n")


def test_a_huge_monomial_product_exits_two_naming_its_cap(tmp_path):
    problem = tmp_path / "product.txt"
    problem.write_text(PRODUCT_PROBLEM)
    start = time.perf_counter()
    err = inconclusive_line(["gb", "--input", str(problem)])
    assert time.perf_counter() - start < 10.0
    assert "exceeds the cap of 4096" in err


def test_two_generators_certify_under_the_real_multiplier_cap(tmp_path):
    problem = tmp_path / "two_gen.txt"
    problem.write_text(TWO_GEN_PROBLEM)
    code, out, err = invoke(["flat-cert", "--input", str(problem)])
    assert (code, err) == (0, "")
    assert "flat-cert: certified" in out and "slack: 4" in out


def test_monomial_chain_cap_exit_two():
    # 61^3 = 226,981 monomials in the box of the first step
    start = time.perf_counter()
    code, out, err = invoke(
        ["monomial-chain", "--ideal", "W1^60 W2^60 W3^60", "--k", "3"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("dfan: inconclusive:") and err.count("\n") == 1
    # 21^3 = 9,261 monomials still fit under the cap: the same report
    code, out, _ = invoke(
        ["monomial-chain", "--ideal", "W1^20 W2^20 W3^20", "--k", "3"]
    )
    assert code == 0 and "\nlength: 60\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "00c5d4fa7d55b0ceae0ea77d476d3494f4479e0aaaf0f163c2a6328445dc6469"
    )


SYZYGY = "syzygy n=2 k=2\na = [[1, 0], [0, 1]]\nq: x1 d1 w2\nq: - x1 d1 w1\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        ("ring n=2 k=2 r=1\ngen: 1/0 x1\n", ["gb"]),
        (SYZYGY.replace("q: x1 d1 w2", "q: 1/0 x1 w2"), ["normalize-syzygy"]),
        ("ring n=2 k=2 r=1\ngen: x1\nweight = [1/0, 1]\n", ["gb"]),
        ("ring n=2 k=2 r=1\ngen: x1 d1 + x2 d2\n",
         ["flat-cert", "--cone", "[[1,0],[0,1]]", "--ideal", "W1", "--s", "[1/0,0]"]),
        (SYZYGY.replace("a = ", "a "), ["normalize-syzygy"]),
    ],
    ids=["gen", "syzygy-q", "weight", "flat-cert-s", "syzygy-a"],
)
def test_malformed_input_is_an_error_not_a_bug(tmp_path, text, argv):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = invoke([*argv, "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("dfan: error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gb", "--weight", "[1.5, 1]"], "--weight: bad rational '1.5'"),
        (["gb", "--weight", "[ 1 , 1e0 ]"], "--weight: bad rational '1e0'"),
        (["flat-cert", "--s", "[1/0,0]"], "--s: zero denominator in '1/0'"),
        (["flat-cert", "--cone", "[[1,0],[0,x]]"], "--cone: bad integer 'x'"),
    ],
    ids=["weight-decimal", "weight-exponent", "s", "cone"],
)
def test_flag_values_use_the_field_parsers_and_name_the_flag(argv, message):
    code, out, err = invoke([*argv, "--input", str(PROBLEMS / "euler.txt")])
    assert (code, out, err) == (3, "", f"dfan: error: {message}\n")


# one digit more than Python converts to an int by default
LONG = "1" + "0" * 4300
EULER = (PROBLEMS / "euler.txt").read_text()


@pytest.mark.parametrize(
    "text, argv",
    [
        (f"ring n=2 k=2 r=1\ngen: {LONG} x1\n", ["gb"]),
        (f"ring n=2 k=2 r=1\ngen: 1/{LONG} x1\n", ["gb"]),
        (f"ring n=2 k=2 r=1\ngen: x{LONG}\n", ["gb"]),
        (f"ring n=2 k=2 r=1\ngen: x1^{LONG}\n", ["gb"]),
        (f"ring n={LONG} k=2 r=1\ngen: x1\n", ["gb"]),
        (f"ring n=2 k=2 r=1\nshifts = [[0, {LONG}]]\ngen: x1\n", ["gb"]),
        (f"ring n=2 k=2 r=1\ngen: x1\ncone = [[{LONG}, 0], [0, 1]]\n", ["cones"]),
        (f"ring n=2 k=2 r=1\ngen: x1\nweight = [1/{LONG}, 1]\n", ["gb"]),
        (f"ring n=2 k=2 r=1\ngen: x1\nideal = W{LONG}\n", ["monomial-chain"]),
        (f"ring n=2 k=2 r=1\ngen: x1\ndegree_bound = {LONG}\n", ["gb"]),
        (SYZYGY.replace("n=2", f"n={LONG}"), ["normalize-syzygy"]),
        (SYZYGY.replace("[1, 0]", f"[{LONG}, 0]"), ["normalize-syzygy"]),
        (SYZYGY.replace("q: x1 d1 w2", f"q: {LONG} x1 d1 w2"), ["normalize-syzygy"]),
        (EULER, ["gb", f"--weight=[{LONG}, 1]"]),
        (EULER, ["flat-cert", f"--s=[0, -{LONG}]"]),
        (EULER, ["flat-cert", f"--cone=[[1, 0], [{LONG}, 1]]"]),
        (EULER, ["monomial-chain", f"--ideal=W1^{LONG}"]),
    ],
    ids=["coefficient", "denominator", "index", "exponent", "ring", "shifts",
         "cone", "weight", "ideal", "degree_bound", "syzygy", "syzygy-a",
         "syzygy-q", "--weight", "--s", "--cone", "--ideal"],
)
def test_a_number_past_the_int_conversion_limit_is_an_error(tmp_path, text, argv):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = invoke([*argv, "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("dfan: error:") and err.count("\n") == 1, err[:200]


# The command that reads each field, and the lines it needs besides.
FIELD_COMMANDS = {
    "weight": ("gb", ""),
    "cone": ("cones", ""),
    "ideal": ("monomial-chain", ""),
    "s": ("flat-cert", "cone = [[1, 0], [0, 1]]\nideal = W1\n"),
}


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(sorted(FIELD_COMMANDS)), field_texts())
def test_a_field_reads_the_same_from_a_file_line_and_a_flag(tmp_path, name, text):
    command, rest = FIELD_COMMANDS[name]
    head = "ring n=2 k=2 r=1\ngen: x1 d1 + x2 d2\n"
    (tmp_path / "line.txt").write_text(f"{head}{name} = {text}\n{rest}")
    (tmp_path / "flag.txt").write_text(head + rest)
    from_line = invoke([command, "--input", str(tmp_path / "line.txt")])
    from_flag = invoke([command, "--input", str(tmp_path / "flag.txt"), f"--{name}={text}"])
    if from_line != from_flag:
        code, out, err = from_flag
        prefix = f"dfan: error: --{name}: "
        assert code == 3 and out == "" and err.startswith(prefix), (from_line, from_flag)
        message = err[len(prefix):-1]
        assert from_line == (3, "", f"dfan: error: {message} (line 3)\n")


def test_q_line_error_carries_its_line(tmp_path):
    path = tmp_path / "syz.txt"
    path.write_text(SYZYGY.replace("q: x1 d1 w2", "q: x1 y2"))
    code, out, err = invoke(["normalize-syzygy", "--input", str(path)])
    assert (code, out, err) == (3, "", "dfan: error: unexpected input 'y2' (line 3)\n")


def test_ideal_line_error_carries_its_line(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("ring n=2 k=2 r=1\ngen: x1 d1\n\nideal = W3\n")
    code, out, err = invoke(["monomial-chain", "--input", str(path)])
    assert (code, out, err) == (
        3, "", "dfan: error: W3 out of range (k = 2) (line 4)\n"
    )


def test_ideal_flag_error_names_the_flag():
    code, out, err = invoke(["monomial-chain", "--k", "2", "--ideal", "W1, Q"])
    assert (code, out, err) == (3, "", "dfan: error: --ideal: bad W-monomial 'Q'\n")


@pytest.mark.parametrize(
    "command, problem, message",
    [
        ("fan", "syzygy1.txt", "unrecognized line 'syzygy n=2 k=2' (line 2, column 1)"),
        ("normalize-syzygy", "euler.txt",
         "unrecognized line 'ring n=2 k=2 r=1' (line 1, column 1)"),
    ],
)
def test_the_other_formats_header_is_an_unrecognized_line(command, problem, message):
    # it holds an '=', but what stands before it is no field name
    code, out, err = invoke([command, "--input", str(PROBLEMS / problem)])
    assert (code, out, err) == (3, "", f"dfan: error: {message}\n")


@pytest.mark.parametrize(
    "cone", ["[[1,0],[0,1],junk]", "[[1,0][0,1]]", "[[1,0],,[0,1]]"]
)
def test_matrix_must_be_a_comma_separated_list_of_rows(tmp_path, cone):
    code, out, err = invoke(["cones", "--cone", cone])
    assert code == 3 and out == ""
    assert err.startswith("dfan: error:") and err.count("\n") == 1
    path = tmp_path / "p.txt"
    path.write_text(f"ring n=2 k=2 r=1\ngen: x1 d1\ncone = {cone}\n")
    code, out, err = invoke(["cones", "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("dfan: error:") and err.count("\n") == 1


def test_syzygy_exponent_key_is_exactly_a(tmp_path):
    path = tmp_path / "syz.txt"
    path.write_text("syzygy n=1 k=1\nabba = [[0]]\nq: 0\n")
    code, out, err = invoke(["normalize-syzygy", "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("dfan: error:") and err.count("\n") == 1


@pytest.mark.parametrize("cone", ["[[1, 0], [0, 1]]", "[[1,2],[1,3]]"])
def test_benchmark_and_corpus_matrix_spellings_parse(tmp_path, cone):
    code, out, _ = invoke(["cones", "--cone", cone])
    assert code == 0 and "\ncones: basic\n" in out
    path = tmp_path / "p.txt"
    path.write_text(f"ring n=2 k=2 r=1\ngen: x1 d1\ncone = {cone}\n")
    assert invoke(["cones", "--input", str(path)])[0] == 0


def test_python_dash_m_dfan():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dfan", "gb", "--help"],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dfan gb")


def test_parse_error_exit_three(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ring n=2 k=2 r=1\ngen: x3\n")
    code, _, err = invoke(["gb", "--input", str(bad)])
    assert code == 3
    assert "x3 out of range" in err


def test_missing_syzygy_file_exit_three(tmp_path):
    absent = tmp_path / "absent.txt"
    code, out, err = invoke(["normalize-syzygy", "--input", str(absent)])
    assert code == 3 and out == ""
    assert err.startswith(f"dfan: error: cannot read {absent}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("gb", b"ring n=2 k=2 r=1\ngen: x1 \xff\n"),
        ("normalize-syzygy", b"syzygy n=2 k=2\na = [[1, 0]]\nq: x1 \xff\n"),
    ],
    ids=["problem", "syzygy"],
)
def test_a_file_that_is_not_utf8_exit_three(tmp_path, command, text):
    path = tmp_path / "f.txt"
    path.write_bytes(text)
    code, out, err = invoke([command, "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith(f"dfan: error: cannot read {path}: 'utf-8' codec can't decode")
    assert "internal error" not in err and err.count("\n") == 1


def test_bad_integer_field_exit_three(tmp_path):
    problem = tmp_path / "p.txt"
    problem.write_text("ring n=1 k=1 r=1\ngen: d1\ndegree_bound = abc\n")
    code, out, err = invoke(["gb", "--input", str(problem), "--weight", "[1]"])
    assert code == 3 and out == ""
    assert "degree_bound must be a nonnegative integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["flat-cert", "--input", str(PROBLEMS / "euler.txt"), "--degree-bound", "-1"],
        ["flat-cert", "--input", str(PROBLEMS / "euler.txt"), "--l-max", "-1"],
        ["fiber", "--input", str(PROBLEMS / "paper_fiber.txt"), "--bound", "-2"],
        ["monomial-chain", "--ideal", "W1", "--k", "-2"],
    ],
    ids=["degree-bound", "l-max", "bound", "k"],
)
def test_negative_integer_flag_exit_three(argv):
    # a negative truncation must not reach the math, where
    # --degree-bound -1 certifies vacuously and --bound -2 is inconclusive
    code, out, err = invoke(argv)
    assert code == 3 and out == ""
    assert f"argument {argv[-2]}: invalid nonnegative_int value: '{argv[-1]}'" in err


def test_run_calls_share_no_state():
    gb = ["gb", "--input", str(PROBLEMS / "euler.txt"), "--weight", "[1,1]"]
    code, out, _ = invoke(gb + ["--json"])
    assert code == 0 and json.loads(out)["command"] == "gb"
    text = invoke(gb)
    assert text[0] == 0 and "\nx1 d1 e1 + x2 d2 e1\n" in text[1]
    assert invoke(gb + ["--expect", "no"])[0] == 1
    assert invoke(["gb", "--no-such-flag"])[0] == 3
    assert invoke(gb) == text


def test_usage_error_reaches_run_stderr(capsys):
    code, out, err = invoke(["gb", "--bogus"])
    assert code == 3 and out == ""
    assert "unrecognized arguments: --bogus" in err
    assert capsys.readouterr().err == ""


def test_help_reaches_run_stdout(capsys):
    code, out, err = invoke(["gb", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: dfan gb")
    assert capsys.readouterr().out == ""


EULER_PATH = str(PROBLEMS / "euler.txt")

# The argv of the usage tests in this file, with the forms argparse
# accepts or refuses around them: no command, abbreviations, --flag=value,
# a missing value and stray arguments.
USAGE_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["fla"], ["--json", "gb"], ["gb"],
    ["gb", "--bogus"], ["gb", "--no-such-flag"], ["gb", "--help"], ["gb", "-h"],
    ["monomial-chain", "--ideal", "W1", "--k", "0"],
    ["monomial-chain", "--ideal", "W1", "--k", "-2"],
    ["flat-cert", "--input", EULER_PATH, "--degree-bound", "-1"],
    ["flat-cert", "--input", EULER_PATH, "--l-max", "-1"],
    ["fiber", "--input", EULER_PATH, "--bound", "-2"],
    ["flat-cert", "--input", EULER_PATH, "--deg", "3", "--l", "2"],
    ["flat-cert", f"--input={EULER_PATH}", "--degree-bound=5"],
    ["gb", "--weight=[1, 0]", "--input", EULER_PATH],
    ["gb", "--weight", "[1.5, 1]", "--input", EULER_PATH],
    ["flat-cert", "--s", "[1/0,0]", "--input", EULER_PATH],
    ["flat-cert", "--cone", "[[1,0],[0,x]]", "--input", EULER_PATH],
    ["gb", "--input", EULER_PATH, "--expect", "no"],
    ["gb", "--input", EULER_PATH, "stray"],
    ["gb", "--input"], ["divide", "--i", "x"], ["gb", "--", "x"],
    ["cones", "--cone", "[[1,0],[0,1]]", "--json", "--json"],
    ["fan", "--input", EULER_PATH, "--weight", "[1,0]"],
]


def full_parser_outcome(argv):
    """(exit code, vars of the namespace) from the full parser, the
    subcommand read from argv[0] and its arguments handed on."""
    parser = cli._build_parser()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return 0, vars(parser.parse_args(argv))
    except SystemExit as exc:
        return (3 if exc.code not in (0, None) else 0), None


def test_each_command_parses_as_under_the_full_parser(monkeypatch):
    from test_acceptance import CORPUS

    seen = []

    def record(args):
        seen.append(vars(args))
        return cli._report("recorded", args.expect or "ok", {})

    for name in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, name, record)
    corpus = [
        [str(PROBLEMS / a) if a.endswith(".txt") else a for a in argv] for argv in CORPUS
    ]
    for argv in corpus + USAGE_ARGVS:
        seen.clear()
        code = invoke(argv)[0]
        assert (code, seen[0] if seen else None) == full_parser_outcome(argv), argv


@pytest.mark.parametrize("argv, flag", [
    (["flat-cert", "--input", EULER_PATH, "--deg", "3"], "--deg 3"),
    (["gb", "--i", EULER_PATH], f"--i {EULER_PATH}"),
], ids=["flat-cert-deg", "gb-i"])
def test_a_prefix_of_a_flag_is_an_unknown_flag(argv, flag):
    # --deg once read as --degree-bound, and --i as --input wherever no
    # other flag of the command began with it
    code, out, err = invoke(argv)
    assert (code, out) == (3, "") and err.startswith(f"usage: dfan {argv[0]} [-h]")
    assert err.endswith(f"error: unrecognized arguments: {flag}\n")


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_each_command_prints_its_own_help(command):
    code, out, err = invoke([command, "--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: dfan {command} ")


def test_no_command_help_and_an_unknown_command_keep_their_exit_codes():
    assert [invoke(argv)[0] for argv in ([], ["--help"], ["bogus"])] == [3, 0, 3]
    code, out, err = invoke(["gb", "--bogus"])
    assert (code, out) == (3, "") and err.startswith("usage: dfan gb [-h]")
    assert err.endswith("dfan gb: error: unrecognized arguments: --bogus\n")


def handler_reads(handler):
    """The flags, by dest, that a command handler reads besides --input:
    each ``args.<dest>`` and each field name handed to ``_field``."""
    reads = set()
    for n in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(handler)))):
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "args":
            reads.add(n.attr)
        elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_field":
            reads.add(n.args[2].value)
    return reads - {"input"}


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_each_command_accepts_only_the_flags_it_reads(command):
    cli._build_parser()
    dests = {action.dest for action in cli._SUBPARSERS[command]._actions}
    assert dests - {"help", "input", "json", "expect"} == handler_reads(
        cli._HANDLERS[command]
    )


def test_a_flag_the_command_does_not_read_exits_three():
    # fiber reads --bound; --degree-bound is flat-cert's
    argv = ["fiber", "--input", str(PROBLEMS / "paper_fiber.txt")]
    assert invoke(argv)[0] == 0
    code, out, err = invoke(argv + ["--degree-bound", "6"])
    assert (code, out) == (3, "") and err.startswith("usage: dfan fiber [-h]")
    assert err.endswith("dfan fiber: error: unrecognized arguments: --degree-bound 6\n")


def test_internal_error_exit_three(monkeypatch):
    def broken(args):
        raise ValueError("bad\nstate")

    monkeypatch.setitem(cli._HANDLERS, "gb", broken)
    code, out, err = invoke(["gb", "--input", str(PROBLEMS / "euler.txt")])
    assert code == 3 and out == ""
    assert err == "dfan: internal error: ValueError: bad state\n"
    assert "Traceback" not in err


def test_monomial_chain_rejects_k_zero():
    code, out, err = invoke(["monomial-chain", "--ideal", "W1", "--k", "0"])
    assert code == 3 and out == ""
    assert "--k must be at least 1" in err


def test_divide_requires_target(tmp_path):
    problem = tmp_path / "p.txt"
    problem.write_text("ring n=1 k=1 r=1\ngen: d1\n")
    code, _, err = invoke(["divide", "--input", str(problem)])
    assert code == 3
    assert "target" in err


def test_normalize_syzygy():
    code, out, _ = invoke(
        ["normalize-syzygy", "--input", str(PROBLEMS / "syzygy1.txt")]
    )
    assert code == 0
    assert "normalized" in out


def test_monomial_chain_flags():
    code, out, _ = invoke(["monomial-chain", "--ideal", "W1^2,W2", "--k", "2"])
    assert code == 0
    assert "length: 2" in out


def test_cones_refinement():
    code, out, _ = invoke(["cones", "--cone", "[[1,0],[1,2]]"])
    assert code == 0
    assert "cones: refined" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--input", str(PROBLEMS / "euler.txt"), "--json"],
        ["fan", "--input", str(PROBLEMS / "threecone.txt"), "--json"],
        ["fiber", "--input", str(PROBLEMS / "paper_fiber.txt"), "--json"],
        ["flat-cert", "--input", str(PROBLEMS / "euler.txt"), "--json"],
        ["divide", "--input", str(PROBLEMS / "vector2.txt"), "--json"],
        ["normalize-syzygy", "--input", str(PROBLEMS / "syzygy1.txt"), "--json"],
        ["monomial-chain", "--ideal", "W1,W2^2", "--k", "2", "--json"],
        ["cones", "--cone", "[[1,2],[1,3]]", "--json"],
    ],
)
def test_json_reports_validate(argv):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    code, out, err = invoke(argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, schema)


def test_reports_are_deterministic():
    argv = ["fan", "--input", str(PROBLEMS / "threecone.txt"), "--json"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second


@st.composite
def mutated_problems(draw):
    """A file of problems/ with one to three spans of at most four
    characters each replaced by a grammar token or deleted."""
    name = draw(st.sampled_from(sorted(p.name for p in PROBLEMS.iterdir())))
    text = (PROBLEMS / name).read_text()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(("",) + FUZZ_TOKENS)) + text[j:]
    return text


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_problems())
def test_mutated_problems_keep_the_exit_code_contract(tmp_path, text):
    problem = tmp_path / "p.txt"
    problem.write_text(text)
    for command in cli._HANDLERS:
        code, out, err = invoke([command, "--input", str(problem), "--json"])
        assert code in (0, 1, 2, 3), (command, text)
        assert "internal error" not in err and "Traceback" not in err, (command, text, err)
        if code == 1:
            assert json.loads(out)["verdict"] in NEGATIVE_VERDICTS, (command, text)
