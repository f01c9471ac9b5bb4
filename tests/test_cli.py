import io
import json
from pathlib import Path

import pytest

from dfan import cli
from dfan.cli import run

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
