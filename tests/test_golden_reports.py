"""Golden outcomes of `betasieve detect` on the tables under tests/data.

Each case is one CLI run.  Its golden file under tests/data/reports/ holds
the exit code, the stderr and, for runs that emit one, the JSON report.
Report fields that are not floats must match exactly, key order included;
floats must match within 1e-12 absolute, so a change that moves only the
last bits of an overlap keeps its goldens while any change of verdict,
label, order, count or message fails.  The ulp-level pins live in their
own tests.

To rewrite the goldens after an intended output change (and record why):

    PYTHONPATH=src python tests/test_golden_reports.py
"""
import json
import math
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from betasieve.cli import main
from betasieve.report import Report, report_schema

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "reports"
FLOAT_TOL = 1e-12

_VALID = ("fragmented_four.csv", "golden_biased.csv", "mixed_scales.csv", "mixed_scales.json")
CASES = {
    **{
        f"{name}.{method}": [name, "--method", method, "--pooled"]
        for name in _VALID
        for method in ("exact", "grid")
    },
    **{
        f"planted_five.csv.{method}.allow_duplicates":
            ["planted_five.csv", "--method", method, "--pooled", "--allow-duplicates"]
        for method in ("exact", "grid")
    },
    "too_few.csv": ["too_few.csv"],
    "bad_events.csv": ["bad_events.csv"],
    "planted_five.csv": ["planted_five.csv"],
    # 4950 pairs: past the pair count at which detection switches to the array evaluator
    "wide_hundred.csv.exact": ["wide_hundred.csv", "--method", "exact", "--pooled"],
}


def run_case(args):
    """Exit code, stderr and parsed report (None when stdout is empty) of one run."""
    result = CliRunner().invoke(main, ["detect", str(DATA / args[0]), *args[1:]])
    return {
        "exit_code": result.exit_code,
        "stderr": result.stderr,
        "report": json.loads(result.stdout) if result.stdout else None,
    }


def assert_matches(actual, expected, where="report"):
    """Floats within FLOAT_TOL absolute; everything else, types included, exactly."""
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: expected a float, got {actual!r}"
        assert math.isfinite(actual) and abs(actual - expected) <= FLOAT_TOL, (
            f"{where}: {actual!r} differs from golden {expected!r}")
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), (
            f"{where}: keys {list(actual) if isinstance(actual, dict) else actual!r} "
            f"differ from golden {list(expected)}")
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{where}: {actual!r} differs in shape from golden {expected!r}")
        for pos, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{pos}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} differs from golden {expected!r}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    golden = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert golden["args"] == CASES[case]
    outcome = run_case(CASES[case])
    assert outcome["exit_code"] == golden["exit_code"]
    assert outcome["stderr"] == golden["stderr"]
    assert (outcome["report"] is None) == (golden["report"] is None)
    if golden["report"] is not None:
        assert_matches(outcome["report"], golden["report"])


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def golden_report(case):
    return json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))["report"]


REPORTED = [case for case in sorted(CASES) if golden_report(case) is not None]


@pytest.mark.parametrize("case", REPORTED)
def test_golden_report_validates_and_reloads(case):
    # the loader must accept every report the CLI writes, and lose nothing of it
    report = golden_report(case)
    jsonschema.validate(report, report_schema())
    assert json.dumps(Report.from_dict(report).to_dict()) == json.dumps(report)


def test_golden_reports_cover_every_report_shape():
    reports = [golden_report(case) for case in REPORTED]
    assert any(r["detection"]["fragmented"] for r in reports)
    assert any(r["method"] == "grid" for r in reports)
    assert any(r["pooled"] is not None for r in reports)
    assert any("duplicate posteriors retained" in w for r in reports for w in r["warnings"])


class TestAssertMatches:
    def test_float_within_tolerance_passes(self):
        assert_matches({"v": [0.5 + 5e-13]}, {"v": [0.5]})

    @pytest.mark.parametrize("actual, expected", [
        ({"v": 0.5 + 1e-11}, {"v": 0.5}),
        ({"v": 1}, {"v": 1.0}),
        ({"v": float("nan")}, {"v": 0.5}),
        ({"v": "a"}, {"v": "b"}),
        ({"v": [1, 2]}, {"v": [1]}),
        ({"w": 1, "v": 1}, {"v": 1, "w": 1}),
        ({"v": None}, {"v": 0.5}),
    ])
    def test_differences_fail(self, actual, expected):
        with pytest.raises(AssertionError):
            assert_matches(actual, expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, args in CASES.items():
        outcome = run_case(args)
        text = json.dumps({"args": args, **outcome}, indent=2) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
