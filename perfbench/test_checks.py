"""Tests of the benchmark's own checks: each must reject one planted fault.

    python3 -m pytest perfbench/test_checks.py

The outputs under test are made by the real program on small inputs built
the way the workloads build theirs; the oracle is compared with mpmath.
"""

import json
import sys
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from betasieve.cli import main as cli_main  # noqa: E402
from betasieve.report import report_schema  # noqa: E402


def mp_overlap(a1, b1, a2, b2):
    """Overlap at 30 digits: mpmath quadrature of min(p, q), split at the crossings
    (found by mpmath root bracketing) and around each density's bulk."""
    with mpmath.workdps(30):
        shapes = [(mpmath.mpf(a1), mpmath.mpf(b1)), (mpmath.mpf(a2), mpmath.mpf(b2))]

        def logpdf(t, a, b):
            return (a - 1) * mpmath.log(t) + (b - 1) * mpmath.log1p(-t) - mpmath.log(mpmath.beta(a, b))

        def diff(t):
            return logpdf(t, *shapes[0]) - logpdf(t, *shapes[1])

        du, dv = shapes[0][0] - shapes[1][0], shapes[0][1] - shapes[1][1]
        probes = [mpmath.mpf("1e-30")]
        if du * dv > 0:
            probes.append(du / (du + dv))
        probes.append(1 - mpmath.mpf("1e-30"))
        points = {mpmath.mpf(0), mpmath.mpf(1)}
        for lo, hi in zip(probes, probes[1:]):
            if diff(lo) * diff(hi) < 0:
                points.add(mpmath.findroot(diff, (lo, hi), solver="anderson"))
        for a, b in shapes:
            mean, sd = a / (a + b), mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
            points.update(mean + c * sd for c in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)
                          if 0 < mean + c * sd < 1)
        total = mpmath.quad(lambda t: mpmath.exp(min(logpdf(t, *shapes[0]), logpdf(t, *shapes[1]))),
                            sorted(points))
        return float(total)


@pytest.mark.parametrize("pair", [
    (51, 51, 52, 50),            # mirror-image neighbours, one crossing
    (101, 901, 5001, 45001),     # wide against narrow: two crossings
    (3, 40, 40, 3),              # far apart
    (1001, 1001, 11, 11),        # same centre, different widths
    (30001, 70001, 3101, 6901),  # trial counts at the benchmark's upper decade
])
def test_oracle_agrees_with_mpmath(pair):
    oracle = checks.exact_overlaps(*(np.array([x], dtype=float) for x in pair))[0]
    assert oracle == pytest.approx(mp_overlap(*pair), abs=1e-12)


def test_midpoint_count_and_grid_points():
    assert checks.midpoint_count(0.001) == 1000
    assert len(checks.grid_points(0.001)) == 999


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "table.csv"
    workloads.write_table(workloads.table_rows(7, 0, 12), path)
    return path


def run_detect(table, tmp_path, *extra):
    report = tmp_path / "report.json"
    result = CliRunner().invoke(cli_main, ["detect", str(table), "--out", str(report), *extra])
    assert result.exit_code in (0, 3), result.output
    return json.loads(report.read_text()), result.exit_code


@pytest.fixture
def validator():
    schema = report_schema()
    return jsonschema.validators.validator_for(schema)(schema)


@pytest.mark.parametrize("method", ["exact", "grid"])
def test_report_check_passes_then_catches_one_perturbed_overlap(table, tmp_path, validator, method):
    report, code = run_detect(table, tmp_path, "--method", method)
    failures, _, info = checks.check_report("t", report, table, code, validator)
    assert failures == [] and info["pairs"] == 66
    report["similarities"][17]["value"] += 1e-6
    failures, _, _ = checks.check_report("t", report, table, code, validator)
    assert any("off the oracle" in f for f in failures)


def test_report_check_catches_a_swapped_verdict(table, tmp_path, validator):
    report, code = run_detect(table, tmp_path)
    det = report["detection"]
    assert det["outliers"] and det["kept"], "the planted biased row should be the only removal"
    det["outliers"][0], det["kept"][0] = det["kept"][0], det["outliers"][0]
    det["trace"][0]["removed"] = det["outliers"][0]
    failures, _, _ = checks.check_report("t", report, table, code, validator)
    assert any("differs from the cascade" in f for f in failures)
    assert any("misses a checklist pair" in f for f in failures)


def test_report_check_catches_a_wrong_exit_code(table, tmp_path, validator):
    report, code = run_detect(table, tmp_path)
    failures, _, _ = checks.check_report("t", report, table, 3 - code, validator)
    assert any("exit code" in f for f in failures)


def test_plot_check_catches_a_truncated_file(table, tmp_path):
    plot = tmp_path / "plot.csv"
    report, _ = run_detect(table, tmp_path, "--method", "grid", "--plot-data", str(plot))
    assert checks.check_plot("t", plot, report, 0.001) == []
    lines = plot.read_text().splitlines(keepends=True)
    plot.write_text("".join(lines[:-10]))
    assert any("plot rows" in f for f in checks.check_plot("t", plot, report, 0.001))


def campaign_records(count):
    workload = workloads.CampaignWorkload(5)
    records = []
    for index in range(count):
        record = workload.prepare(index, index)
        workload.run(record)
        records.append(json.loads(json.dumps(workload.finish(record))))
    return records


def test_campaign_check_catches_a_perturbed_overlap_and_a_swapped_verdict():
    records = campaign_records(20)
    failures, _, info = checks.check_campaigns(records)
    assert failures == [] and info["first_biased"] == 20
    records[3]["pairs"][2][2] += 1e-6
    assert any("off the oracle" in f for f in checks.check_campaigns(records)[0])
    records = campaign_records(20)
    rec = next(r for r in records if len(r["outliers"]) >= 2)
    rec["outliers"][0], rec["outliers"][1] = rec["outliers"][1], rec["outliers"][0]
    failures = checks.check_campaigns(records)[0]
    assert any("differs from the cascade" in f for f in failures)
    assert any("first removal in only 19/20" in f for f in failures)
