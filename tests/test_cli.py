"""Command-line behavior: exit codes, report emission, plot data, synth."""
import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from betasieve import __version__
from betasieve.cli import density_curve, main
from betasieve.special_functions import BetaParams

from helpers import count_posterior_calls

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


class TestDetectCommand:
    def test_concordant_set_exits_zero(self, runner):
        result = runner.invoke(main, ["detect", str(DATA / "mixed_scales.csv")])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["detection"]["fragmented"] is False
        assert report["detection"]["outliers"] == []
        assert report["method"] == "exact"
        assert report["grid_step"] is None
        assert report["tool_version"] == __version__

    def test_json_input_by_extension(self, runner):
        result = runner.invoke(main, ["detect", str(DATA / "mixed_scales.json")])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert [o["label"] for o in report["observations"]] == ["a", "b", "c", "d", "e"]

    def test_explicit_format_overrides_extension(self, runner, tmp_path):
        path = tmp_path / "obs.dat"
        path.write_text((DATA / "mixed_scales.json").read_text(), encoding="utf-8")
        result = runner.invoke(main, ["detect", str(path), "--format", "json"])
        assert result.exit_code == 0

    def test_fragmented_exits_three_after_writing(self, runner, tmp_path):
        out_path = tmp_path / "report.json"
        result = runner.invoke(
            main, ["detect", str(DATA / "fragmented_four.csv"), "--out", str(out_path)])
        assert result.exit_code == 3
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["detection"]["fragmented"] is True
        assert report["detection"]["kept"] == []
        assert report["detection"]["outliers"] == ["s3", "s0", "s1", "s2"]

    def test_too_few_exits_two(self, runner):
        result = runner.invoke(main, ["detect", str(DATA / "too_few.csv")])
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert "at least 4" in result.stderr

    def test_posteriors_built_once_per_observation(self, runner, tmp_path, monkeypatch):
        calls = count_posterior_calls(monkeypatch)
        result = runner.invoke(main, [
            "detect", str(DATA / "mixed_scales.csv"), "--pooled",
            "--plot-data", str(tmp_path / "plot.csv")])
        assert result.exit_code == 0
        assert calls == ["a", "b", "c", "d", "e"]

    def test_repeated_label_and_posterior_exits_two(self, runner, tmp_path):
        # the structural error (a repeated label) is reported before the
        # duplicate-posterior policy is applied
        path = tmp_path / "obs.csv"
        path.write_text("label,events,trials\na,5,10\na,5,10\nc,3,9\nd,6,8\n", encoding="utf-8")
        result = runner.invoke(main, ["detect", str(path)])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: labels must be unique within a set; 'a' appears more than once\n")

    def test_bad_row_exits_two_citing_line(self, runner):
        result = runner.invoke(main, ["detect", str(DATA / "bad_events.csv")])
        assert result.exit_code == 2
        assert "line 3" in result.stderr

    def test_duplicates_need_flag(self, runner):
        result = runner.invoke(main, ["detect", str(DATA / "planted_five.csv")])
        assert result.exit_code == 2
        assert "identical posteriors" in result.stderr

    def test_planted_grid_flags_remote_only(self, runner):
        result = runner.invoke(main, [
            "detect", str(DATA / "planted_five.csv"),
            "--allow-duplicates", "--method", "grid"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["detection"]["outliers"] == ["s4"]
        assert report["detection"]["kept"] == ["s0", "s1", "s2", "s3"]
        assert report["method"] == "grid"
        assert report["grid_step"] == 0.001

    def test_planted_exact_cascades(self, runner):
        # the quartet's mirror pairs tie exactly, so the cascade stops after
        # the remote observation, as under grid
        result = runner.invoke(main, [
            "detect", str(DATA / "planted_five.csv"), "--allow-duplicates"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["detection"]["fragmented"] is False
        assert report["detection"]["outliers"] == ["s4"]
        assert report["detection"]["kept"] == ["s0", "s1", "s2", "s3"]

    def test_pooled_flag(self, runner):
        result = runner.invoke(main, [
            "detect", str(DATA / "mixed_scales.csv"), "--pooled"])
        report = json.loads(result.stdout)
        # kept everyone: events sum 162, trials sum 325
        assert report["pooled"]["alpha"] == 163.0
        assert report["pooled"]["beta"] == 164.0

    @pytest.mark.parametrize("step", ["0", "-0.001", "0.05", "nan", "-1", "0.02"])
    def test_grid_step_out_of_range(self, runner, step):
        result = runner.invoke(main, [
            "detect", str(DATA / "mixed_scales.csv"), "--grid-step", step])
        assert result.exit_code == 2
        # the range check and its message are the evaluators' own
        assert f"step must lie in (0, 0.01], got {float(step)!r}" in result.stderr

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["detect", "nope.csv"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("row,cited", [
        ("d,10,20,1e308,1", "line 5"),         # ln B is inf - inf
        ("d,0,1" + "0" * 306 + ",,", "'d'"),   # 10**306 trials, uniform prior
        ("d,10,20,1e308,1e308", "line 5"),     # alpha + beta overflows
        ("d,0,1" + "0" * 309 + ",,", "'d'"),   # trials beyond the float range
    ], ids=["prior-1e308-1", "trials-1e306", "prior-1e308-1e308", "trials-1e309"])
    def test_shapes_without_finite_normaliser_exit_two(self, runner, tmp_path, row, cited):
        path = tmp_path / "obs.csv"
        path.write_text(
            "label,events,trials,prior_alpha,prior_beta\n"
            f"a,10,20,,\nb,11,20,,\nc,9,20,,\n{row}\n", encoding="utf-8")
        result = runner.invoke(main, ["detect", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:") and cited in result.stderr

    def test_extreme_accepted_shapes_run(self, runner, tmp_path):
        # priors down to 1e-300 and counts up to 1e9 keep a finite ln B
        path = tmp_path / "obs.csv"
        path.write_text(
            "label,events,trials,prior_alpha,prior_beta\n"
            "a,0,1000000000,0.001,0.001\n"
            "b,500000000,1000000000,1e-300,1e-300\n"
            "c,3,10,0.001,0.001\n"
            "d,7,10,1e-300,1e-300\n"
            "e,1000000000,1000000000,,\n", encoding="utf-8")
        result = runner.invoke(main, ["detect", str(path)])
        assert result.exit_code in (0, 3), result.output
        assert len(json.loads(result.stdout)["similarities"]) == 10


class TestPlotData:
    def test_curves_match_report(self, runner, tmp_path):
        plot_path = tmp_path / "curves.csv"
        out_path = tmp_path / "report.json"
        result = runner.invoke(main, [
            "detect", str(DATA / "planted_five.csv"),
            "--allow-duplicates", "--method", "grid",
            "--plot-data", str(plot_path), "--out", str(out_path)])
        assert result.exit_code == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        with open(plot_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5 * 1000
        by_label = {}
        for row in rows:
            by_label.setdefault(row["label"], []).append(row)
        assert set(by_label) == {"s0", "s1", "s2", "s3", "s4"}
        assert all(len(v) == 1000 for v in by_label.values())
        flagged = {lab for lab, rows_ in by_label.items()
                   if all(r["is_outlier"] == "true" for r in rows_)}
        unflagged = {lab for lab, rows_ in by_label.items()
                     if all(r["is_outlier"] == "false" for r in rows_)}
        assert flagged == set(report["detection"]["outliers"]) == {"s4"}
        assert flagged | unflagged == set(by_label)
        for row in rows[:100]:
            assert 0.0 < float(row["theta"]) < 1.0
            assert float(row["density"]) >= 0.0

    def test_density_curve_uniform(self):
        thetas, densities = density_curve(BetaParams(1, 1), 0.001)
        assert len(thetas) == 1000
        assert thetas[0] == pytest.approx(0.0005)
        assert thetas[-1] == pytest.approx(0.9995)
        assert all(d == pytest.approx(1.0, abs=1e-12) for d in densities)

    def test_density_curve_point_count_tracks_step(self):
        thetas, _ = density_curve(BetaParams(2, 2), 0.01)
        assert len(thetas) == 100

    def test_density_curve_never_touches_edges(self):
        thetas, densities = density_curve(BetaParams(1, 5), 0.001)
        # shape below 2 has a finite positive density everywhere inside
        assert min(thetas) > 0.0 and max(thetas) < 1.0
        assert all(d > 0.0 for d in densities)


class TestSynthCommand:
    def test_stdout_csv_matches_golden(self, runner):
        result = runner.invoke(main, ["synth", str(DATA / "campaign_biased.json")])
        assert result.exit_code == 0
        assert result.stdout == (DATA / "golden_biased.csv").read_text(encoding="utf-8")

    def test_out_file_matches_golden(self, runner, tmp_path):
        path = tmp_path / "obs.csv"
        result = runner.invoke(main, [
            "synth", str(DATA / "campaign_biased.json"), "--out", str(path)])
        assert result.exit_code == 0
        assert path.read_bytes() == (DATA / "golden_biased.csv").read_bytes()

    def test_json_output_inferred_from_extension(self, runner, tmp_path):
        path = tmp_path / "obs.json"
        result = runner.invoke(main, [
            "synth", str(DATA / "campaign_biased.json"), "--out", str(path)])
        assert result.exit_code == 0
        rows = json.loads(path.read_text(encoding="utf-8"))
        assert [r["label"] for r in rows] == ["arm01", "arm02", "arm03", "arm04", "arm05"]

    def test_explicit_format_beats_extension(self, runner, tmp_path):
        path = tmp_path / "obs.json"
        result = runner.invoke(main, [
            "synth", str(DATA / "campaign_biased.json"),
            "--format", "csv", "--out", str(path)])
        assert result.exit_code == 0
        assert path.read_text(encoding="utf-8").startswith("label,events,trials")

    def test_bad_campaign_exits_two(self, runner, tmp_path):
        path = tmp_path / "camp.json"
        path.write_text(json.dumps({
            "true_theta": 0.5, "seed": 0,
            "arms": [{"trials": 10}, {"trials": 10}, {"trials": 10}],
        }), encoding="utf-8")
        result = runner.invoke(main, ["synth", str(path)])
        assert result.exit_code == 2
        assert "at least 4 arms" in result.stderr

    def test_generated_table_reingests(self, runner, tmp_path):
        obs_path = tmp_path / "obs.csv"
        assert runner.invoke(main, [
            "synth", str(DATA / "campaign_biased.json"), "--out", str(obs_path),
        ]).exit_code == 0
        result = runner.invoke(main, ["detect", str(obs_path), "--method", "grid"])
        # this draw happens to cascade once the biased arm is gone
        assert result.exit_code == 3
        report = json.loads(result.stdout)
        assert report["detection"]["outliers"][0] == "arm05"


HUGE = "1" + "0" * 5000  # 5001 digits, past the 4300 that Python reads from text by default
TABLE = [{"label": "a", "events": 10, "trials": 20}, {"label": "b", "events": 11, "trials": 20},
         {"label": "c", "events": 9, "trials": 20}, {"label": "d", "events": 12, "trials": 20}]


class TestHugeIntegers:
    @pytest.mark.parametrize("command, text, message", [
        ("detect", json.dumps(TABLE[:3] + [dict(TABLE[3], prior_alpha=10**400, prior_beta=1)]),
         "error: entry 3: alpha must be a finite positive real, got an integer beyond the float range\n"),
        ("detect", json.dumps(TABLE).replace('"trials": 20}]', f'"trials": {HUGE}}}]'), "error: not valid JSON: "),
        ("synth", f'{{"true_theta": 0.5, "seed": {HUGE}, "arms": [{{"trials": 10}}]}}', "error: not valid JSON: "),
    ], ids=["table-prior-401-digits", "table-trials-5001-digits", "campaign-seed-5001-digits"])
    def test_exit_two_with_one_error_line(self, runner, tmp_path, command, text, message):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(main, [command, str(path)])
        assert result.exit_code == 2, result.exception
        assert result.stderr.startswith(message) and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "betasieve", "--help"],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0
        assert "detect" in proc.stdout and "synth" in proc.stdout

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.stdout

    def test_help_lists_exit_codes_in_detect(self, runner):
        result = runner.invoke(main, ["detect", "--help"])
        assert result.exit_code == 0
