"""Command-line front end.

Exit codes are part of the contract so pipelines can gate on them:

* 0 -- run completed (with or without outliers),
* 2 -- the input failed validation or could not be parsed,
* 3 -- run completed but the set is fragmented,
* 1 -- internal error.
"""

from __future__ import annotations

import csv
from pathlib import Path

import click

from . import __version__
from .detection import DetectionOutcome, detect as run_detection, similarity_list
from .errors import ValidationError
from .formats import detect_format, read_campaign, read_observations, render_observations
from .posterior import ObservationSet
from .report import build_report
from .similarity import _check_step, density_curve
from .special_functions import log_beta_pdf  # noqa: F401 -- unused; perfbench/tracing.py wraps it
from .synth import generate

__all__ = ["main", "emit_plot_data", "plot_data_rows", "density_curve"]


def _check_grid_step(ctx: click.Context, param: click.Parameter, value: float) -> float:
    try:
        return _check_step(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="betasieve")
def main() -> None:
    """Screen repeated sampling results for outliers via posterior overlap."""


@main.command("detect")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="Input table format; default is inferred from the extension.")
@click.option("--method", type=click.Choice(["exact", "grid"]), default="exact",
              show_default=True, help="Overlap evaluator.")
@click.option("--grid-step", type=float, default=0.001, show_default=True,
              callback=_check_grid_step,
              help="Step for the grid evaluator and for --plot-data curves.")
@click.option("--allow-duplicates", is_flag=True,
              help="Keep observations whose posteriors coincide (warned, not rejected).")
@click.option("--pooled", is_flag=True,
              help="Add the pooled posterior of the kept observations to the report.")
@click.option("--plot-data", "plot_path", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Also write per-observation density curves to this CSV file.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write the JSON report here instead of stdout.")
def detect_command(
    input_path: Path,
    fmt: str | None,
    method: str,
    grid_step: float,
    allow_duplicates: bool,
    pooled: bool,
    plot_path: Path | None,
    out_path: Path | None,
) -> None:
    """Read an observation table, screen it, and emit a JSON report."""
    try:
        obs_set = read_observations(input_path, fmt, allow_duplicates=allow_duplicates)
        similarities = similarity_list(obs_set, method=method, grid_step=grid_step)
        outcome = run_detection(obs_set, method=method, grid_step=grid_step, pairs=similarities)
        report = build_report(obs_set, outcome, similarities, method, grid_step, pooled)
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)
    text = report.to_json()
    if out_path is None:
        click.echo(text, nl=False)
    else:
        out_path.write_text(text, encoding="utf-8")
    if plot_path is not None:
        emit_plot_data(obs_set, outcome, grid_step, plot_path)
    if outcome.fragmented:
        raise SystemExit(3)


@main.command("synth")
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="Output table format; default is inferred from --out, else csv.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Write the observation table here instead of stdout.")
def synth_command(spec_path: Path, fmt: str | None, out_path: Path | None) -> None:
    """Generate a reproducible observation table from a campaign spec."""
    try:
        spec = read_campaign(spec_path)
        obs_set = generate(spec)
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)
    text = render_observations(obs_set, detect_format(out_path or "", fmt))
    if out_path is None:
        click.echo(text, nl=False)
    else:
        out_path.write_text(text, encoding="utf-8")


def plot_data_rows(obs_set: ObservationSet, outcome: DetectionOutcome, grid_step: float):
    """Long-format rows (label, theta, density, is_outlier), one curve per observation."""
    outlier_labels = {o.label for o in outcome.outliers}
    for obs, post in zip(obs_set.observations, obs_set.posteriors):
        flag = "true" if obs.label in outlier_labels else "false"
        thetas, densities = density_curve(post, grid_step)
        for theta, density in zip(thetas, densities):
            yield (obs.label, repr(theta), repr(density), flag)


def emit_plot_data(
    obs_set: ObservationSet, outcome: DetectionOutcome, grid_step: float, path: Path | str
) -> None:
    """Write the plot-data table for a finished run to a CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["label", "theta", "density", "is_outlier"])
        writer.writerows(plot_data_rows(obs_set, outcome, grid_step))
