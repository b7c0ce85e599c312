"""Reading and writing observation tables and campaign specs.

Observation tables come in two interchangeable shapes:

* CSV with a header row, columns ``label,events,trials`` and optionally
  ``prior_alpha,prior_beta`` (both or neither per row; empty cells mean
  the uniform prior);
* JSON as an array of objects with the same field names.

:func:`observation_to_dict` and :func:`observation_from_dict` are the one
codec of such a row; the report's ``observations`` entries use it too.

``parse_observations(render_observations(s)) == s`` for any valid set.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from .errors import InputFormatError, ValidationError, _check_object
from .posterior import Observation, ObservationSet, UNIFORM_PRIOR, validate_set
from .special_functions import BetaParams
from .synth import CampaignSpec

__all__ = [
    "detect_format",
    "observation_from_dict",
    "observation_to_dict",
    "parse_observations",
    "render_observations",
    "read_observations",
    "write_observations",
    "read_campaign",
]

_BASE_COLUMNS = ("label", "events", "trials")
_PRIOR_COLUMNS = ("prior_alpha", "prior_beta")


def detect_format(path: Path | str, fmt: str | None = None) -> str:
    """Resolve an explicit or extension-implied table format."""
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise InputFormatError(f"format must be 'csv' or 'json', got {fmt!r}")
        return fmt
    return "json" if str(path).lower().endswith(".json") else "csv"


def read_observations(path: Path | str, fmt: str | None = None, allow_duplicates: bool = False) -> ObservationSet:
    fmt = detect_format(path, fmt)
    text = Path(path).read_text(encoding="utf-8")
    return parse_observations(text, fmt, allow_duplicates=allow_duplicates)


def write_observations(obs: ObservationSet | Sequence[Observation], path: Path | str, fmt: str | None = None) -> None:
    fmt = detect_format(path, fmt)
    Path(path).write_text(render_observations(obs, fmt), encoding="utf-8")


def parse_observations(text: str, fmt: str, allow_duplicates: bool = False) -> ObservationSet:
    """Parse an observation table and validate it into a set."""
    if fmt == "csv":
        observations = _parse_csv(text)
    elif fmt == "json":
        observations = _parse_json(text)
    else:
        raise InputFormatError(f"format must be 'csv' or 'json', got {fmt!r}")
    return validate_set(observations, allow_duplicates=allow_duplicates)


def render_observations(obs: ObservationSet | Sequence[Observation], fmt: str) -> str:
    """Serialize observations to CSV or JSON text (prior columns always explicit)."""
    if isinstance(obs, ObservationSet):
        obs = obs.observations
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_BASE_COLUMNS + _PRIOR_COLUMNS)
        # csv writes a float as str(), which is repr() for floats
        writer.writerows(observation_to_dict(o).values() for o in obs)
        return buffer.getvalue()
    if fmt == "json":
        return json.dumps([observation_to_dict(o) for o in obs], indent=2) + "\n"
    raise InputFormatError(f"format must be 'csv' or 'json', got {fmt!r}")


def _parse_csv(text: str) -> list[Observation]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputFormatError("empty input: expected a CSV header row") from None
    header = [cell.strip() for cell in header]
    if tuple(header) == _BASE_COLUMNS:
        with_priors = False
    elif tuple(header) == _BASE_COLUMNS + _PRIOR_COLUMNS:
        with_priors = True
    else:
        raise InputFormatError(
            "line 1: expected header 'label,events,trials' or "
            f"'label,events,trials,prior_alpha,prior_beta', got {','.join(header)!r}"
        )
    observations = []
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        expected = 5 if with_priors else 3
        if len(row) != expected:
            raise InputFormatError(f"line {line}: expected {expected} fields, got {len(row)}")
        label = row[0].strip()
        events = _parse_int(row[1], "events", line)
        trials = _parse_int(row[2], "trials", line)
        prior = UNIFORM_PRIOR
        if with_priors:
            prior = _parse_prior(row[3], row[4], line)
        try:
            observations.append(Observation(label=label, events=events, trials=trials, prior=prior))
        except ValidationError as exc:
            raise InputFormatError(f"line {line}: {exc}") from exc
    return observations


def _parse_int(cell: str, field: str, line: int) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise InputFormatError(f"line {line}: {field} must be an integer, got {cell.strip()!r}") from None


def _parse_prior(alpha_cell: str, beta_cell: str, line: int) -> BetaParams:
    alpha_cell, beta_cell = alpha_cell.strip(), beta_cell.strip()
    if not alpha_cell and not beta_cell:
        return UNIFORM_PRIOR
    if not alpha_cell or not beta_cell:
        raise InputFormatError(
            f"line {line}: prior_alpha and prior_beta must be given together"
        )
    try:
        return BetaParams(float(alpha_cell), float(beta_cell))
    except ValueError as exc:
        raise InputFormatError(f"line {line}: {exc}") from exc


def _parse_json(text: str) -> list[Observation]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InputFormatError(f"expected a JSON array of observations, got {type(data).__name__}")
    return [observation_from_dict(entry, pos) for pos, entry in enumerate(data)]


def observation_to_dict(obs: Observation) -> dict:
    """One observation row by column name, prior always explicit."""
    values = (obs.label, obs.events, obs.trials, obs.prior.alpha, obs.prior.beta)
    return dict(zip(_BASE_COLUMNS + _PRIOR_COLUMNS, values))


def observation_from_dict(entry: object, pos: int) -> Observation:
    """One observation from its JSON object; errors cite it as entry `pos`."""
    label, events, trials = _check_object(entry, f"entry {pos}", _BASE_COLUMNS, _PRIOR_COLUMNS)
    if ("prior_alpha" in entry) != ("prior_beta" in entry):
        raise InputFormatError(f"entry {pos}: prior_alpha and prior_beta must be given together")
    prior = UNIFORM_PRIOR
    try:
        if "prior_alpha" in entry:
            prior = BetaParams(entry["prior_alpha"], entry["prior_beta"])
        return Observation(label, events, trials, prior)
    except (ValueError, ValidationError) as exc:
        raise InputFormatError(f"entry {pos}: {exc}") from exc


def read_campaign(path: Path | str) -> CampaignSpec:
    """Load a campaign spec from a JSON file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    return CampaignSpec.from_dict(data)
