"""Reading and writing observation tables and campaign specs.

Observation tables come in two interchangeable shapes:

* CSV with a header row, columns ``label,events,trials`` and optionally
  ``prior_alpha,prior_beta`` (both or neither per row; empty cells mean
  the uniform prior);
* JSON as an array of objects with the same field names.

:func:`observation_to_dict` and :func:`observation_from_dict` are the one
codec of such a row.  A CSV row is typed cell by cell, leaving empty prior
cells out, and then decoded like a JSON row or a report's ``observations``
entry, so one problem gets one message, prefixed by its place.

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
    if tuple(header) not in (_BASE_COLUMNS, _BASE_COLUMNS + _PRIOR_COLUMNS):
        raise InputFormatError(
            "line 1: expected header 'label,events,trials' or "
            f"'label,events,trials,prior_alpha,prior_beta', got {','.join(header)!r}"
        )
    observations = []
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != len(header):
            raise InputFormatError(f"line {line}: expected {len(header)} fields, got {len(row)}")
        entry = {"label": row[0].strip(), "events": _parse_cell(row[1], "events", int, line),
                 "trials": _parse_cell(row[2], "trials", int, line)}
        for name, cell in zip(_PRIOR_COLUMNS, row[3:]):
            if cell.strip():  # an empty prior cell means the uniform prior
                entry[name] = _parse_cell(cell, name, float, line)
        observations.append(observation_from_dict(entry, f"line {line}"))
    return observations


def _parse_cell(cell: str, name: str, kind: type, line: int) -> int | float:
    try:
        return kind(cell.strip())
    except ValueError:
        noun = "an integer" if kind is int else "a real number"
        raise InputFormatError(f"line {line}: {name} must be {noun}, got {cell.strip()!r}") from None


def _parse_json(text: str) -> list[Observation]:
    data = _load_json(text)
    if not isinstance(data, list):
        raise InputFormatError(f"expected a JSON array of observations, got {type(data).__name__}")
    return [observation_from_dict(entry, f"entry {pos}") for pos, entry in enumerate(data)]


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise InputFormatError(f"not valid JSON: {exc}") from exc


def observation_to_dict(obs: Observation) -> dict:
    """One observation row by column name, prior always explicit."""
    values = (obs.label, obs.events, obs.trials, obs.prior.alpha, obs.prior.beta)
    return dict(zip(_BASE_COLUMNS + _PRIOR_COLUMNS, values))


def observation_from_dict(entry: object, where: str) -> Observation:
    """One observation from its row object; errors cite it at `where`, such as ``line 3`` or ``entry 2``."""
    label, events, trials = _check_object(entry, where, _BASE_COLUMNS, _PRIOR_COLUMNS)
    if ("prior_alpha" in entry) != ("prior_beta" in entry):
        raise InputFormatError(f"{where}: prior_alpha and prior_beta must be given together")
    prior = UNIFORM_PRIOR
    try:
        if "prior_alpha" in entry:
            prior = BetaParams(entry["prior_alpha"], entry["prior_beta"])
        return Observation(label, events, trials, prior)
    except (ValueError, ValidationError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def read_campaign(path: Path | str) -> CampaignSpec:
    """Load a campaign spec from a JSON file."""
    return CampaignSpec.from_dict(_load_json(Path(path).read_text(encoding="utf-8")))
