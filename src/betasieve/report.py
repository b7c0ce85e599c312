"""The detection report: everything a run saw, decided, and warned about.

A report round-trips losslessly through JSON (``to_dict``/``from_dict``)
and the JSON shape is pinned by ``schemas/report.schema.json`` shipped
with the package.  ``from_dict`` trusts none of it.  It reads the inputs
(header, observations, similarities, warnings) for their structure, rebuilds
the report from them as a detection run would, and requires the rebuilt
report to equal the given one.  The first difference raises
:class:`InputFormatError` naming its place, such as ``cohesion min`` or
``round 2 checklist entry 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from operator import index
from statistics import median
from typing import Sequence

from . import __version__
from .detection import DetectionOutcome, detect
from .errors import InputFormatError, ValidationError, _check_list, _check_object
from .formats import observation_from_dict, observation_to_dict
from .posterior import Observation, ObservationSet, validate_set
from .similarity import PairSimilarity, _check_step
from .special_functions import BetaParams

__all__ = [
    "CohesionSummary",
    "PooledPosterior",
    "Report",
    "build_report",
    "cohesion_summary",
    "pooled_posterior",
    "report_schema",
]

POOLING_NOTE = "assumes the kept observations are exchangeable"
POOLING_OMITTED = "pooled posterior omitted: the set is fragmented"


@dataclass(frozen=True)
class CohesionSummary:
    """Spread of the pairwise similarities over the full input set."""

    min: float
    median: float
    max: float


@dataclass(frozen=True)
class PooledPosterior:
    alpha: float
    beta: float
    note: str = POOLING_NOTE


@dataclass(frozen=True)
class Report:
    tool_version: str
    method: str
    grid_step: float | None
    observations: tuple[Observation, ...]
    posteriors: tuple[BetaParams, ...]
    similarities: tuple[PairSimilarity, ...]
    cohesion: CohesionSummary
    outcome: DetectionOutcome
    pooled: PooledPosterior | None
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        labels = [o.label for o in self.observations]
        return {
            "tool_version": self.tool_version,
            "method": self.method,
            "grid_step": self.grid_step,
            "observations": [observation_to_dict(o) for o in self.observations],
            "posteriors": [
                {"label": lab, "alpha": post.alpha, "beta": post.beta}
                for lab, post in zip(labels, self.posteriors)
            ],
            "similarities": [
                {
                    "i": ps.i,
                    "j": ps.j,
                    "label_i": labels[ps.i],
                    "label_j": labels[ps.j],
                    "value": ps.value,
                }
                for ps in self.similarities
            ],
            "cohesion": {
                "min": self.cohesion.min,
                "median": self.cohesion.median,
                "max": self.cohesion.max,
            },
            "detection": {
                "fragmented": self.outcome.fragmented,
                "kept": [o.label for o in self.outcome.kept],
                "outliers": [o.label for o in self.outcome.outliers],
                "trace": [
                    {
                        "surviving": list(rnd.surviving_labels),
                        "checklist": [
                            {"i": ps.i, "j": ps.j, "value": ps.value}
                            for ps in rnd.checklist.entries
                        ],
                        "checklist_counts": dict(rnd.checklist_counts),
                        "removed": rnd.removed,
                    }
                    for rnd in self.outcome.trace
                ],
                "warnings": list(self.outcome.warnings),
            },
            "pooled": (
                None
                if self.pooled is None
                else {"alpha": self.pooled.alpha, "beta": self.pooled.beta, "note": self.pooled.note}
            ),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: object) -> "Report":
        tool_version, method, grid_step, rows, _, entries, _, _, pooled, warnings = _check_object(
            data, "report", ("tool_version", "method", "grid_step", "observations", "posteriors",
                             "similarities", "cohesion", "detection", "pooled", "warnings"))
        for value, where in (rows, "observations"), (entries, "similarities"), (warnings, "warnings"):
            _check_list(value, where)
        if not isinstance(tool_version, str):
            raise InputFormatError(f"tool_version: must be a string, got {tool_version!r}")
        if method not in ("exact", "grid"):
            raise InputFormatError(f"method: must be 'exact' or 'grid', got {method!r}")
        if method == "grid":
            try:
                grid_step = _check_step(grid_step)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputFormatError(f"grid_step: {exc}") from exc
        observations = [observation_from_dict(o, f"entry {pos}") for pos, o in enumerate(rows)]
        similarities = [_pair(s, f"similarity entry {pos}") for pos, s in enumerate(entries)]
        try:
            obs_set = validate_set(observations, allow_duplicates=True)
        except ValidationError as exc:
            raise InputFormatError(f"observations: {exc}") from exc
        try:
            outcome = detect(obs_set, pairs=similarities)
        except ValueError as exc:
            raise InputFormatError(f"similarities: {exc}") from exc
        pooled_requested = pooled is not None or POOLING_OMITTED in warnings
        rebuilt = replace(build_report(obs_set, outcome, similarities, method, grid_step, pooled_requested),
                          tool_version=tool_version)
        _compare(data, rebuilt.to_dict(), "report")
        return rebuilt


def _pair(entry: object, where: str) -> PairSimilarity:
    i, j, value = _check_object(entry, where, ("i", "j", "value"), ("label_i", "label_j"))
    try:
        return PairSimilarity(index(i), index(j), value)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


# How a place names what it holds, where not as "<place> <field>" or "<place> entry <n>".
_CHILD_PREFIX = {"report": "", "detection": "detection.", "observations": "entry ", "posteriors": "posterior entry ",
                 "similarities": "similarity entry ", "detection.trace": "round "}


def _compare(given: object, expected: object, where: str) -> None:
    """Raise InputFormatError at the first place where `given` differs from `expected`."""
    if isinstance(expected, dict):
        prefix = _CHILD_PREFIX.get(where, f"{where} ")
        for (name, want), got in zip(expected.items(), _check_object(given, where, tuple(expected))):
            _compare(got, want, prefix + name)
    elif isinstance(expected, list):
        if len(_check_list(given, where)) != len(expected):
            raise InputFormatError(f"{where}: length {len(given)} where the evidence gives {len(expected)}")
        prefix = _CHILD_PREFIX.get(where, f"{where} entry ")
        for pos, (got, want) in enumerate(zip(given, expected)):
            _compare(got, want, f"{prefix}{pos}")
    elif given != expected or isinstance(given, bool) != isinstance(expected, bool):
        # a bool is no number here: JSON keeps them apart, and False == 0 in Python
        raise InputFormatError(f"{where}: {given!r} where the evidence gives {expected!r}")


def cohesion_summary(similarities: Sequence[PairSimilarity]) -> CohesionSummary:
    """min/median/max of the full pairwise similarity list."""
    values = [ps.value for ps in similarities]
    return CohesionSummary(min=min(values), median=float(median(values)), max=max(values))


def pooled_posterior(kept: Sequence[Observation]) -> PooledPosterior:
    """Posterior of the pooled kept counts under a single uniform prior."""
    if not kept:
        raise ValidationError("cannot pool an empty kept set")
    events = sum(o.events for o in kept)
    trials = sum(o.trials for o in kept)
    return PooledPosterior(alpha=float(events + 1), beta=float(trials - events + 1))


def build_report(
    obs_set: ObservationSet,
    outcome: DetectionOutcome,
    similarities: Sequence[PairSimilarity],
    method: str,
    grid_step: float | None,
    pooled_requested: bool = False,
) -> Report:
    """Assemble the full report for one detection run."""
    warnings = list(outcome.warnings)
    pooled = None
    if pooled_requested:
        if outcome.fragmented:
            warnings.append(POOLING_OMITTED)
        else:
            pooled = pooled_posterior(outcome.kept)
    return Report(
        tool_version=__version__,
        method=method,
        grid_step=grid_step if method == "grid" else None,
        observations=obs_set.observations,
        posteriors=obs_set.posteriors,
        similarities=tuple(similarities),
        cohesion=cohesion_summary(similarities),
        outcome=outcome,
        pooled=pooled,
        warnings=tuple(warnings),
    )


def report_schema() -> dict:
    """The JSON schema the report dictionary conforms to."""
    text = resources.files("betasieve").joinpath("schemas/report.schema.json").read_text("utf-8")
    return json.loads(text)
