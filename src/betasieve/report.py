"""The detection report: everything a run saw, decided, and warned about.

A report round-trips losslessly through JSON (``to_dict``/``from_dict``)
and the JSON shape is pinned by ``schemas/report.schema.json`` shipped
with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from statistics import median
from typing import Sequence

from . import __version__
from .detection import Checklist, DetectionOutcome, IterationTrace
from .errors import InputFormatError, ValidationError
from .formats import observation_from_dict, observation_to_dict
from .posterior import Observation, ObservationSet, posterior_of
from .similarity import PairSimilarity
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
    def from_dict(cls, data: dict) -> "Report":
        observations = tuple(
            observation_from_dict(o, pos) for pos, o in enumerate(data["observations"])
        )
        posteriors = tuple(posterior_of(o) for o in observations)
        given = data["posteriors"]
        if len(given) != len(posteriors):
            raise InputFormatError(f"{len(given)} posterior entries for {len(posteriors)} observations")
        for pos, (entry, obs, post) in enumerate(zip(given, observations, posteriors)):
            if _fields(entry, ("label", "alpha", "beta"), f"posterior entry {pos}") != [obs.label, post.alpha, post.beta]:
                raise InputFormatError(
                    f"posterior entry {pos}: {entry['label']!r} Beta({entry['alpha']!r}, {entry['beta']!r}) "
                    f"does not match observation {obs.label!r}, whose posterior is {post}")
        similarities = tuple(
            _pair(s, f"similarity entry {pos}") for pos, s in enumerate(data["similarities"])
        )
        det = data["detection"]
        trace = tuple(
            IterationTrace(
                surviving_labels=tuple(r["surviving"]),
                checklist=Checklist(
                    tuple(_pair(e, f"round {n} checklist entry {pos}") for pos, e in enumerate(r["checklist"]))
                ),
                checklist_counts=dict(r["checklist_counts"]),
                removed=r["removed"],
            )
            for n, r in enumerate(det["trace"])
        )
        by_label = {o.label: o for o in observations}
        outcome = DetectionOutcome(
            kept=_labelled(det["kept"], by_label, "detection.kept"),
            outliers=_labelled(det["outliers"], by_label, "detection.outliers"),
            fragmented=det["fragmented"],
            trace=trace,
            warnings=tuple(det["warnings"]),
        )
        pooled = data["pooled"]
        return cls(
            tool_version=data["tool_version"],
            method=data["method"],
            grid_step=data["grid_step"],
            observations=observations,
            posteriors=posteriors,
            similarities=similarities,
            cohesion=CohesionSummary(**data["cohesion"]),
            outcome=outcome,
            pooled=None if pooled is None else PooledPosterior(**pooled),
            warnings=tuple(data["warnings"]),
        )


def _fields(entry: object, names: tuple[str, ...], where: str) -> list:
    """The named fields of a JSON object, in order; a missing one raises InputFormatError citing `where`."""
    if not isinstance(entry, dict):
        raise InputFormatError(f"{where}: must be an object")
    missing = [name for name in names if name not in entry]
    if missing:
        raise InputFormatError(f"{where}: missing fields: {', '.join(missing)}")
    return [entry[name] for name in names]


def _labelled(labels: Sequence[str], by_label: dict[str, Observation], where: str) -> tuple[Observation, ...]:
    for pos, label in enumerate(labels):
        if label not in by_label:
            raise InputFormatError(f"{where} entry {pos}: unknown label {label!r}")
    return tuple(by_label[label] for label in labels)


def _pair(entry: object, where: str) -> PairSimilarity:
    try:
        return PairSimilarity(*_fields(entry, ("i", "j", "value"), where))
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


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
            warnings.append("pooled posterior omitted: the set is fragmented")
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
