"""The detection report: everything a run saw, decided, and warned about.

A report round-trips losslessly through JSON (``to_dict``/``from_dict``)
and the JSON shape is pinned by ``schemas/report.schema.json`` shipped
with the package.  ``from_dict`` trusts none of it: each object of the
report must be an object with no unknown and no missing field, each
array an array, the posteriors must be those of the observations, the
similarities must hold each pair once and name its two observations, and
every label that the detection block or a round names must be an
observation's (a round's removal one of its survivors, its counts keyed
by exactly those).  Any other input raises :class:`InputFormatError` naming the place, such as
``cohesion`` or ``round 2 checklist entry 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from operator import index
from statistics import median
from typing import Sequence

from . import __version__
from .detection import Checklist, DetectionOutcome, IterationTrace, _check_pairs
from .errors import InputFormatError, ValidationError, _check_list, _check_object
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
    def from_dict(cls, data: object) -> "Report":
        tool_version, method, grid_step, rows, given, entries, cohesion, det, pooled, warnings = _check_object(
            data, "report", ("tool_version", "method", "grid_step", "observations", "posteriors",
                             "similarities", "cohesion", "detection", "pooled", "warnings"))
        for value, where in (rows, "observations"), (given, "posteriors"), (entries, "similarities"), (warnings, "warnings"):
            _check_list(value, where)
        observations = tuple(observation_from_dict(o, pos) for pos, o in enumerate(rows))
        labels = [o.label for o in observations]
        posteriors = tuple(posterior_of(o) for o in observations)
        if len(given) != len(posteriors):
            raise InputFormatError(f"{len(given)} posterior entries for {len(posteriors)} observations")
        for pos, (entry, obs, post) in enumerate(zip(given, observations, posteriors)):
            if _check_object(entry, f"posterior entry {pos}", ("label", "alpha", "beta")) != [obs.label, post.alpha, post.beta]:
                raise InputFormatError(
                    f"posterior entry {pos}: {entry['label']!r} Beta({entry['alpha']!r}, {entry['beta']!r}) "
                    f"does not match observation {obs.label!r}, whose posterior is {post}")
        similarities = tuple(
            _pair(s, f"similarity entry {pos}", ("i", "j", "label_i", "label_j", "value")) for pos, s in enumerate(entries))
        try:
            _check_pairs(similarities, len(labels))
        except ValueError as exc:
            raise InputFormatError(f"similarities: {exc}") from exc
        for pos, (entry, ps) in enumerate(zip(entries, similarities)):
            if [entry["label_i"], entry["label_j"]] != [labels[ps.i], labels[ps.j]]:
                raise InputFormatError(f"similarity entry {pos}: labels {entry['label_i']!r}, {entry['label_j']!r} "
                                       f"do not match observations {labels[ps.i]!r}, {labels[ps.j]!r}")
        fragmented, kept, outliers, trace, det_warnings = _check_object(
            det, "detection", ("fragmented", "kept", "outliers", "trace", "warnings"))
        _check_list(trace, "detection.trace")
        _check_list(det_warnings, "detection.warnings")
        by_label = {o.label: o for o in observations}
        outcome = DetectionOutcome(
            kept=_labelled(kept, by_label, "detection.kept"),
            outliers=_labelled(outliers, by_label, "detection.outliers"),
            fragmented=fragmented,
            trace=tuple(_round(r, f"round {n}", by_label) for n, r in enumerate(trace)),
            warnings=tuple(det_warnings),
        )
        cohesion = CohesionSummary(*_check_object(cohesion, "cohesion", ("min", "median", "max")))
        if pooled is not None:
            pooled = PooledPosterior(*_check_object(pooled, "pooled", ("alpha", "beta", "note")))
        return cls(tool_version, method, grid_step, observations, posteriors, similarities, cohesion, outcome,
                   pooled, tuple(warnings))


def _labelled(labels: Sequence[str], by_label: dict[str, Observation], where: str) -> tuple[Observation, ...]:
    for pos, label in enumerate(_check_list(labels, where)):
        if not isinstance(label, str) or label not in by_label:
            raise InputFormatError(f"{where} entry {pos}: unknown label {label!r}")
    return tuple(by_label[label] for label in labels)


def _pair(entry: object, where: str, names: tuple[str, ...] = ("i", "j", "value")) -> PairSimilarity:
    i, j, *_, value = _check_object(entry, where, names)
    try:
        return PairSimilarity(index(i), index(j), value)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _round(entry: object, where: str, by_label: dict[str, Observation]) -> IterationTrace:
    surviving, checklist, counts, removed = _check_object(
        entry, where, ("surviving", "checklist", "checklist_counts", "removed"))
    surviving = tuple(o.label for o in _labelled(surviving, by_label, f"{where} surviving"))
    if removed is not None and removed not in surviving:
        raise InputFormatError(f"{where}: removed label {removed!r} is not among the survivors")
    checklist = _check_list(checklist, f"{where} checklist")
    checklist = Checklist(tuple(_pair(e, f"{where} checklist entry {pos}") for pos, e in enumerate(checklist)))
    counts = dict(zip(surviving, _check_object(counts, f"{where} checklist_counts", surviving)))
    return IterationTrace(surviving, checklist, counts, removed)


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
