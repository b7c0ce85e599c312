"""Iterative outlier screening over a set of Beta posteriors.

The procedure is threshold-free.  For a set of k observations it
computes all pairwise posterior overlaps, collects the k-1 least similar
pairs into a checklist, and counts for each observation how many
checklist pairs involve it.  An observation sitting in *every* checklist
pair is maximally estranged from the rest and is removed; the round then
repeats on the survivors (pairwise overlaps never change, so they are
computed once).  Screening stops when no observation dominates the
checklist, or when only three observations remain -- from three onward
removal can no longer distinguish anyone, so such a set is reported as
*fragmented*: there is no coherent majority, and every observation is
flagged.

Ties in the overlap values are resolved deterministically (ascending
value, then ascending index pair) for the reported checklist.  An
observation is only nominated for removal when it dominates under every
ordering consistent with the values, so a verdict never hinges on the
arbitrary part of a tie; when that suppresses a nomination, a warning
says so.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import Sequence

from .posterior import Observation, ObservationSet, posterior_of
from .similarity import PairSimilarity, _check_step, overlap_exact
from .similarity import overlap_grid  # noqa: F401 -- unused; perfbench/tracing.py wraps it
from .special_functions import BetaParams

__all__ = [
    "Checklist",
    "IterationTrace",
    "DetectionOutcome",
    "similarity_list",
    "build_checklist",
    "checklist_count",
    "find_outlier",
    "detect",
]

#: Observation count at which screening stops and declares fragmentation.
FRAGMENT_FLOOR = 3

_RANK = attrgetter("value", "i", "j")
_VALUE = attrgetter("value")

#: Exact pair count from which the array evaluator replaces the scalar loop
#: (measured: the two cost the same near 45 pairs, k = 10, and the scalar
#: loop is over twice as fast at k = 5), and the most pairs one array call
#: takes (measured on 100-row tables: 512-pair blocks take a third less time
#: than 256 at the same peak resident set; 1024 adds 0.5 MB for 30% less).
_ARRAY_MIN_PAIRS = 45
_BLOCK_PAIRS = 512


@dataclass(frozen=True)
class Checklist:
    """The k-1 least similar pairs of the current round, ascending."""

    entries: tuple[PairSimilarity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))


@dataclass(frozen=True)
class IterationTrace:
    """What one screening round saw and decided."""

    surviving_labels: tuple[str, ...]
    checklist: Checklist
    checklist_counts: dict[str, int]
    removed: str | None


@dataclass(frozen=True)
class DetectionOutcome:
    """Final screening verdict for an observation set.

    ``outliers`` lists removed observations in removal order.  When the
    set is fragmented, ``kept`` is empty and every observation appears in
    ``outliers`` (the three final survivors are appended in the order the
    removal cascade would have taken them).
    """

    kept: tuple[Observation, ...]
    outliers: tuple[Observation, ...]
    fragmented: bool
    trace: tuple[IterationTrace, ...]
    warnings: tuple[str, ...] = field(default=())


def similarity_list(
    obs_set: ObservationSet, method: str = "exact", grid_step: float = 0.001
) -> tuple[PairSimilarity, ...]:
    """All k(k-1)/2 pairwise overlaps, ordered lexicographically by (i, j)."""
    return _pairwise(obs_set.posteriors, method, grid_step)


def _pairwise(
    posteriors: Sequence[BetaParams], method: str, grid_step: float
) -> tuple[PairSimilarity, ...]:
    """All pairs in (i, j) order, from the scalar loop below `_ARRAY_MIN_PAIRS` exact pairs, else the array evaluator of `method`."""
    if method not in ("exact", "grid"):
        raise ValueError(f"method must be 'exact' or 'grid', got {method!r}")
    k = len(posteriors)
    if method == "exact" and k * (k - 1) // 2 < _ARRAY_MIN_PAIRS:
        values = [overlap_exact(p, q) for p, q in combinations(posteriors, 2)]
    else:
        from . import _arrays  # numpy is imported on the first set that needs arrays

        values = (_arrays.grid_pairs(posteriors, _check_step(grid_step)) if method == "grid"
                  else _arrays.exact_pairs(posteriors, _BLOCK_PAIRS))
    return tuple(PairSimilarity(i, j, v) for (i, j), v in zip(combinations(range(k), 2), values))


def build_checklist(pairs: Sequence[PairSimilarity], k: int) -> Checklist:
    """The k-1 smallest similarities of a full pair list.

    Ties are broken by ascending (i, j) so the checklist is a pure
    function of the values.
    """
    return Checklist(tuple(_ranked(pairs, k)[: k - 1]))


def _ranked(pairs: Sequence[PairSimilarity], k: int) -> list[PairSimilarity]:
    """`pairs` in `_RANK` order; a list that does not hold each (i, j), i < j < k, exactly once raises."""
    ranked = sorted(pairs, key=_RANK)
    if k < 2 or sorted((ps.i, ps.j) for ps in ranked) != list(combinations(range(k), 2)):
        raise ValueError(f"pair list of length {len(ranked)} does not match a set of {k} observations")
    return ranked


def checklist_count(label: str, checklist: Checklist, labels: Sequence[str]) -> int:
    """How many checklist pairs involve the observation carrying `label`.

    `labels` maps original set indices to labels.  A count of k-1 --
    membership in every checklist pair -- is the removal condition.
    """
    labels = list(labels)
    try:
        index = labels.index(label)
    except ValueError:
        raise ValueError(f"unknown label {label!r}") from None
    return sum(1 for ps in checklist.entries if ps.involves(index))


def find_outlier(
    observations: Sequence[Observation] | ObservationSet,
    method: str = "exact",
    grid_step: float = 0.001,
) -> str | None:
    """Label of the observation a single screening round would remove, if any.

    Defined for any collection of two or more labeled observations; for
    sets of four or more the nominee, when one exists, is unique.
    """
    if isinstance(observations, ObservationSet):
        obs, posteriors = observations.observations, observations.posteriors
    else:
        obs = tuple(observations)
        if len(obs) < 2:
            raise ValueError(f"need at least 2 observations, got {len(obs)}")
        if len({o.label for o in obs}) != len(obs):
            raise ValueError("labels must be unique")
        posteriors = [posterior_of(o) for o in obs]
    labels = [o.label for o in obs]
    ranked = _ranked(_pairwise(posteriors, method, grid_step), len(obs))
    nominee, _, _, _ = _screen_round(ranked, list(range(len(obs))), labels)
    return labels[nominee] if nominee is not None else None


def _screen_round(
    ranked: Sequence[PairSimilarity], members: list[int], labels: Sequence[str]
) -> tuple[int | None, Checklist, dict[str, int], list[str]]:
    """One screening round over `members` (original indices into `labels`).

    `ranked` holds the members' pairs, and only theirs, in `_RANK` order.
    Returns (nominated index or None, checklist, per-label checklist
    counts, warnings).  The nominee must sit in every pair whose value is
    within the checklist's value range, so the decision is independent of
    how ties were ordered.
    """
    k = len(members)
    checklist = Checklist(tuple(ranked[: k - 1]))
    boundary = checklist.entries[-1].value
    # `ranked` is sorted, so the pairs at or below the boundary are a prefix
    eligible = ranked[: bisect_right(ranked, boundary, lo=k - 1, key=_VALUE)]

    warnings: list[str] = []
    if len(eligible) > k - 1:
        tied = eligible[bisect_left(eligible, boundary, hi=k - 1, key=_VALUE):]
        pretty = ", ".join(f"({labels[ps.i]}, {labels[ps.j]})" for ps in tied)
        warnings.append(
            f"checklist boundary tie at similarity {boundary!r}: membership among "
            f"{pretty} was settled by index order"
        )

    tally = Counter(m for ps in checklist.entries for m in (ps.i, ps.j))
    counts = {labels[m]: tally[m] for m in members}

    # Nominate only if some observation sits in *every* pair at or below the
    # boundary value; such a nominee dominates any tie-consistent checklist.
    # Two distinct pairs share at most one index, so only a lone pair leaves two.
    common = set.intersection(*({ps.i, ps.j} for ps in eligible))
    nominee = common.pop() if len(common) == 1 else None
    if nominee is None:
        stranded = [lab for lab, c in counts.items() if c == k - 1]
        if stranded:
            warnings.append(
                f"nomination withheld: {', '.join(sorted(stranded))} reached the removal "
                f"count only through tie-dependent checklist membership"
            )
    return nominee, checklist, counts, warnings


def detect(
    obs_set: ObservationSet,
    method: str = "exact",
    grid_step: float = 0.001,
    pairs: Sequence[PairSimilarity] | None = None,
) -> DetectionOutcome:
    """Screen a validated set, removing one dominating outlier per round.

    Pairwise overlaps are computed once up front; rounds only reselect the
    pairs among the survivors.  Stops as soon as a round nominates nobody
    (the survivors are the kept set) or when three observations remain
    (the set is fragmented and every observation is flagged).

    `pairs` accepts a precomputed `similarity_list` for the same set and
    method, sparing callers that need the full list anyway a second pass.
    """
    if pairs is None:
        pairs = similarity_list(obs_set, method=method, grid_step=grid_step)
    ranked = _ranked(pairs, obs_set.k)
    labels = list(obs_set.labels)
    members = list(range(obs_set.k))
    removed: list[int] = []
    trace: list[IterationTrace] = []
    warnings = list(obs_set.warnings)

    while True:
        nominee, checklist, counts, round_warnings = _screen_round(ranked, members, labels)
        if len(members) == FRAGMENT_FLOOR:
            break  # the floor round is not traced; its nominee only orders the tail
        warnings.extend(round_warnings)
        trace.append(
            IterationTrace(
                surviving_labels=tuple(labels[m] for m in members),
                checklist=checklist,
                checklist_counts=counts,
                removed=labels[nominee] if nominee is not None else None,
            )
        )
        if nominee is None:
            break
        members.remove(nominee)
        removed.append(nominee)
        ranked = [ps for ps in ranked if not ps.involves(nominee)]

    fragmented = len(members) == FRAGMENT_FLOOR
    if fragmented:
        # Order the last three by the cascade that would have consumed them:
        # the floor round's nominee, then input order (the sort is stable).
        removed += sorted(members, key=lambda m: m != nominee)
        members = []

    obs = obs_set.observations
    outcome = DetectionOutcome(
        kept=tuple(obs[i] for i in members),
        outliers=tuple(obs[i] for i in removed),
        fragmented=fragmented,
        trace=tuple(trace),
        warnings=tuple(warnings),
    )
    assert len(outcome.kept) + len(outcome.outliers) == obs_set.k
    return outcome
