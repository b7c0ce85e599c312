"""Observations and their Beta posteriors.

An observation is a count of events out of a number of independent
trials.  Under a Beta(prior) on the unknown event probability the
posterior is again a Beta whose shapes are plain sums, so the conversion
below is integer-exact bookkeeping until the final float shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicatePosteriorError, TooFewObservationsError, ValidationError
from .special_functions import BetaParams

__all__ = ["UNIFORM_PRIOR", "Observation", "ObservationSet", "posterior_of", "validate_set"]

UNIFORM_PRIOR = BetaParams(1.0, 1.0)

# Smallest set size the screening procedure is defined for.
MIN_OBSERVATIONS = 4


@dataclass(frozen=True)
class Observation:
    """One sampling result: `events` successes out of `trials` tries."""

    label: str
    events: int
    trials: int
    prior: BetaParams = UNIFORM_PRIOR

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValidationError(f"label must be a nonempty string, got {self.label!r}")
        for name in ("events", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r} (label {self.label!r})")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials} (label {self.label!r})")
        if not 0 <= self.events <= self.trials:
            raise ValidationError(
                f"events must lie in [0, trials]; got events={self.events}, "
                f"trials={self.trials} (label {self.label!r})"
            )
        if not isinstance(self.prior, BetaParams):
            raise ValidationError(f"prior must be BetaParams, got {self.prior!r} (label {self.label!r})")


@dataclass(frozen=True)
class ObservationSet:
    """A validated, ordered collection of observations and their posteriors.

    ``posteriors`` holds one :class:`BetaParams` per observation, computed
    once when the set is built.  Build these through :func:`validate_set`,
    which also applies the duplicate-posterior policy and records any
    warnings.
    """

    observations: tuple[Observation, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if len(self.observations) < MIN_OBSERVATIONS:
            raise TooFewObservationsError(
                f"need at least {MIN_OBSERVATIONS} observations, got {len(self.observations)}"
            )
        labels = [obs.label for obs in self.observations]
        if len(set(labels)) != len(labels):
            seen: set[str] = set()
            dup = next(lab for lab in labels if lab in seen or seen.add(lab))
            raise ValidationError(f"labels must be unique within a set; {dup!r} appears more than once")
        posteriors = tuple(posterior_of(obs) for obs in self.observations)
        object.__setattr__(self, "posteriors", posteriors)  # not a field: eq, repr skip it

    @property
    def k(self) -> int:
        return len(self.observations)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(obs.label for obs in self.observations)


def posterior_of(observation: Observation) -> BetaParams:
    """Posterior Beta shapes for one observation.

    alpha = events + prior.alpha and beta = (trials - events) + prior.beta,
    so with the default uniform prior an observation (N, n) maps to
    Beta(N + 1, n - N + 1).  The sums are exact in float arithmetic for
    any realistic count; a posterior without a finite ln B raises
    :class:`ValidationError`.
    """
    try:
        alpha = observation.events + observation.prior.alpha
        beta = (observation.trials - observation.events) + observation.prior.beta
        return BetaParams(alpha, beta)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"posterior of {observation.label!r}: {exc}") from None


def validate_set(observations, allow_duplicates: bool = False) -> ObservationSet:
    """Validate a collection of observations and freeze it into a set.

    Rejects sets smaller than four and, by default, sets in which two
    observations collapse to identical posterior parameters (their overlap
    is 1 by definition, which silently dilutes the screening).  With
    ``allow_duplicates=True`` such sets are accepted and a warning is
    attached instead.
    """
    obs_set = ObservationSet(observations)
    by_posterior: dict[tuple[float, float], list[str]] = {}
    for o, post in zip(obs_set.observations, obs_set.posteriors):
        by_posterior.setdefault((post.alpha, post.beta), []).append(o.label)
    collisions = {shapes: labs for shapes, labs in by_posterior.items() if len(labs) > 1}
    if collisions:
        described = "; ".join(
            f"Beta({_fmt(a)}, {_fmt(b)}) shared by {', '.join(labs)}"
            for (a, b), labs in sorted(collisions.items())
        )
        if not allow_duplicates:
            raise DuplicatePosteriorError(
                f"observations with identical posteriors: {described} "
                f"(pass allow_duplicates to keep them)"
            )
        # the set is not yet shared, so the warning is attached in place
        object.__setattr__(obs_set, "warnings", (f"duplicate posteriors retained: {described}",))
    return obs_set


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(x)
