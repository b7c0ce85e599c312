"""Deterministic synthetic sampling campaigns.

Fixtures and power studies need data that is bit-for-bit reproducible
across machines and library versions, so this module rolls its own
randomness from first principles instead of deferring to a platform RNG:

* the generator is splitmix64 (Steele, Lea & Flood's mixing constants,
  the same ones used by java.util.SplittableRandom): state advances by
  the 64-bit golden ratio 0x9E3779B97F4A7C15 and each output is the
  state mixed by two xor-shift-multiply rounds (0xBF58476D1CE4E5B9,
  0x94D049BB133111EB) and a final 31-bit xor-shift;
* uniforms take the top 53 bits of one output: (z >> 11) * 2**-53;
* binomial draws invert the CDF by walking the probability mass from
  m = 0 upward until the cumulative mass exceeds one uniform.  To keep
  the walk's starting mass (1-p)**n representable for any n, trials are
  consumed in chunks of at most 1000 (one uniform per chunk, in order)
  and a probability above one half is flipped to counting failures.

Every step above is fixed by this documentation; two runs with the same
campaign spec produce identical observation tables anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputFormatError, ValidationError, _check_object
from .posterior import Observation, ObservationSet, validate_set

__all__ = ["Arm", "CampaignSpec", "SplitMix64", "sample_binomial", "generate"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_CHUNK = 1000


class SplitMix64:
    """splitmix64 pseudo-random generator over a 64-bit state."""

    def __init__(self, seed: int) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed <= _MASK64:
            raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed}")
        self._state = seed

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of one output."""
        return (self.next_uint64() >> 11) * 2.0**-53


def sample_binomial(rng: SplitMix64, trials: int, prob: float) -> int:
    """One Binomial(trials, prob) draw by explicit CDF inversion."""
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if not 0.0 < prob < 1.0:
        raise ValidationError(f"prob must lie in (0, 1), got {prob!r}")
    if prob > 0.5:
        return trials - sample_binomial_raw(rng, trials, 1.0 - prob)
    return sample_binomial_raw(rng, trials, prob)


def sample_binomial_raw(rng: SplitMix64, trials: int, prob: float) -> int:
    total = 0
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, _CHUNK)
        total += _invert_binomial_cdf(rng.next_float(), chunk, prob)
        remaining -= chunk
    return total


def _invert_binomial_cdf(u: float, n: int, p: float) -> int:
    # p <= 0.5 and n <= _CHUNK keep pmf(0) = (1-p)**n comfortably inside
    # double range, and the recurrence only ever scales upward from there.
    pmf = (1.0 - p) ** n
    cdf = pmf
    ratio = p / (1.0 - p)
    m = 0
    while u >= cdf and m < n:
        pmf *= (n - m) * ratio / (m + 1.0)
        m += 1
        cdf += pmf
    return m


@dataclass(frozen=True)
class Arm:
    """One arm of a campaign: a number of trials, optionally biased."""

    trials: int
    bias_theta: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) or self.trials < 1:
            raise ValidationError(f"arm trials must be an integer >= 1, got {self.trials!r}")
        if self.bias_theta is not None:
            b = self.bias_theta
            if isinstance(b, bool) or not isinstance(b, (int, float)) or not 0.0 < float(b) < 1.0:
                raise ValidationError(f"bias_theta must lie in (0, 1), got {b!r}")
            object.__setattr__(self, "bias_theta", float(b))


@dataclass(frozen=True)
class CampaignSpec:
    """A reproducible sampling campaign: shared truth, arms, and a seed."""

    true_theta: float
    arms: tuple[Arm, ...]
    seed: int

    def __post_init__(self) -> None:
        t = self.true_theta
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 < float(t) < 1.0:
            raise ValidationError(f"true_theta must lie in (0, 1), got {t!r}")
        object.__setattr__(self, "true_theta", float(t))
        object.__setattr__(self, "arms", tuple(self.arms))
        if len(self.arms) < 4:
            raise ValidationError(f"a campaign needs at least 4 arms, got {len(self.arms)}")
        if any(not isinstance(a, Arm) for a in self.arms):
            raise ValidationError("arms must be Arm instances")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise ValidationError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    def effective_theta(self, index: int) -> float:
        bias = self.arms[index].bias_theta
        return self.true_theta if bias is None else bias

    def to_dict(self) -> dict:
        arms = []
        for arm in self.arms:
            entry: dict = {"trials": arm.trials}
            if arm.bias_theta is not None:
                entry["bias_theta"] = arm.bias_theta
            arms.append(entry)
        return {"true_theta": self.true_theta, "seed": self.seed, "arms": arms}

    @classmethod
    def from_dict(cls, data: object) -> "CampaignSpec":
        true_theta, seed, raw_arms = _check_object(data, "campaign spec", ("true_theta", "seed", "arms"))
        if not isinstance(raw_arms, list):
            raise InputFormatError("campaign 'arms' must be an array")
        arms = []
        for pos, entry in enumerate(raw_arms):
            (trials,) = _check_object(entry, f"arm {pos}", ("trials",), ("bias_theta",))
            try:
                arms.append(Arm(trials, entry.get("bias_theta")))
            except ValidationError as exc:
                raise InputFormatError(f"arm {pos}: {exc}") from exc
        try:
            return cls(true_theta, tuple(arms), seed)
        except ValidationError as exc:
            raise InputFormatError(str(exc)) from exc


def generate(spec: CampaignSpec) -> ObservationSet:
    """Draw one observation per arm, in order, from a single seeded stream.

    Labels are arm01, arm02, ... in arm order.  Identical event counts on
    equal-sized arms are a perfectly normal outcome here, so duplicate
    posteriors are retained (with the usual warning on the set).
    """
    rng = SplitMix64(spec.seed)
    observations = []
    width = max(2, len(str(len(spec.arms))))
    for index, arm in enumerate(spec.arms):
        events = sample_binomial(rng, arm.trials, spec.effective_theta(index))
        observations.append(
            Observation(label=f"arm{index + 1:0{width}d}", events=events, trials=arm.trials)
        )
    return validate_set(observations, allow_duplicates=True)
