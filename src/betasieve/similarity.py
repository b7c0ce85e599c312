"""Overlap similarity between two Beta posteriors.

The similarity of two distributions is the area shared by their density
curves, ``integral of min(p(theta), q(theta)) over (0, 1)`` -- 1 for
identical posteriors, 0 for disjoint ones.  Two evaluators are provided:

* :func:`overlap_exact` locates the (at most two) points where the two
  densities cross and sums exact CDF increments of whichever density is
  smaller between consecutive crossings.  Absolute error is at the level
  of the CDF evaluation, ~1e-13.
* :func:`overlap_grid` is a fixed-step left Riemann sum of the pointwise
  minimum, the straightforward evaluation this tool's results are often
  checked against.  Error is O(step).

:func:`density_curve` gives the ``--plot-data`` curves from the same
vectorised log-density as :func:`overlap_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special_functions import BetaParams, beta_cdf, log_beta_pdf
from .special_functions import log_beta  # noqa: F401 -- unused; perfbench/tracing.py wraps it

__all__ = [
    "DegeneratePairError",
    "PairSimilarity",
    "crossing_points",
    "density_curve",
    "overlap_exact",
    "overlap_grid",
]

_EDGE = 1e-12          # probe offset from the open interval's ends
_ROOT_WIDTH = 1e-13    # bisection stops once the bracket is this narrow


class DegeneratePairError(ValueError):
    """The two distributions are identical, so there is no crossing to find."""


@dataclass(frozen=True)
class PairSimilarity:
    """Overlap value for the observation pair (i, j), i < j, of a set."""

    i: int
    j: int
    value: float

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got i={self.i}, j={self.j}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"similarity must lie in [0, 1], got {self.value!r}")

    def involves(self, index: int) -> bool:
        return index == self.i or index == self.j


def crossing_points(p: BetaParams, q: BetaParams) -> list[float]:
    """Points in (0, 1) where the two densities are equal, sorted ascending.

    The log-density difference d(theta) has at most one interior turning
    point (its derivative (a1-a2)/theta - (b1-b2)/(1-theta) has at most
    one zero), so d is monotone on each side of that point and a sign
    check at the segment ends brackets every root.  Each bracket is then
    bisected down to a width of 1e-13.  A tangential touch, where d does
    not change sign, counts as no crossing.

    Raises :class:`DegeneratePairError` for identical parameters.
    """
    if p == q:
        raise DegeneratePairError(f"distributions are identical: {p}")
    du = p.alpha - q.alpha
    dv = p.beta - q.beta
    dc = q.log_norm - p.log_norm

    def diff(t: float) -> float:
        return dc + du * math.log(t) + dv * math.log1p(-t)

    probes = [_EDGE]
    if du != 0.0 and dv != 0.0 and (du > 0.0) == (dv > 0.0):
        turn = du / (du + dv)
        if _EDGE < turn < 1.0 - _EDGE:
            probes.append(turn)
    probes.append(1.0 - _EDGE)

    values = [diff(t) for t in probes]
    roots: list[float] = []
    for idx in range(len(probes) - 1):
        lo, hi = probes[idx], probes[idx + 1]
        f_lo, f_hi = values[idx], values[idx + 1]
        if f_lo == 0.0:
            roots.append(lo)
            continue
        if f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0):
            roots.append(_bisect(diff, lo, hi, f_lo))
    if values[-1] == 0.0:
        roots.append(probes[-1])
    assert len(roots) <= 2, "a pair of Beta densities cannot cross more than twice"
    return roots


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    """Shrink a sign-change bracket to _ROOT_WIDTH and return its midpoint."""
    for _ in range(200):
        if hi - lo <= _ROOT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def overlap_exact(p: BetaParams, q: BetaParams) -> float:
    """Shared area under the two densities, via crossings and CDF increments.

    Between consecutive crossing points one of the densities is smaller
    throughout, so its CDF increment over the subinterval is the exact
    contribution to the shared area.  Identical parameters short-circuit
    to 1.  The result is symmetric in its arguments bit for bit.
    """
    if p == q:
        return 1.0
    cuts = [0.0, *crossing_points(p, q), 1.0]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        lp = log_beta_pdf(mid, p)
        lq = log_beta_pdf(mid, q)
        if lp == lq:
            # measure-zero tie; pick by parameter order so the choice does
            # not depend on argument order
            smaller = min(p, q)
        else:
            smaller = p if lp < lq else q
        total += _cdf_increment(lo, hi, smaller)
    return min(1.0, max(0.0, total))


def _cdf_increment(lo: float, hi: float, params: BetaParams) -> float:
    """P(lo < X <= hi) for X ~ Beta(params), accurate in both tails.

    A segment that lies in the upper tail would be the difference of two
    CDF values that both round to 1, so once the lower endpoint is past
    the median the increment is taken on the mirrored distribution, where
    the same segment sits in the well-resolved lower tail.
    """
    c_lo = beta_cdf(lo, params)
    if c_lo < 0.5:
        return beta_cdf(hi, params) - c_lo
    mirrored = BetaParams(params.beta, params.alpha)
    return beta_cdf(1.0 - lo, mirrored) - beta_cdf(1.0 - hi, mirrored)


def overlap_grid(p: BetaParams, q: BetaParams, step: float = 0.001) -> float:
    """Left Riemann sum of min(p, q) over the step grid inside (0, 1).

    Grid points are the multiples of ``step`` that fall strictly between
    0 and 1.  The default step of 0.001 reproduces the plain fixed-grid
    evaluation commonly used to sanity-check overlap numbers; the result
    is clamped to [0, 1] since the rectangle sum itself can stray just
    outside.
    """
    step = _check_step(step)
    log_t, log_1mt = _grid_logs(step)
    lp = _log_pdf_on_grid(p, log_t, log_1mt)
    lq = _log_pdf_on_grid(q, log_t, log_1mt)
    total = float(np.exp(np.minimum(lp, lq)).sum()) * step
    return min(1.0, max(0.0, total))


def _check_step(step: float) -> float:
    """`step` as a float; a step outside (0, 0.01] raises ValueError."""
    step = float(step)
    if not math.isfinite(step) or not 0.0 < step <= 0.01:
        raise ValueError(f"step must lie in (0, 0.01], got {step!r}")
    return step


@lru_cache(maxsize=8)
def _grid_logs(step: float) -> tuple[np.ndarray, np.ndarray]:
    """log(theta) and log1p(-theta) over the interior step grid, cached per step."""
    pts = np.arange(0.0, 1.0, step)[1:]
    pts = pts[(pts > 0.0) & (pts < 1.0)]
    log_t = np.log(pts)
    log_1mt = np.log1p(-pts)
    log_t.setflags(write=False)
    log_1mt.setflags(write=False)
    return log_t, log_1mt


def _log_pdf_on_grid(params: BetaParams, log_t: np.ndarray, log_1mt: np.ndarray) -> np.ndarray:
    return (params.alpha - 1.0) * log_t + (params.beta - 1.0) * log_1mt - params.log_norm


def density_curve(params: BetaParams, grid_step: float) -> tuple[list[float], list[float]]:
    """Density values, as Python floats, at the round(1/step) midpoints (m + 0.5) * step.

    The midpoints never touch 0 or 1, where a density with a shape below
    one diverges, and cover the interval evenly.
    """
    grid_step = _check_step(grid_step)
    count = int(math.floor(1.0 / grid_step - 0.5)) + 1
    thetas = (np.arange(count) + 0.5) * grid_step
    thetas = thetas[thetas < 1.0]
    densities = np.exp(_log_pdf_on_grid(params, np.log(thetas), np.log1p(-thetas)))
    return thetas.tolist(), densities.tolist()
