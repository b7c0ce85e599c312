"""Overlap similarity between two Beta posteriors.

The similarity of two distributions is the area shared by their density
curves, ``integral of min(p(theta), q(theta)) over (0, 1)`` -- 1 for
identical posteriors, 0 for disjoint ones.  Two evaluators are provided:

* :func:`overlap_exact` locates the (at most two) points where the two
  densities cross, by Newton's method in u = logit(theta), and sums exact
  CDF increments of whichever density is smaller between consecutive
  crossings.  Absolute error is at the level of the CDF evaluation,
  ~1e-13.  Each pair is evaluated in a canonical orientation, so swapped
  and mirror-image pairs give the same float.  ``_overlap_exact_pairs``
  runs the same evaluation over arrays of pairs.
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

from .errors import NumericsError
from .special_functions import BetaParams, _beta_cont_frac_array, _beta_tails
from .special_functions import beta_cdf, log_beta, log_beta_pdf  # noqa: F401 -- unused; perfbench/tracing.py wraps them

__all__ = [
    "DegeneratePairError",
    "PairSimilarity",
    "crossing_points",
    "density_curve",
    "overlap_exact",
    "overlap_grid",
]

# A start in an exponential tail nears its zero by about 1 per step, and such
# a zero lies within |u| < 745 (beyond it expit underflows), so this bounds
# the walk.  Crossings between posteriors of 1e2-1e5 trials take 5 to 15
# steps; the longest seen over shapes from 1e-300 to 1e17 took 46.
_NEWTON_STEPS = 2000
_NEWTON_TOL = 4.0 * 2.0 ** -52   # relative step at which a zero counts as found


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

    Found in u = logit(theta) by :func:`_logit_roots` on the pair's
    canonical orientation.  A crossing that rounds to 0 or 1 in double
    precision is left out here; the overlap, which works in u, still
    counts it.  Raises :class:`DegeneratePairError` for identical
    parameters.
    """
    if p == q:
        raise DegeneratePairError(f"distributions are identical: {p}")
    (first, second), mirrored = _canonical(p, q)
    roots = _logit_roots(first[0] - second[0], first[1] - second[1], second[2] - first[2])
    if mirrored:
        roots = [-u for u in reversed(roots)]
    points = [math.exp(-_softplus_pair(u)[1]) for u in roots]
    return [t for t in points if 0.0 < t < 1.0]


def overlap_exact(p: BetaParams, q: BetaParams) -> float:
    """Shared area under the two densities, via crossings and CDF increments.

    Between consecutive crossing points one of the densities is smaller
    throughout, so its CDF increment over the subinterval is the exact
    contribution to the shared area.  Identical parameters short-circuit
    to 1.  The pair is evaluated in its canonical orientation, so the
    result is the same float for swapped arguments and for the mirror
    image pair Beta(b1, a1), Beta(b2, a2).
    """
    if p == q:
        return 1.0
    (first, second), _ = _canonical(p, q)
    da, db, dc = first[0] - second[0], first[1] - second[1], second[2] - first[2]
    roots = _logit_roots(da, db, dc)
    # d = log(first / second) has the sign of its limit at 0 up to the first crossing
    below, above = (first, second) if (-da if da else dc) < 0.0 else (second, first)
    ends = [(0.0, 1.0)]
    for u in roots:
        ends += [_tails(u, *below), _tails(u, *above)]
        below, above = above, below
    ends.append((1.0, 0.0))
    total = sum(_increment(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]))
    return min(1.0, max(0.0, total))


def _increment(lo: tuple[float, float], hi: tuple[float, float]) -> float:
    """P(lo < X <= hi) from the (lower, upper) tail pairs at its two ends.

    A segment past the median would be the difference of two lower tails
    that both round to 1, so there the upper tails are subtracted instead.
    """
    return hi[0] - lo[0] if lo[0] < 0.5 else lo[1] - hi[1]


def _canonical(p: BetaParams, q: BetaParams) -> tuple[list[tuple[float, float, float]], bool]:
    """The pair as two sorted (alpha, beta, ln B) triples, and whether they are mirrored.

    A Beta(a, b) density at theta is Beta(b, a)'s at 1 - theta, so a pair
    and its mirror image have the same overlap as real numbers.  Of the
    sorted pair and the sorted mirrored pair the smaller is evaluated, so
    argument order and mirroring cannot change a single bit.
    """
    direct = sorted([(p.alpha, p.beta, p.log_norm), (q.alpha, q.beta, q.log_norm)])
    mirror = sorted([(p.beta, p.alpha, p.log_norm), (q.beta, q.alpha, q.log_norm)])
    return (mirror, True) if mirror < direct else (direct, False)


def _logit_roots(da: float, db: float, dc: float) -> list[float]:
    """Zeros, ascending, of d(u) = dc - da*softplus(-u) - db*softplus(u) over the real line.

    This is the log-density difference of Beta(a1, b1) and Beta(a2, b2) at
    theta = expit(u), with da = a1 - a2, db = b1 - b2 and
    dc = ln B(a2, b2) - ln B(a1, b1).  Since
    d''(u) = -(da + db) * expit(u) * expit(-u), d is concave or convex on
    the whole line (linear when da + db = 0, solved in closed form), so it
    has at most two zeros, and at most one when da and db differ in sign.
    Its limits are -sign(da) * inf at u -> -inf and
    -sign(db) * inf at u -> +inf, and d lies on one side of both
    asymptotes dc + da*u and dc - db*u.  Newton's method started at an
    asymptote's zero therefore moves monotonically onto the zero on that
    side, however far out it lies.  Touching counts as no crossing.
    """
    s = da + db
    if s == 0.0:
        return [-dc / da]
    if da != 0.0 and db != 0.0 and (da > 0.0) == (db > 0.0):
        peak, _ = _log_ratio(math.log(abs(da)) - math.log(abs(db)), da, db, dc)
        if peak == 0.0 or (peak > 0.0) != (s > 0.0):
            return []
        return [_newton(-dc / da, da, db, dc), _newton(dc / db, da, db, dc)]
    left, right = (-da if da else dc), (-db if db else dc)
    if left == 0.0 or right == 0.0 or (left > 0.0) == (right > 0.0):
        return []
    # d is monotone, so both asymptote zeros lie on the same side of its zero
    starts = ([-dc / da] if da else []) + ([dc / db] if db else [])
    start = min(starts, key=lambda u: abs(_log_ratio(u, da, db, dc)[0]) if math.isfinite(u) else math.inf)
    return [_newton(start, da, db, dc)]


def _newton(u: float, da: float, db: float, dc: float) -> float:
    """Newton's method on d from a start on the side where it converges monotonically.

    Stops once a step is within rounding of u, or at the first step that
    turns back, which only rounding noise at the zero can cause.
    """
    direction = 0.0
    if not math.isfinite(u):
        return u  # the zero lies beyond the floats, where both tails are 0 or 1
    for _ in range(_NEWTON_STEPS):
        value, slope = _log_ratio(u, da, db, dc)
        if value == 0.0 or slope == 0.0:
            return u
        step = value / slope
        if direction * step < 0.0:
            return u
        direction = step
        if abs(step) <= _NEWTON_TOL * max(1.0, abs(u)):
            return u - step
        u -= step
    raise NumericsError(f"crossing search did not converge for da={da}, db={db}, dc={dc}")


def _log_ratio(u: float, da: float, db: float, dc: float) -> tuple[float, float]:
    """d(u) and d'(u) = da*expit(-u) - db*expit(u)."""
    sp_pos, sp_neg = _softplus_pair(u)
    value = dc - da * sp_neg - db * sp_pos
    return value, da * math.exp(-sp_pos) - db * math.exp(-sp_neg)


def _softplus_pair(u: float) -> tuple[float, float]:
    """(softplus(u), softplus(-u)) = (-log(1 - expit(u)), -log(expit(u))), both accurate."""
    shared = math.log1p(math.exp(-abs(u)))
    return max(u, 0.0) + shared, max(-u, 0.0) + shared


def _tails(u: float, a: float, b: float, log_norm: float) -> tuple[float, float]:
    """(P(X <= t), P(X > t)) for X ~ Beta(a, b) at t = expit(u)."""
    sp_pos, sp_neg = _softplus_pair(u)
    return _beta_tails(math.exp(-sp_neg), math.exp(-sp_pos), -sp_neg, -sp_pos, a, b, log_norm)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # inf and nan are routed below
def _overlap_exact_pairs(
    alpha: np.ndarray, beta: np.ndarray, log_norm: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """:func:`overlap_exact` of each pair (first[n], second[n]) of the posteriors given as arrays.

    The same orientation, crossing search and segment sums run elementwise.
    An absent crossing is put at u = +inf, where both tails are (1, 0), so
    every array of a call keeps the call's length.  numpy's exp and log1p
    may differ from the math module's in the last bit, so a value can
    differ from the scalar path's in its last digits; swapped and mirrored
    pairs still give identical floats.
    """
    a1, b1, n1, a2, b2, n2 = _canonical_array(
        alpha[first], beta[first], log_norm[first], alpha[second], beta[second], log_norm[second])
    da, db, dc = a1 - a2, b1 - b2, n2 - n1
    zero_left, zero_right = -dc / da, dc / db
    turn = np.log(np.abs(da)) - np.log(np.abs(db))
    same_sign = (da != 0.0) & (db != 0.0) & ((da > 0.0) == (db > 0.0))
    peak, _ = _log_ratio_array(np.where(same_sign, turn, 0.0), da, db, dc)
    two = same_sign & (peak != 0.0) & ((peak > 0.0) == (da > 0.0))
    linear = (da + db == 0.0) & (da != 0.0)
    left = np.where(da != 0.0, -da, dc)
    right = np.where(db != 0.0, -db, dc)
    one = ~same_sign & ~linear & (left != 0.0) & (right != 0.0) & ((left > 0.0) != (right > 0.0))
    # a monotone d starts from the asymptote zero nearer its own zero
    nearer_right = one & ((da == 0.0) | (_miss(zero_right, da, db, dc) < _miss(zero_left, da, db, dc)))
    starts = np.stack([np.where(two | one, np.where(nearer_right, zero_right, zero_left), np.nan),
                       np.where(two, zero_right, np.nan)])
    roots = _newton_array(starts, da, db, dc)
    roots[0] = np.where(linear, zero_left, roots[0])
    roots[np.isnan(roots)] = np.inf

    # tails at the crossings, of the density below on the left of each and above on its right
    below_first = left < 0.0   # d has the sign of its limit at 0 up to the first crossing
    on_first = np.stack([below_first, ~below_first, ~below_first, below_first])
    lower, upper = _tails_array(
        roots[[0, 0, 1, 1]].ravel(),
        *(np.where(on_first, v, w).ravel() for v, w in ((a1, a2), (b1, b2), (n1, n2))))
    lower, upper = lower.reshape(4, -1), upper.reshape(4, -1)
    total = lower[0] + np.where(lower[1] < 0.5, lower[2] - lower[1], upper[1] - upper[2])
    total += np.where(lower[3] < 0.5, 1.0 - lower[3], upper[3])
    np.clip(total, 0.0, 1.0, out=total)
    total[(da == 0.0) & (db == 0.0)] = 1.0
    return total


def _canonical_array(*shapes: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_canonical` elementwise: (a1, b1, n1, a2, b2, n2) from the same six arrays of the pairs."""
    a1, b1, n1, a2, b2, n2 = shapes
    swap = _lex_less((a2, b2), (a1, b1))
    a1, b1, n1, a2, b2, n2 = (np.where(swap, w, v) for v, w in
                              ((a1, a2), (b1, b2), (n1, n2), (a2, a1), (b2, b1), (n2, n1)))
    swap = _lex_less((b2, a2), (b1, a1))
    mirror = tuple(np.where(swap, w, v) for v, w in
                   ((b1, b2), (a1, a2), (n1, n2), (b2, b1), (a2, a1), (n2, n1)))
    use = _lex_less((mirror[0], mirror[1], mirror[3], mirror[4]), (a1, b1, a2, b2))
    return tuple(np.where(use, m, v) for m, v in zip(mirror, (a1, b1, n1, a2, b2, n2)))


def _lex_less(xs: tuple[np.ndarray, ...], ys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Elementwise lexicographic xs < ys."""
    less = np.zeros(xs[0].shape, dtype=bool)
    equal = np.ones(xs[0].shape, dtype=bool)
    for x, y in zip(xs, ys):
        less |= equal & (x < y)
        equal &= x == y
    return less


def _newton_array(u: np.ndarray, da: np.ndarray, db: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """:func:`_newton` elementwise from each start in `u`; a start that is not finite is returned as is."""
    out = u.copy()
    done = ~np.isfinite(u)
    u = np.where(done, 0.0, u)
    direction = np.zeros_like(u)
    for _ in range(_NEWTON_STEPS):
        if done.all():
            return out
        value, slope = _log_ratio_array(u, da, db, dc)
        step = value / slope
        here = ~done & ((value == 0.0) | (slope == 0.0) | (direction * step < 0.0))
        u_next = u - step
        after = ~done & ~here & (np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(u)))
        np.copyto(out, u, where=here)
        np.copyto(out, u_next, where=after)
        done |= here | after
        u = np.where(done, u, u_next)
        direction = step
    da, db, dc = (np.broadcast_to(v, done.shape)[~done][0] for v in (da, db, dc))
    raise NumericsError(f"crossing search did not converge for da={da}, db={db}, dc={dc}")


def _log_ratio_array(u: np.ndarray, da: np.ndarray, db: np.ndarray, dc: np.ndarray):
    """:func:`_log_ratio` elementwise."""
    sp_pos, sp_neg = _softplus_pair_array(u)
    return dc - da * sp_neg - db * sp_pos, da * np.exp(-sp_pos) - db * np.exp(-sp_neg)


def _miss(u: np.ndarray, da: np.ndarray, db: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """|d(u)|, or inf where u is not finite."""
    finite = np.isfinite(u)
    return np.where(finite, np.abs(_log_ratio_array(np.where(finite, u, 0.0), da, db, dc)[0]), np.inf)


def _softplus_pair_array(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shared = np.log1p(np.exp(-np.abs(u)))
    return np.maximum(u, 0.0) + shared, np.maximum(-u, 0.0) + shared


def _tails_array(u: np.ndarray, a: np.ndarray, b: np.ndarray, log_norm: np.ndarray):
    """:func:`_tails` elementwise: (lower, upper) arrays."""
    sp_pos, sp_neg = _softplus_pair_array(u)
    x, y = np.exp(-sp_neg), np.exp(-sp_pos)
    front = np.exp(-a * sp_neg - b * sp_pos - log_norm)
    near = x < (a + 1.0) / (a + b + 2.0)
    p = np.where(near, a, b)
    direct = front * _beta_cont_frac_array(p, np.where(near, b, a), np.where(near, x, y)) / p
    return np.where(near, direct, 1.0 - direct), np.where(near, 1.0 - direct, direct)


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
