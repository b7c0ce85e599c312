"""The array forms of betasieve's numerics: the one module that imports numpy.

Importing numpy takes about 0.13 s, more than half of a fresh
``betasieve detect`` run on a small table, yet the scalar exact evaluator
(sets of fewer than ten observations), ``synth`` and input validation
never need it.  So the package's numpy code lives here, apart from the
scalar code it mirrors, and is imported by the functions that need
arrays, on their first call:

* :func:`exact_pairs`, the exact evaluator over all pairs of a set of ten
  or more, for :mod:`betasieve.detection`;
* :func:`grid_pairs`, the grid sum over all pairs of a set, for both
  :mod:`betasieve.detection` and :func:`betasieve.similarity.overlap_grid`;
* :func:`density_points`, the curve behind :func:`betasieve.similarity.density_curve`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .similarity import _NEWTON_STEPS, _NEWTON_TOL
from .special_functions import BetaParams

# exp is exactly 0.0 below about -745.13, so the grid sum skips it there
_EXP_UNDERFLOW = -746.0
# bytes of log-density rows per tile of the grid sum (at step 1e-3, 131 rows)
_GRID_TILE_BYTES = 1 << 20


def exact_pairs(posteriors: Sequence[BetaParams], block: int) -> list[float]:
    """:func:`~betasieve.similarity.overlap_exact` of every pair (i, j), i < j, in (i, j) order, `block` pairs per call."""
    first, second = np.triu_indices(len(posteriors), 1)
    shapes = [np.array([getattr(p, name) for p in posteriors]) for name in ("alpha", "beta", "log_norm")]
    return np.concatenate([
        _overlap_exact_pairs(*shapes, first[n:n + block], second[n:n + block])
        for n in range(0, first.size, block)
    ]).tolist()


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # inf and nan are routed below
def _overlap_exact_pairs(
    alpha: np.ndarray, beta: np.ndarray, log_norm: np.ndarray, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """:func:`~betasieve.similarity.overlap_exact` of each pair (first[n], second[n]) of the posteriors given as arrays.

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
    """``similarity._canonical`` elementwise: (a1, b1, n1, a2, b2, n2) from the same six arrays of the pairs."""
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
    """``similarity._newton`` elementwise from each start in `u`; a start that is not finite is returned as is."""
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
    """``similarity._log_ratio`` elementwise."""
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
    """``similarity._tails`` elementwise: (lower, upper) arrays."""
    sp_pos, sp_neg = _softplus_pair_array(u)
    x, y = np.exp(-sp_neg), np.exp(-sp_pos)
    front = np.exp(-a * sp_neg - b * sp_pos - log_norm)
    near = x < (a + 1.0) / (a + b + 2.0)
    p = np.where(near, a, b)
    direct = front * _beta_cont_frac_array(p, np.where(near, b, a), np.where(near, x, y)) / p
    return np.where(near, direct, 1.0 - direct), np.where(near, 1.0 - direct, direct)


def _beta_cont_frac_array(
    a: np.ndarray, b: np.ndarray, x: np.ndarray, max_iter: int = 10000, eps: float = 3e-16
) -> np.ndarray:
    """``special_functions._beta_cont_frac`` elementwise over float64 arrays, bit for bit.

    An element that converges is frozen by setting its x to 0, which makes
    every later step multiply its value by exactly 1.  Once at most half
    the elements are still moving, the arrays shrink to the next power of
    two above that count, so a call makes arrays of few distinct lengths
    (numpy keeps freed small buffers per length).
    """
    tiny = 1e-300
    out = np.empty_like(x)
    where = np.arange(x.size)
    x = x.copy()
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = _lentz_floor(1.0 - qab * x / qap, tiny)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # even step
        numer = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _lentz_floor(1.0 + numer * d, tiny)
        c = _lentz_floor(1.0 + numer / c, tiny)
        h *= d * c
        # odd step
        numer = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _lentz_floor(1.0 + numer * d, tiny)
        c = _lentz_floor(1.0 + numer / c, tiny)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < eps
        moving = done.size - int(np.count_nonzero(done))
        if not moving:
            out[where] = h
            return out
        x[done] = 0.0
        if moving <= done.size // 2:
            out[where] = h
            keep = np.argsort(done, kind="stable")[: 1 << (moving - 1).bit_length()]
            where, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (where, a, b, x, qab, qap, qam, c, d, h))
    raise NumericsError(
        f"incomplete beta continued fraction did not converge for a={a[0]}, b={b[0]}, x={x[0]}"
    )


def _lentz_floor(v: np.ndarray, tiny: float) -> np.ndarray:
    v[np.abs(v) < tiny] = tiny
    return v


def grid_pairs(posteriors: Sequence[BetaParams], step: float) -> list[float]:
    """:func:`~betasieve.similarity.overlap_grid` of every pair (i, j), i < j, in (i, j) order, for a checked `step`.

    The log-densities L[i] on the grid are taken in tiles of rows of at most
    `_GRID_TILE_BYTES` (one row at least), so memory does not grow with k.
    numpy sums each row of min(L[i], L[j0:j1]) as it sums a 1-D array, so no
    value depends on k or the tiling.  exp is skipped, and 0.0 written,
    where it gives 0.0.
    """
    log_t, log_1mt = _grid_logs(step)
    k, tile = len(posteriors), max(1, _GRID_TILE_BYTES // log_t.nbytes)
    sums = np.zeros((k, k))
    for a in range(0, k, tile):
        for b in range(a, k, tile):
            cols = np.array([_log_pdf_on_grid(p, log_t, log_1mt) for p in posteriors[b:b + tile]])
            if b == a:
                rows = cols
            for i, row in enumerate(rows, a):
                j0 = max(i + 1, b)
                sums[i, j0:b + len(cols)] = _exp_row_sums(np.minimum(row, cols[j0 - b:]))
    return np.clip(sums[np.triu_indices(k, 1)] * step, 0.0, 1.0).tolist()


# a function, so that a block and its exp are freed before the next tile is taken
def _exp_row_sums(low: np.ndarray) -> np.ndarray:
    return np.exp(low, out=np.zeros_like(low), where=low > _EXP_UNDERFLOW).sum(axis=1)


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


def density_points(params: BetaParams, step: float) -> tuple[list[float], list[float]]:
    """:func:`~betasieve.similarity.density_curve` for a checked `step`."""
    count = int(math.floor(1.0 / step - 0.5)) + 1
    thetas = (np.arange(count) + 0.5) * step
    thetas = thetas[thetas < 1.0]
    densities = np.exp(_log_pdf_on_grid(params, np.log(thetas), np.log1p(-thetas)))
    return thetas.tolist(), densities.tolist()
