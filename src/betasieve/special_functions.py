"""Log-space Beta-distribution primitives.

Every density and tail integral in the package goes through the
functions defined here and BetaParams, which computes ln B(alpha, beta)
once, when it is built, as ``log_norm``.  All arithmetic is carried out in
log space so that shape parameters in the millions (i.e. huge sample
sizes) neither overflow nor lose their tails to underflow.

log_gamma uses the Lanczos approximation (g=7, 9 coefficients), which is
accurate to a few ulp over the whole positive axis.  beta_cdf evaluates
the regularized incomplete beta function with the standard continued
fraction (modified Lentz iteration), switching to the complementary
argument at x > (a+1)/(a+b+2) so the fraction always converges fast;
``_beta_tails`` gives the scalar overlap evaluator both tails at once.
The fraction's array form, for the array evaluator, is
``_arrays._beta_cont_frac_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericsError

__all__ = ["BetaParams", "log_gamma", "log_beta", "log_beta_pdf", "beta_cdf"]


@dataclass(frozen=True, order=True)
class BetaParams:
    """Beta shapes, both finite and positive, with their finite ln B kept as ``log_norm``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an int past the float range, whose digits would flood the message
                raise ValueError(f"{name} must be a finite positive real, got an integer beyond the float range") from None
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be a finite positive real, got {value!r}")
            object.__setattr__(self, name, value)
        log_norm = math.nan if math.isinf(self.alpha + self.beta) else log_beta(self.alpha, self.beta)
        if not math.isfinite(log_norm):
            raise ValueError(f"Beta({self.alpha!r}, {self.beta!r}) has no finite ln B in double precision")
        object.__setattr__(self, "log_norm", log_norm)  # not a field: eq, order, hash, repr skip it


# Lanczos approximation, g=7, n=9 (Godfrey's coefficients).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-06,
    1.5056327351493116e-07,
)
_HALF_LOG_TWO_PI = 0.9189385332046727  # ln(2*pi)/2


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Relative accuracy is a few ulp across [1e-3, 1e7]; values below 0.5
    go through the reflection formula so the Lanczos series only ever
    sees arguments >= 0.5.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # Gamma(x) * Gamma(1-x) = pi / sin(pi x); sin is positive on (0, 0.5).
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(series)


def log_beta(alpha: float, beta: float) -> float:
    """ln B(alpha, beta)."""
    return log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)


def log_beta_pdf(theta: float, params: BetaParams) -> float:
    """Log density of Beta(params) at theta, for theta strictly inside (0, 1).

    Working in logs keeps the value finite and accurate even when the
    density itself would underflow (far tails) or the shapes are huge.
    """
    theta = float(theta)
    if not math.isfinite(theta) or not 0.0 < theta < 1.0:
        raise ValueError(f"log_beta_pdf requires 0 < theta < 1, got {theta!r}")
    a, b = params.alpha, params.beta
    return (a - 1.0) * math.log(theta) + (b - 1.0) * math.log1p(-theta) - params.log_norm


def beta_cdf(x: float, params: BetaParams) -> float:
    """Regularized incomplete beta function I_x(alpha, beta).

    Returns P(Theta <= x) for Theta ~ Beta(params). Continued-fraction
    evaluation after Lentz; the symmetry switch keeps the fraction in its
    fast-converging regime on either side of the distribution body.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"beta_cdf requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    lower, _ = _beta_tails(x, 1.0 - x, math.log(x), math.log1p(-x), params.alpha, params.beta, params.log_norm)
    return min(1.0, max(0.0, lower))


def _beta_tails(
    x: float, y: float, log_x: float, log_y: float, a: float, b: float, log_norm: float
) -> tuple[float, float]:
    """(I_x(a, b), 1 - I_x(a, b)) for 0 < x < 1, given y = 1 - x and both logarithms.

    The tail on the near side of (a+1)/(a+b+2) comes from the continued
    fraction and the other is one minus it, so whichever side is small
    keeps its relative accuracy.  Taking y and the logs from the caller
    lets an argument within an ulp of 1 keep the digits of its complement.
    """
    front = math.exp(a * log_x + b * log_y - log_norm)
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _beta_cont_frac(a, b, x) / a
        return lower, 1.0 - lower
    upper = front * _beta_cont_frac(b, a, y) / b
    return 1.0 - upper, upper


def _beta_cont_frac(a: float, b: float, x: float, max_iter: int = 10000, eps: float = 3e-16) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # even step
        numer = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        numer = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NumericsError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )
