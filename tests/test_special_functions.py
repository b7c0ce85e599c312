"""Accuracy, domain, and normalization tests for the log-space primitives."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betasieve._arrays import _beta_cont_frac_array
from betasieve.errors import NumericsError
from betasieve.special_functions import (
    BetaParams,
    _beta_cont_frac,
    beta_cdf,
    log_beta,
    log_beta_pdf,
    log_gamma,
)


class TestBetaParams:
    def test_valid(self):
        p = BetaParams(16, 16)
        assert p.alpha == 16.0 and p.beta == 16.0
        assert isinstance(p.alpha, float)

    @pytest.mark.parametrize("alpha,beta", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
        (float("nan"), 1.0), (1.0, float("inf")),
        (True, 1.0), ("1", 1.0),
    ])
    def test_invalid(self, alpha, beta):
        with pytest.raises(ValueError):
            BetaParams(alpha, beta)

    def test_equality_and_ordering(self):
        assert BetaParams(2, 3) == BetaParams(2.0, 3.0)
        assert BetaParams(1, 2) < BetaParams(2, 1)

    @pytest.mark.parametrize("alpha,beta", [
        (16, 16), (1, 1), (0.5, 0.5), (2.5, 7.25), (0.01, 10), (1e-300, 1e-300),
        (1e-3, 1e9 + 1), (51, 151), (5e6, 5e6 + 1),
    ])
    def test_log_norm_is_log_beta(self, alpha, beta):
        p = BetaParams(alpha, beta)
        assert p.log_norm == log_beta(p.alpha, p.beta)
        assert BetaParams(p.beta, p.alpha).log_norm == p.log_norm

    def test_log_norm_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(BetaParams)] == ["alpha", "beta"]
        p, q = BetaParams(2, 3), BetaParams(2, 3)
        object.__setattr__(q, "log_norm", p.log_norm + 1.0)
        assert p == q and hash(p) == hash(q)
        assert not p < q and not q < p
        assert repr(q) == "BetaParams(alpha=2.0, beta=3.0)"

    @pytest.mark.parametrize("alpha,beta", [
        (1e308, 1.0),       # ln B is inf - inf
        (1.0, 1e306),       # the posterior of 10**306 trials under the uniform prior
        (1e308, 1e308),     # alpha + beta overflows
        (5e-324, 1.0),      # ln Gamma of the smallest subnormal overflows
    ])
    def test_rejects_shapes_without_finite_log_norm(self, alpha, beta):
        with pytest.raises(ValueError, match="no finite ln B") as info:
            BetaParams(alpha, beta)
        assert repr(float(alpha)) in str(info.value) and repr(float(beta)) in str(info.value)


class TestLogGamma:
    def test_at_one(self):
        # value is a zero of the function, so the bound is absolute
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)

    def test_at_two(self):
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-13)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.pi) / 2, rel=1e-13)

    def test_at_eleven(self):
        assert log_gamma(11.0) == pytest.approx(math.log(3628800), rel=1e-13)

    @pytest.mark.parametrize("x,expected", [
        # high-precision values, 60 significant digits upstream
        (1e-3, 6.907178885383854),
        (0.1, 2.252712651734206),
        (0.7, 0.2608672465316666),
        (123.456, 469.6055471299295),
        (1e4, 82099.71749644238),
        (1e7, 151180949.36947391),
    ])
    def test_against_high_precision(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)

    @given(st.floats(min_value=0.5, max_value=1e5))
    def test_recurrence(self, x):
        # ln G(x+1) = ln G(x) + ln x; absolute floor covers the zeros at 1 and 2
        assert math.isclose(
            log_gamma(x + 1.0), log_gamma(x) + math.log(x),
            rel_tol=1e-11, abs_tol=1e-12,
        )

    @given(st.floats(min_value=1e-3, max_value=0.499))
    def test_reflection_region_consistent(self, x):
        # below 0.5 the implementation routes through pi/sin(pi x)
        lhs = log_gamma(x) + log_gamma(1.0 - x)
        rhs = math.log(math.pi / math.sin(math.pi * x))
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


class TestLogBeta:
    def test_symmetry_bitwise(self):
        for a, b in [(1.5, 9.0), (16.0, 3.0), (2.0, 2000.0)]:
            assert log_beta(a, b) == log_beta(b, a)

    def test_uniform(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_integer_value(self):
        # B(3, 4) = 2!*3!/6! = 1/60
        assert log_beta(3.0, 4.0) == pytest.approx(-math.log(60), rel=1e-13)


class TestLogBetaPdf:
    def test_uniform_density(self):
        assert log_beta_pdf(0.3, BetaParams(1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_density(self):
        # Beta(2,2) density 6*theta*(1-theta) is 1.5 at the middle
        assert log_beta_pdf(0.5, BetaParams(2, 2)) == pytest.approx(math.log(1.5), rel=1e-13)

    def test_symmetric_sixteen(self):
        # high-precision value 1.499265368835168216721...
        assert log_beta_pdf(0.5, BetaParams(16, 16)) == pytest.approx(
            1.4992653688351682, rel=1e-10)

    def test_huge_shapes_stable(self):
        # shape sum 1e7; high-precision values 7.8332564478344324617
        # and 7.6332564838344772087
        assert log_beta_pdf(0.5, BetaParams(5e6, 5e6)) == pytest.approx(
            7.833256447834432, rel=1e-9)
        assert log_beta_pdf(0.4999, BetaParams(5e6, 5e6)) == pytest.approx(
            7.633256483834477, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_domain(self, theta):
        with pytest.raises(ValueError):
            log_beta_pdf(theta, BetaParams(2, 2))


def _endpoint_density(params: BetaParams, at_zero: bool) -> float:
    shape = params.alpha if at_zero else params.beta
    if shape > 1.0:
        return 0.0
    if shape == 1.0:
        return math.exp(-log_beta(params.alpha, params.beta))
    raise AssertionError("endpoint density diverges for shapes below 1")


def _trapezoid_mass(params: BetaParams, step: float = 1e-5) -> float:
    """Trapezoid integral of exp(log_beta_pdf) over [0, 1] at `step`."""
    theta = np.arange(1, round(1.0 / step)) * step
    log_pdf = (
        (params.alpha - 1.0) * np.log(theta)
        + (params.beta - 1.0) * np.log1p(-theta)
        - log_beta(params.alpha, params.beta)
    )
    # certify the vectorized form against the scalar function on a sample
    sample = theta[:: max(1, len(theta) // 64)]
    scalar = np.array([log_beta_pdf(t, params) for t in sample])
    assert np.allclose(log_pdf[:: max(1, len(theta) // 64)], scalar, rtol=0, atol=1e-10)
    interior = float(np.sum(np.exp(log_pdf)))
    ends = _endpoint_density(params, True) / 2 + _endpoint_density(params, False) / 2
    return (interior + ends) * step


class TestNormalization:
    @pytest.mark.parametrize("a,b", [
        (1, 1), (2, 2), (1, 5), (2, 100),
        (3, 3), (3, 1e4), (1e4, 3), (1e4, 1e4), (16, 16),
    ])
    def test_unit_mass_cases(self, a, b):
        assert _trapezoid_mass(BetaParams(a, b)) == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=3.0, max_value=1e4),
        st.floats(min_value=3.0, max_value=1e4),
    )
    def test_unit_mass_property(self, a, b):
        assert _trapezoid_mass(BetaParams(a, b)) == pytest.approx(1.0, abs=1e-6)

    def test_known_trapezoid_limitation(self):
        # With one shape at 2 and the other huge, the quadrature itself
        # carries an O(step^2 * f'(0)) endpoint term of about 8.3e-4; the
        # density is fine (its mass via the cdf is exact), only the fixed
        # 1e-5 trapezoid under-resolves the boundary slope.
        mass = _trapezoid_mass(BetaParams(2, 1e4))
        assert 1e-6 < abs(mass - 1.0) < 2e-3
        assert beta_cdf(1.0, BetaParams(2, 1e4)) == 1.0


class TestBetaCdf:
    def test_uniform(self):
        assert beta_cdf(0.5, BetaParams(1, 1)) == pytest.approx(0.5, abs=1e-14)
        assert beta_cdf(0.25, BetaParams(1, 1)) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("k", [2, 7, 16, 160, 1600])
    def test_symmetric_midpoint(self, k):
        assert beta_cdf(0.5, BetaParams(k, k)) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_exact(self):
        p = BetaParams(3.5, 9)
        assert beta_cdf(0.0, p) == 0.0
        assert beta_cdf(1.0, p) == 1.0

    def test_sixteen_sixteen(self):
        # high-precision value 0.009540435911883401799692...
        assert beta_cdf(0.3, BetaParams(16, 16)) == pytest.approx(
            0.009540435911883402, rel=1e-12)
        # value from an independent 1e-7-step trapezoid of the density
        assert beta_cdf(0.3, BetaParams(16, 16)) == pytest.approx(
            0.009540435911891201, rel=1e-10)

    def test_deep_tail(self):
        # high-precision value 4.833380697454675661e-191
        assert beta_cdf(0.4, BetaParams(2000, 1000)) == pytest.approx(
            4.833380697454676e-191, rel=1e-10)

    @pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            beta_cdf(x, BetaParams(2, 2))

    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        st.floats(min_value=0.01, max_value=1e4),
        st.floats(min_value=0.01, max_value=1e4),
    )
    def test_monotone_in_x(self, xs, a, b):
        lo, hi = sorted(xs)
        params = BetaParams(a, b)
        assert beta_cdf(lo, params) <= beta_cdf(hi, params)

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.01, max_value=1e4),
        st.floats(min_value=0.01, max_value=1e4),
    )
    def test_reflection_identity(self, x, a, b):
        total = beta_cdf(x, BetaParams(a, b)) + beta_cdf(1.0 - x, BetaParams(b, a))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bounds_clamped(self):
        for x in (0.1, 0.5, 0.9, 1e-9, 1.0 - 1e-9):
            v = beta_cdf(x, BetaParams(0.5, 0.5))
            assert 0.0 <= v <= 1.0


class TestContinuedFractionArray:
    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.floats(min_value=-3.0, max_value=6.0), st.floats(min_value=-3.0, max_value=6.0),
                              st.floats(min_value=0.0, max_value=1.0)), min_size=1, max_size=300))
    def test_bit_identical_to_scalar(self, rows):
        # the array form runs the same steps and stops each element where
        # the scalar loop returns, whatever the others in its call still need
        a, b, x = (np.array(v) for v in zip(*rows))
        a, b = 10.0 ** a, 10.0 ** b
        # on the side of the mean where beta_cdf calls it
        x = x * (a + 1.0) / (a + b + 2.0)
        expected = [_beta_cont_frac(*row) for row in zip(a.tolist(), b.tolist(), x.tolist())]
        assert _beta_cont_frac_array(a, b, x).tolist() == expected

    def test_non_convergence_raises(self):
        with pytest.raises(NumericsError, match="did not converge"):
            _beta_cont_frac_array(np.array([2.0, 1e6]), np.array([3.0, 1e6]), np.array([0.3, 0.5]), max_iter=5)
