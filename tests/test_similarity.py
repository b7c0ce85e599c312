"""Overlap evaluation: exact crossing-point method vs grid quadrature."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import beta as scipy_beta

from betasieve import similarity, special_functions
from betasieve.similarity import (
    DegeneratePairError,
    PairSimilarity,
    crossing_points,
    density_curve,
    overlap_exact,
    overlap_grid,
)
from betasieve.special_functions import BetaParams, beta_cdf, log_beta_pdf

shape = st.floats(min_value=1.0, max_value=1e4)


class TestPairSimilarity:
    def test_valid(self):
        ps = PairSimilarity(0, 3, 0.25)
        assert ps.involves(0) and ps.involves(3) and not ps.involves(1)

    @pytest.mark.parametrize("i,j", [(3, 3), (2, 1), (-1, 0)])
    def test_index_order_required(self, i, j):
        with pytest.raises(ValueError, match="i < j"):
            PairSimilarity(i, j, 0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("nan")])
    def test_value_range(self, value):
        with pytest.raises(ValueError, match="similarity"):
            PairSimilarity(0, 1, value)


class TestCrossingPoints:
    def test_mirror_powers(self):
        assert crossing_points(BetaParams(101, 1), BetaParams(1, 101)) == pytest.approx(
            [0.5], abs=1e-12)

    def test_linear_densities(self):
        # 2*theta against 2*(1-theta) meet at the middle
        assert crossing_points(BetaParams(2, 1), BetaParams(1, 2)) == pytest.approx(
            [0.5], abs=1e-12)

    def test_two_roots_symmetric(self):
        roots = crossing_points(BetaParams(16, 16), BetaParams(3, 3))
        assert roots == pytest.approx(
            [0.3727403219130553, 0.6272596780869446], abs=1e-9)
        assert roots[0] + roots[1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p,q", [
        ((16, 16), (3, 3)),
        ((16, 16), (12, 10)),
        ((30, 32), (101, 101)),
        ((2, 50), (40, 3)),
        ((5, 5), (500, 500)),
    ])
    def test_roots_match_dense_sign_scan(self, p, q):
        # independent bracket scan of the log-density difference
        theta = np.linspace(1e-6, 1.0 - 1e-6, 20001)
        d = scipy_beta.logpdf(theta, *p) - scipy_beta.logpdf(theta, *q)
        brackets = [
            (theta[m], theta[m + 1])
            for m in range(len(theta) - 1)
            if d[m] == 0.0 or (d[m] < 0) != (d[m + 1] < 0)
        ]
        roots = crossing_points(BetaParams(*p), BetaParams(*q))
        assert len(roots) == len(brackets)
        for root, (lo, hi) in zip(roots, brackets):
            assert lo - 1e-9 <= root <= hi + 1e-9

    def test_sorted_ascending(self):
        roots = crossing_points(BetaParams(16, 16), BetaParams(3, 3))
        assert roots == sorted(roots)

    def test_identical_parameters_degenerate(self):
        with pytest.raises(DegeneratePairError):
            crossing_points(BetaParams(4, 7), BetaParams(4, 7))


class TestOverlapExact:
    def test_identity(self):
        for a, b in [(16, 16), (1, 1), (101, 1), (2.5, 7.25)]:
            assert overlap_exact(BetaParams(a, b), BetaParams(a, b)) == pytest.approx(
                1.0, abs=1e-9)

    def test_analytic_mirror_pair(self):
        v = overlap_exact(BetaParams(101, 1), BetaParams(1, 101))
        assert v == pytest.approx(2.0 * 0.5**101, rel=1e-10)

    @pytest.mark.parametrize("p,q", [
        ((16, 16), (12, 10)),
        ((2, 1000), (300, 7)),
        ((1.5, 2.5), (9, 1)),
        ((101, 1), (1, 101)),
    ])
    def test_symmetry_bitwise(self, p, q):
        assert overlap_exact(BetaParams(*p), BetaParams(*q)) == overlap_exact(
            BetaParams(*q), BetaParams(*p))

    @given(shape, shape, shape, shape)
    def test_bounds(self, a1, b1, a2, b2):
        v = overlap_exact(BetaParams(a1, b1), BetaParams(a2, b2))
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("p,q", [
        ((16, 16), (12, 10)),
        ((16, 16), (30, 32)),
        ((8, 9), (101, 101)),
    ])
    def test_matches_fine_grid(self, p, q):
        exact = overlap_exact(BetaParams(*p), BetaParams(*q))
        grid = overlap_grid(BetaParams(*p), BetaParams(*q), 1e-6)
        assert abs(exact - grid) <= 1e-6

    def test_monotone_separation(self):
        # growing the count gap can only reduce the overlap
        values = [
            overlap_exact(
                BetaParams(21, 81),  # (N=20, n=100)
                BetaParams(21 + d, 81 - d),  # (N=20+d, n=100)
            )
            for d in range(0, 61, 10)
        ]
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier

    def test_disjoint_supports_near_zero(self):
        v = overlap_exact(BetaParams(2000, 10), BetaParams(10, 2000))
        assert 0.0 <= v < 1e-9


class TestOverlapGrid:
    def test_uniform_pair_loses_one_step(self):
        # left-Riemann sum inside (0, 1): 999 cells of the constant density
        v = overlap_grid(BetaParams(1, 1), BetaParams(1, 1), 0.001)
        assert v == pytest.approx(0.999, abs=1e-9)
        assert abs(v - 1.0) <= 0.001

    @pytest.mark.parametrize("step", [0.01, 0.005, 0.001])
    def test_uniform_within_step(self, step):
        v = overlap_grid(BetaParams(1, 1), BetaParams(1, 1), step)
        assert abs(v - 1.0) <= step

    @pytest.mark.parametrize("a,b", [(16, 16), (101, 101), (51, 151)])
    def test_identical_posteriors_default_step(self, a, b):
        v = overlap_grid(BetaParams(a, b), BetaParams(a, b), 0.001)
        assert abs(v - 1.0) <= 2e-3

    @pytest.mark.parametrize("p,q", [
        ((16, 16), (12, 10)),
        ((6, 46), (41, 14)),
    ])
    def test_matches_literal_riemann_sum(self, p, q):
        # same construction, spelled out with scipy densities
        step = 0.001
        theta = np.arange(0.0, 1.0, step)[1:]
        literal = float(np.sum(np.minimum(
            scipy_beta.pdf(theta, *p), scipy_beta.pdf(theta, *q))) * step)
        mine = overlap_grid(BetaParams(*p), BetaParams(*q), step)
        assert mine == pytest.approx(literal, abs=1e-12)

    def test_pointwise_average_identity(self):
        # min(p,q) + |p-q|/2 = (p+q)/2, so the three grid sums must agree
        step = 1e-4
        theta = np.arange(0.0, 1.0, step)[1:]
        p = scipy_beta.pdf(theta, 16, 16)
        q = scipy_beta.pdf(theta, 12, 10)
        overlap = overlap_grid(BetaParams(16, 16), BetaParams(12, 10), step)
        tv = 0.5 * float(np.sum(np.abs(p - q)) * step)
        avg_mass = 0.5 * float(np.sum(p + q) * step)
        assert overlap + tv == pytest.approx(avg_mass, abs=1e-10)
        assert overlap + tv == pytest.approx(1.0, abs=5e-3)

    def test_symmetry_bitwise(self):
        p, q = BetaParams(16, 16), BetaParams(12, 10)
        assert overlap_grid(p, q, 0.001) == overlap_grid(q, p, 0.001)

    @pytest.mark.parametrize("step", [0.0, -0.001, 0.011, 1.0, float("nan")])
    def test_step_validation(self, step):
        with pytest.raises(ValueError, match="step"):
            overlap_grid(BetaParams(2, 2), BetaParams(3, 3), step)

    def test_clamped_to_unit_interval(self):
        v = overlap_grid(BetaParams(1, 1), BetaParams(1.0000001, 1), 0.01)
        assert 0.0 <= v <= 1.0


class TestDensityCurve:
    @pytest.mark.parametrize("a,b", [
        (0.5, 0.5), (0.01, 10), (2, 50), (51, 151), (3, 99_997), (1e5, 1e5), (99_901, 100_001),
    ])
    @pytest.mark.parametrize("step", [0.01, 0.001])
    def test_matches_scalar_log_density(self, a, b, step):
        # the per-point scalar log-density is the reference; numpy's log,
        # log1p and exp may differ from libm's in the last digits
        params = BetaParams(a, b)
        thetas, densities = density_curve(params, step)
        assert len(thetas) == len(densities) == round(1.0 / step)
        for m, (theta, density) in enumerate(zip(thetas, densities)):
            assert theta == (m + 0.5) * step
            assert math.isclose(density, math.exp(log_beta_pdf(theta, params)), rel_tol=1e-9)

    @pytest.mark.parametrize("step", [-0.1, 0.0, float("nan"), 2.0])
    def test_step_validation(self, step):
        # the same check, and message, as overlap_grid
        with pytest.raises(ValueError, match=r"step must lie in \(0, 0\.01\]"):
            density_curve(BetaParams(2, 2), step)

    def test_midpoint_reaching_one_is_dropped(self):
        # at this step the 101st midpoint (100 + 0.5) * step rounds to 1.0
        step = 1 / 100.5
        assert (100 + 0.5) * step == 1.0
        thetas, densities = density_curve(BetaParams(0.5, 0.5), step)
        assert len(thetas) == len(densities) == 100
        assert all(0.0 < t < 1.0 for t in thetas)


class TestNormaliser:
    def test_evaluations_read_log_norm(self, monkeypatch):
        # ln B is computed when a BetaParams is built, never per evaluation
        p, q = BetaParams(0.5, 3), BetaParams(16, 12)
        calls = []
        log_beta = special_functions.log_beta

        def counting_log_beta(alpha, beta):
            calls.append((alpha, beta))
            return log_beta(alpha, beta)

        monkeypatch.setattr(special_functions, "log_beta", counting_log_beta)
        # a module that imported log_beta by name would call its own binding
        monkeypatch.setattr(similarity, "log_beta", counting_log_beta, raising=False)
        log_beta_pdf(0.3, p)
        beta_cdf(0.3, p)
        beta_cdf(0.9, q)
        crossing_points(p, q)
        overlap_grid(p, q)
        density_curve(q, 0.01)
        assert calls == []
