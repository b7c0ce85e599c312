"""Observation validation and conjugate-update tests."""
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from betasieve.errors import (
    DuplicatePosteriorError,
    TooFewObservationsError,
    ValidationError,
)
from betasieve.posterior import (
    UNIFORM_PRIOR,
    Observation,
    ObservationSet,
    posterior_of,
    validate_set,
)
from betasieve.special_functions import BetaParams

from helpers import make_set

# per-row priors, two with a shape below one
PRIOR_ROWS = (
    Observation("a", 15, 30),
    Observation("b", 0, 7, prior=BetaParams(0.5, 0.5)),
    Observation("c", 3, 3, prior=BetaParams(1e-3, 2)),
    Observation("d", 29, 60, prior=BetaParams(2, 3)),
)


class TestObservation:
    def test_minimal(self):
        obs = Observation("a", 0, 1)
        assert obs.prior == UNIFORM_PRIOR

    @pytest.mark.parametrize("label", ["", None, 7])
    def test_bad_label(self, label):
        with pytest.raises(ValidationError, match="label"):
            Observation(label, 1, 2)

    def test_bad_counts(self):
        with pytest.raises(ValidationError, match="trials"):
            Observation("a", 0, 0)
        with pytest.raises(ValidationError, match="events"):
            Observation("a", -1, 5)
        with pytest.raises(ValidationError, match="events"):
            Observation("a", 6, 5)

    def test_error_names_label(self):
        with pytest.raises(ValidationError, match="'badrow'"):
            Observation("badrow", 9, 5)

    @pytest.mark.parametrize("events,trials", [(True, 5), (2, True), (1.0, 5), (2, 5.0)])
    def test_counts_must_be_integers(self, events, trials):
        with pytest.raises(ValidationError, match="integer"):
            Observation("a", events, trials)

    def test_prior_type(self):
        with pytest.raises(ValidationError, match="prior"):
            Observation("a", 1, 2, prior=(2, 3))


class TestPosteriorOf:
    def test_uniform_prior(self):
        assert posterior_of(Observation("a", 15, 30)) == BetaParams(16, 16)

    def test_smallest(self):
        assert posterior_of(Observation("a", 0, 1)) == BetaParams(1, 2)

    def test_prior_override(self):
        obs = Observation("a", 7, 15, prior=BetaParams(2, 3))
        assert posterior_of(obs) == BetaParams(9, 11)

    @pytest.mark.parametrize("trials", [10**306, 10**309], ids=["1e306", "1e309"])
    def test_counts_without_finite_normaliser_rejected(self, trials):
        with pytest.raises(ValidationError, match="posterior of 'far'"):
            posterior_of(Observation("far", 0, trials))

    @given(st.integers(min_value=1, max_value=10**9 - 1), st.integers(min_value=1, max_value=10**9))
    def test_mode_matches_frequency(self, events, trials):
        if events >= trials:
            events = trials - 1
        post = posterior_of(Observation("a", events, trials))
        mode = (post.alpha - 1.0) / (post.alpha + post.beta - 2.0)
        assert mode == events / trials

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    def test_shape_sum_exact(self, events, trials, pa, pb):
        events = min(events, trials)
        post = posterior_of(Observation("a", events, trials, prior=BetaParams(pa, pb)))
        # integer-valued inputs keep every float sum exact
        assert post.alpha + post.beta == trials + pa + pb


class TestValidateSet:
    def test_valid_five(self):
        s = make_set([15, 11, 7, 29, 100], [30, 20, 15, 60, 200])
        assert s.k == 5
        assert s.labels == ("s0", "s1", "s2", "s3", "s4")
        assert s.warnings == ()

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError, match="at least 4"):
            make_set([1, 1, 2], [2, 3, 3])

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePosteriorError) as err:
            make_set([5, 5, 3, 4], [10, 10, 9, 8])
        msg = str(err.value)
        assert "s0" in msg and "s1" in msg
        assert "allow_duplicates" in msg

    def test_duplicates_retained_with_flag(self):
        s = make_set([5, 5, 3, 4], [10, 10, 9, 8], allow_duplicates=True)
        assert s.k == 4
        assert len(s.warnings) == 1
        assert "duplicate posteriors retained" in s.warnings[0]
        assert "s0, s1" in s.warnings[0]

    def test_distinct_counts_same_posterior_collide(self):
        # posterior shapes depend on (events, trials - events), so a prior
        # shift can make different rows collide; equal rows always do
        obs = [
            Observation("x", 5, 10),
            Observation("y", 4, 8, prior=BetaParams(2, 2)),
            Observation("c", 3, 9),
            Observation("d", 6, 8),
        ]
        with pytest.raises(DuplicatePosteriorError, match="x, y"):
            validate_set(obs)

    def test_duplicate_labels_rejected(self):
        obs = [Observation("a", i, 10) for i in range(4)]
        obs[3] = Observation("a", 9, 10)
        with pytest.raises(ValidationError, match="appears more than once"):
            ObservationSet(tuple(obs))

    def test_set_is_immutable(self):
        s = make_set([15, 11, 7, 29], [30, 20, 15, 60])
        with pytest.raises(AttributeError):
            s.observations = ()


class TestSetPosteriors:
    def test_one_posterior_per_observation(self):
        s = validate_set(PRIOR_ROWS)
        assert s.posteriors == tuple(posterior_of(o) for o in s.observations)

    def test_not_a_field(self):
        assert "posteriors" not in {f.name for f in dataclasses.fields(ObservationSet)}
        s, t = validate_set(PRIOR_ROWS), validate_set(PRIOR_ROWS)
        object.__setattr__(t, "posteriors", ())
        assert s == t
        assert hash(s) == hash(t)
        assert repr(s) == repr(t)
        assert "posteriors" not in repr(s)

    def test_direct_build_rejects_posterior_without_finite_normaliser(self):
        rows = PRIOR_ROWS[:3] + (Observation("far", 0, 10**306),)
        with pytest.raises(ValidationError, match="posterior of 'far'"):
            ObservationSet(rows)

    def test_repeated_label_reported_before_duplicate_posterior(self):
        obs = [Observation("a", 5, 10), Observation("a", 5, 10), Observation("c", 3, 9),
               Observation("d", 6, 8)]
        with pytest.raises(ValidationError, match="'a' appears more than once") as err:
            validate_set(obs)
        assert not isinstance(err.value, DuplicatePosteriorError)
