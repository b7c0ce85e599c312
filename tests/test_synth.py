"""Deterministic generator and campaign-spec tests."""
import math

import pytest

from betasieve.errors import InputFormatError, ValidationError
from betasieve.formats import render_observations
from betasieve.synth import (
    Arm,
    CampaignSpec,
    SplitMix64,
    generate,
    sample_binomial,
)

from helpers import count_posterior_calls

BIASED_ARMS = tuple([Arm(200)] * 4 + [Arm(200, 0.9)])


class TestSplitMix64:
    def test_known_sequence_from_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_first_uniform_is_top_53_bits(self):
        assert SplitMix64(0).next_float() == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        assert SplitMix64(0).next_float() == pytest.approx(0.8833108082136426, abs=0)

    def test_uniform_range(self):
        rng = SplitMix64(123)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 990  # essentially no collisions

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.0, "7", True])
    def test_seed_validation(self, seed):
        with pytest.raises(ValidationError):
            SplitMix64(seed)

    def test_max_seed_accepted(self):
        SplitMix64((1 << 64) - 1).next_uint64()


class TestSampleBinomial:
    def test_frozen_draws(self):
        assert sample_binomial(SplitMix64(1), 100, 0.3) == 31
        # 2500 trials cross the 1000-trial chunking boundary twice
        assert sample_binomial(SplitMix64(7), 2500, 0.25) == 605
        assert sample_binomial(SplitMix64(7), 2500, 0.75) == 1895

    def test_support(self):
        for seed in range(50):
            v = sample_binomial(SplitMix64(seed), 20, 0.5)
            assert 0 <= v <= 20

    def test_flip_identity(self):
        # counting failures at 1-p consumes the same uniform stream
        assert (
            sample_binomial(SplitMix64(99), 400, 0.9)
            + sample_binomial(SplitMix64(99), 400, 0.1)
            == 400
        )

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.1, 1.5])
    def test_prob_validation(self, prob):
        with pytest.raises(ValidationError, match="prob"):
            sample_binomial(SplitMix64(0), 10, prob)

    def test_trials_validation(self):
        with pytest.raises(ValidationError, match="trials"):
            sample_binomial(SplitMix64(0), -1, 0.5)

    def test_zero_trials(self):
        assert sample_binomial(SplitMix64(0), 0, 0.5) == 0


class TestArmAndSpec:
    def test_arm_validation(self):
        with pytest.raises(ValidationError, match="trials"):
            Arm(0)
        with pytest.raises(ValidationError, match="bias_theta"):
            Arm(10, 0.0)
        with pytest.raises(ValidationError, match="bias_theta"):
            Arm(10, 1.0)

    def test_spec_needs_four_arms(self):
        with pytest.raises(ValidationError, match="at least 4 arms"):
            CampaignSpec(0.5, (Arm(10), Arm(10), Arm(10)), 0)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 2.0])
    def test_spec_theta_range(self, theta):
        with pytest.raises(ValidationError, match="true_theta"):
            CampaignSpec(theta, tuple(Arm(10) for _ in range(4)), 0)

    def test_spec_seed_range(self):
        with pytest.raises(ValidationError, match="seed"):
            CampaignSpec(0.5, tuple(Arm(10) for _ in range(4)), -3)

    def test_effective_theta(self):
        spec = CampaignSpec(0.5, BIASED_ARMS, 42)
        assert spec.effective_theta(0) == 0.5
        assert spec.effective_theta(4) == 0.9

    def test_dict_round_trip(self):
        spec = CampaignSpec(0.5, BIASED_ARMS, 42)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    # the ids predate the shared object checker's wording and are kept as they were
    @pytest.mark.parametrize("data,fragment", [
        pytest.param([], "campaign spec: must be an object", id="data0-JSON object"),
        pytest.param({"true_theta": 0.5, "seed": 0, "arms": [], "extra": 1},
                     "campaign spec: unknown fields: extra", id="data1-unknown campaign fields"),
        pytest.param({"true_theta": 0.5}, "campaign spec: missing fields: seed, arms", id="data2-missing"),
        ({"true_theta": 0.5, "seed": 0, "arms": {}}, "must be an array"),
        ({"true_theta": 0.5, "seed": 0, "arms": [1, 2, 3, 4]}, "arm 0: must be an object"),
        ({"true_theta": 0.5, "seed": 0,
          "arms": [{"trials": 5}, {"trials": 5}, {"trials": 5}, {"size": 5}]},
         "arm 3: unknown fields"),
        pytest.param({"true_theta": 0.5, "seed": 0,
                      "arms": [{"trials": 5}, {"trials": 5}, {"trials": 5}, {}]},
                     "arm 3: missing fields: trials", id="data6-arm 3: missing 'trials'"),
        ({"true_theta": 0.5, "seed": 0,
          "arms": [{"trials": 0}, {"trials": 5}, {"trials": 5}, {"trials": 5}]},
         "arm 0"),
    ])
    def test_from_dict_errors(self, data, fragment):
        with pytest.raises(InputFormatError, match=fragment):
            CampaignSpec.from_dict(data)


class TestGenerate:
    def test_golden_seed_42(self):
        out = generate(CampaignSpec(0.5, BIASED_ARMS, 42))
        assert [(o.label, o.events, o.trials) for o in out.observations] == [
            ("arm01", 105, 200),
            ("arm02", 93, 200),
            ("arm03", 96, 200),
            ("arm04", 97, 200),
            ("arm05", 187, 200),
        ]

    def test_render_is_reproducible(self):
        spec = CampaignSpec(0.5, BIASED_ARMS, 42)
        assert render_observations(generate(spec), "csv") == render_observations(
            generate(spec), "csv")

    def test_labels_pad_to_width(self):
        out = generate(CampaignSpec(0.5, tuple(Arm(50) for _ in range(10)), 5))
        assert out.labels[0] == "arm01"
        assert out.labels[-1] == "arm10"

    def test_duplicate_draws_are_retained_with_warning(self):
        # single-trial arms can only draw 0 or 1, so posteriors collide
        out = generate(CampaignSpec(0.5, tuple(Arm(1) for _ in range(4)), 3))
        assert out.k == 4
        assert len(out.warnings) == 1
        assert "duplicate posteriors retained" in out.warnings[0]

    @pytest.mark.parametrize("arms", [BIASED_ARMS, tuple(Arm(1) for _ in range(6))],
                             ids=["distinct", "tied"])
    def test_posteriors_built_once_per_arm(self, arms, monkeypatch):
        calls = count_posterior_calls(monkeypatch)
        out = generate(CampaignSpec(0.5, arms, 42))
        assert calls == list(out.labels)

    def test_empirical_mean_within_three_se(self):
        arms = tuple(Arm(500) for _ in range(4))
        total = 0.0
        count = 0
        for seed in range(1000):
            for obs in generate(CampaignSpec(0.3, arms, seed)).observations:
                total += obs.events / obs.trials
                count += 1
        mean = total / count
        se = math.sqrt(0.3 * 0.7 / 500) / math.sqrt(count)
        assert abs(mean - 0.3) <= 3 * se
