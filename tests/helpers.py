"""Small shared builders for the test modules."""
import random

from betasieve.posterior import Observation, validate_set


def count_posterior_calls(monkeypatch):
    """Count posterior_of calls, in every module that binds the name; returns the labels seen."""
    from betasieve import cli, detection, posterior, synth

    calls = []
    real = posterior.posterior_of

    def counting(observation):
        calls.append(observation.label)
        return real(observation)

    for module in (posterior, detection, cli, synth):
        monkeypatch.setattr(module, "posterior_of", counting, raising=False)
    return calls


def make_set(events, trials, allow_duplicates=False, labels=None):
    """Build a validated set from parallel count lists."""
    if labels is None:
        labels = [f"s{i}" for i in range(len(events))]
    obs = [Observation(lab, N, n) for lab, N, n in zip(labels, events, trials)]
    return validate_set(obs, allow_duplicates=allow_duplicates)


def random_count_sets(seed, count, k_range=(4, 10), n_range=(10, 500)):
    """Reproducible random (events, trials) list pairs with distinct rows.

    Events stay strictly inside (0, trials) so no posterior has a shape
    parameter of exactly 1, and rows are pairwise distinct so similarity
    ties cannot arise from duplicate posteriors.
    """
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        k = rng.randint(*k_range)
        while True:
            trials = [rng.randint(*n_range) for _ in range(k)]
            events = [rng.randint(1, n - 1) for n in trials]
            if len(set(zip(events, trials))) == k:
                break
        sets.append((events, trials))
    return sets
