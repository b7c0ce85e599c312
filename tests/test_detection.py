"""Checklist construction, outlier nomination, and the screening loop."""
import random
import tracemalloc
from pathlib import Path

import pytest

from betasieve import _arrays, detection
from betasieve.detection import (
    Checklist,
    build_checklist,
    checklist_count,
    detect,
    find_outlier,
    similarity_list,
)
from betasieve.formats import read_observations
from betasieve.posterior import Observation
from betasieve.similarity import overlap_grid

from helpers import make_set, random_count_sets
from reference import reference_run

PLANTED = ([50, 51, 49, 50, 180], [100, 100, 100, 100, 200])
CONCORDANT = ([50, 49, 51, 50, 48], [100, 100, 100, 100, 100])
FRAGMENTED4 = ([50, 51, 49, 95], [100, 100, 100, 100])
MIXED = ([15, 11, 7, 29, 100], [30, 20, 15, 60, 200])
# the largest set the scalar loop serves and the smallest the array evaluator does
K_SCALAR = max(k for k in range(2, 100) if k * (k - 1) // 2 < detection._ARRAY_MIN_PAIRS)
K_ARRAY = K_SCALAR + 1
DATA = Path(__file__).parent / "data"


class TestSimilarityList:
    def test_pair_count_k4(self):
        s = make_set(*FRAGMENTED4)
        assert len(similarity_list(s)) == 6

    def test_pair_count_k5(self):
        s = make_set(*MIXED)
        assert len(similarity_list(s)) == 10

    def test_lexicographic_order(self):
        s = make_set(*MIXED)
        pairs = [(ps.i, ps.j) for ps in similarity_list(s)]
        assert pairs == [(i, j) for i in range(5) for j in range(i + 1, 5)]

    def test_identical_posteriors_all_one(self):
        s = make_set([5, 5, 5, 5], [10, 10, 10, 10], allow_duplicates=True)
        assert all(ps.value == 1.0 for ps in similarity_list(s))

    def test_unknown_method(self):
        s = make_set(*MIXED)
        with pytest.raises(ValueError, match="method"):
            similarity_list(s, method="quadrature")

    def test_grid_matches_exact_closely(self):
        s = make_set(*MIXED)
        exact = similarity_list(s, method="exact")
        grid = similarity_list(s, method="grid", grid_step=0.001)
        for e, g in zip(exact, grid):
            assert abs(e.value - g.value) < 5e-3


class TestGridMatrix:
    @pytest.mark.parametrize("step", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("table", ["wide_hundred", "random-k12"])
    def test_set_values_equal_pair_by_pair(self, table, step):
        # a set's grid overlaps come from one matrix; numpy must reduce each
        # of its rows exactly as it reduces the pair's own 1-D array
        if table == "wide_hundred":
            s = read_observations(DATA / "wide_hundred.csv")
        else:
            s = make_set(*random_count_sets(1212, 1, k_range=(12, 12), n_range=(10, 100_000))[0])
        posts = s.posteriors
        got = [repr(ps.value) for ps in similarity_list(s, method="grid", grid_step=step)]
        assert got == [repr(overlap_grid(posts[i], posts[j], step))
                       for i in range(s.k) for j in range(i + 1, s.k)]

    def test_memory_does_not_grow_with_the_set(self):
        # at step 1e-5 a log-density row (800 kB) fills a tile on its own, so
        # the set is summed pair by pair and needs about what one pair needs,
        # as the per-pair loop did: a handful of rows, not a k x G matrix
        step = 1e-5
        s = make_set(*random_count_sets(1212, 1, k_range=(12, 12), n_range=(10, 100_000))[0])
        posts = s.posteriors
        row_bytes = _arrays._grid_logs(step)[0].nbytes  # also caches the grid outside the trace
        tracemalloc.start()
        try:
            got = similarity_list(s, method="grid", grid_step=step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * row_bytes  # 4.1 rows here; the per-pair loop took 3
        assert [repr(ps.value) for ps in got] == [repr(overlap_grid(posts[ps.i], posts[ps.j], step)) for ps in got]

    @pytest.mark.parametrize("step", [0.0, -1e-3, 0.02, float("nan"), float("inf")])
    @pytest.mark.parametrize("call", [similarity_list, detect, find_outlier])
    def test_step_checked_for_the_set(self, call, step):
        with pytest.raises(ValueError, match=r"step must lie in \(0, 0\.01\]"):
            call(make_set(*MIXED), method="grid", grid_step=step)


def _pairs(values_by_pair):
    from betasieve.similarity import PairSimilarity
    return [PairSimilarity(i, j, v) for (i, j), v in values_by_pair.items()]


class TestPairwisePaths:
    @pytest.mark.parametrize("k, path", [(K_SCALAR, "scalar"), (K_ARRAY, "array")])
    def test_path_follows_pair_count(self, monkeypatch, k, path):
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        # each is patched where the pairwise loop looks it up
        for module, name in ((detection, "overlap_exact"), (_arrays, "_overlap_exact_pairs")):
            monkeypatch.setattr(module, name, counted(module, name))
        events, trials = random_count_sets(11, 1, k_range=(k, k))[0]
        similarity_list(make_set(events, trials))
        pairs = k * (k - 1) // 2
        if path == "scalar":
            assert calls == ["overlap_exact"] * pairs
        else:
            assert calls == ["_overlap_exact_pairs"] * -(-pairs // detection._BLOCK_PAIRS)

    @pytest.mark.parametrize("k", [K_SCALAR, K_ARRAY])
    def test_verdicts_match_reference_either_side(self, k):
        for events, trials in random_count_sets(1700 + k, 20, k_range=(k, k)):
            outcome = detect(make_set(events, trials), method="exact")
            removed, fragmented = reference_run(events, trials)
            assert [(o.events, o.trials) for o in outcome.outliers] == removed
            assert outcome.fragmented == fragmented


class TestBuildChecklist:
    def test_strict_ordering(self):
        pairs = _pairs({
            (0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3,
            (1, 2): 0.9, (1, 3): 0.9, (2, 3): 0.9,
        })
        cl = build_checklist(pairs, 4)
        assert [(p.i, p.j, p.value) for p in cl.entries] == [
            (0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3)]

    def test_all_equal_takes_lexicographic_prefix(self):
        pairs = _pairs({(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)})
        cl = build_checklist(pairs, 4)
        assert [(p.i, p.j) for p in cl.entries] == [(0, 1), (0, 2), (0, 3)]

    def test_ascending_by_value(self):
        pairs = _pairs({
            (0, 1): 0.9, (0, 2): 0.1, (0, 3): 0.5,
            (1, 2): 0.2, (1, 3): 0.8, (2, 3): 0.3,
        })
        cl = build_checklist(pairs, 4)
        assert [p.value for p in cl.entries] == [0.1, 0.2, 0.3]

    def test_size_mismatch(self):
        cases = [
            (_pairs({(0, 1): 0.5}), 4),
            # the right length, but one pair six times, or an index beyond k
            (_pairs({(0, 1): 0.1}) * 6, 4),
            (_pairs({(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3, (1, 2): 0.4, (1, 3): 0.5, (2, 4): 0.6}), 4),
            ([], 1),
        ]
        for pairs, k in cases:
            with pytest.raises(ValueError, match="does not match"):
                build_checklist(pairs, k)


class TestChecklistCount:
    def test_in_every_entry(self):
        cl = Checklist(tuple(_pairs({(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3})))
        labels = ["a", "b", "c", "d"]
        assert checklist_count("a", cl, labels) == 3

    def test_in_no_entry(self):
        cl = Checklist(tuple(_pairs({(0, 1): 0.1, (0, 2): 0.2})))
        assert checklist_count("d", cl, ["a", "b", "c", "d"]) == 0

    def test_three_set_shared_member(self):
        # any two distinct pairs over three elements share exactly one member
        cl = Checklist(tuple(_pairs({(0, 1): 0.1, (0, 2): 0.2})))
        labels = ["a", "b", "c"]
        assert checklist_count("a", cl, labels) == 2
        assert checklist_count("b", cl, labels) == 1
        assert checklist_count("c", cl, labels) == 1

    def test_unknown_label(self):
        cl = Checklist(tuple(_pairs({(0, 1): 0.1})))
        with pytest.raises(ValueError, match="unknown label"):
            checklist_count("zz", cl, ["a", "b"])


class TestFindOutlier:
    def test_planted_remote_is_nominated(self):
        s = make_set(*PLANTED, allow_duplicates=True)
        assert find_outlier(s) == "s4"

    def test_concordant_nominates_nobody(self):
        assert find_outlier(make_set(*CONCORDANT, allow_duplicates=True)) is None

    def test_mixed_nominates_nobody(self):
        assert find_outlier(make_set(*MIXED)) is None

    def test_all_identical_nominates_nobody(self):
        s = make_set([5, 5, 5, 5], [10, 10, 10, 10], allow_duplicates=True)
        assert find_outlier(s) is None

    def test_pair_set_nominates_nobody(self):
        # both members sit in the single least-similar pair
        obs = [Observation("a", 5, 10), Observation("b", 90, 100)]
        assert find_outlier(obs) is None

    def test_plain_sequence_accepted(self):
        obs = [Observation(lab, N, n) for lab, N, n in
               zip("abcde", *PLANTED)]
        assert find_outlier(obs) == "e"

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            find_outlier([Observation("a", 5, 10)])

    def test_duplicate_labels_rejected(self):
        obs = [Observation("a", 5, 10), Observation("a", 6, 10)]
        with pytest.raises(ValueError, match="unique"):
            find_outlier(obs)


class TestDetect:
    def test_planted_grid_keeps_quartet(self):
        s = make_set(*PLANTED, allow_duplicates=True)
        out = detect(s, method="grid", grid_step=0.001)
        assert [o.label for o in out.outliers] == ["s4"]
        assert [o.label for o in out.kept] == ["s0", "s1", "s2", "s3"]
        assert out.fragmented is False
        assert len(out.warnings) == 2
        assert "duplicate posteriors retained" in out.warnings[0]
        assert "checklist boundary tie" in out.warnings[1]
        assert "(s0, s1), (s0, s2), (s1, s3), (s2, s3)" in out.warnings[1]
        assert "settled by index order" in out.warnings[1]
        assert [t.removed for t in out.trace] == ["s4", None]
        assert out.trace[1].checklist_counts == {"s0": 2, "s1": 2, "s2": 2, "s3": 0}

    def test_planted_exact_sits_on_a_knife_edge(self):
        # After the remote observation goes, the surviving quartet's
        # non-duplicate pair overlaps are equal as real numbers (the two
        # configurations are mirror images).  Both evaluators return equal
        # floats for them (exact: by its canonical orientation), the tie is
        # seen, and nomination stops, as under grid.  Pinned to catch
        # either side moving.
        s = make_set(*PLANTED, allow_duplicates=True)
        sims = {(ps.i, ps.j): ps.value for ps in similarity_list(s)}
        assert sims[(0, 1)] == sims[(0, 2)] == sims[(1, 3)] == sims[(2, 3)] == 0.9207999322303203
        out = detect(s, method="exact")
        assert out.fragmented is False
        assert [o.label for o in out.outliers] == ["s4"]
        assert [o.label for o in out.kept] == ["s0", "s1", "s2", "s3"]
        assert [t.removed for t in out.trace] == ["s4", None]
        assert len(out.warnings) == 2
        assert "(s0, s1), (s0, s2), (s1, s3), (s2, s3)" in out.warnings[1]

    def test_concordant_keeps_everyone(self):
        s = make_set(*CONCORDANT, allow_duplicates=True)
        out = detect(s)
        assert out.outliers == ()
        assert [o.label for o in out.kept] == ["s0", "s1", "s2", "s3", "s4"]
        assert out.fragmented is False

    def test_fragmented_quartet(self):
        s = make_set(*FRAGMENTED4)
        out = detect(s)
        assert out.fragmented is True
        assert out.kept == ()
        # the s1/s2 mirror tie leaves the last three without a nominee,
        # so they follow in input order
        assert [o.label for o in out.outliers] == ["s3", "s0", "s1", "s2"]
        # exactly k-3 = 1 removal round before the floor
        assert [t.removed for t in out.trace] == ["s3"]

    def test_trace_structure(self):
        s = make_set(*PLANTED, allow_duplicates=True)
        out = detect(s, method="grid", grid_step=0.001)
        for rnd in out.trace:
            k = len(rnd.surviving_labels)
            assert len(rnd.checklist.entries) == k - 1
            assert set(rnd.checklist_counts) == set(rnd.surviving_labels)
            assert all(0 <= c <= k - 1 for c in rnd.checklist_counts.values())
            if rnd.removed is not None:
                assert rnd.removed in rnd.surviving_labels
                assert rnd.checklist_counts[rnd.removed] == k - 1

    def test_deterministic(self):
        s = make_set(*MIXED)
        assert detect(s) == detect(s)

    def test_precomputed_pairs_match(self):
        s = make_set(*MIXED)
        sims = similarity_list(s)
        assert detect(s, pairs=sims) == detect(s)

    @pytest.mark.parametrize("method", ["exact", "grid"])
    def test_precomputed_pairs_in_any_order(self, method):
        rng = random.Random(7)
        for events, trials in [PLANTED, MIXED, FRAGMENTED4, *random_count_sets(77, 6)]:
            s = make_set(events, trials, allow_duplicates=True)
            shuffled = list(similarity_list(s, method=method))
            rng.shuffle(shuffled)
            assert detect(s, method=method, pairs=shuffled) == detect(s, method=method)

    def test_precomputed_pairs_length_checked(self):
        s = make_set(*MIXED)
        sims = similarity_list(s)
        # too short, and the right length with one pair given twice
        for bad in (sims[:-1], sims[:-1] + sims[:1]):
            with pytest.raises(ValueError, match="does not match"):
                detect(s, pairs=bad)

    def test_conservation_and_partition(self):
        for events, trials in random_count_sets(2024, 12):
            s = make_set(events, trials)
            out = detect(s)
            assert len(out.kept) + len(out.outliers) == s.k
            assert sorted(o.label for o in out.kept + out.outliers) == sorted(s.labels)
            assert out.fragmented == (len(out.kept) == 0)
            if not out.fragmented:
                assert len(out.kept) >= 4

    def test_permutation_equivariance(self):
        rng = random.Random(5150)
        checked = 0
        for events, trials in random_count_sets(31337, 10):
            s = make_set(events, trials)
            values = [ps.value for ps in similarity_list(s)]
            if len(set(values)) != len(values):
                continue  # tie behavior is covered by the determinism test
            order = list(range(len(events)))
            rng.shuffle(order)
            permuted = make_set(
                [events[i] for i in order],
                [trials[i] for i in order],
                labels=[f"s{i}" for i in order],
            )
            base = detect(s)
            moved = detect(permuted)
            assert {o.label for o in base.kept} == {o.label for o in moved.kept}
            assert [o.label for o in base.outliers] == [o.label for o in moved.outliers] or (
                base.fragmented
                and {o.label for o in base.outliers} == {o.label for o in moved.outliers}
            )
            assert base.fragmented == moved.fragmented
            checked += 1
        assert checked >= 8
