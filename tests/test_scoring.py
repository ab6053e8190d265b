"""Score functions, monotonicity, interest model, and ranking."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpmine.graphs import canonical_pattern
from tpmine.scoring import (
    GTest,
    InfoGain,
    InterestModel,
    LogRatio,
    interest,
    load_blacklist,
    make_score_function,
    rank,
)
from tpmine.pruning import score_upper_bound

from conftest import random_pattern

ALL_VARIANTS = [LogRatio(), GTest(), InfoGain()]


class TestScoreValues:
    def test_logratio_full_support_zero_noise(self):
        assert LogRatio().score(1.0, 0.0) == pytest.approx(math.log(1e6), abs=1e-9)

    def test_logratio_symmetric_frequencies_near_zero(self):
        for x in (0.1, 0.5, 1.0):
            assert abs(LogRatio().score(x, x)) < 1e-4

    def test_logratio_zero_support_floor(self):
        fn = LogRatio()
        assert fn.score(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert fn.score(0.0, 0.5) == pytest.approx(math.log(1e-6 / 0.500001), abs=1e-9)

    def test_spot_monotonicity(self):
        for fn in ALL_VARIANTS:
            assert fn.score(0.8, 0.1) > fn.score(0.8, 0.2)
            assert fn.score(0.9, 0.1) > fn.score(0.8, 0.1)

    def test_out_of_range_rejected(self):
        # Frequencies are range-checked where the miner bounds a branch.
        with pytest.raises(ValueError):
            score_upper_bound(LogRatio(), 1.5)
        with pytest.raises(ValueError):
            score_upper_bound(LogRatio(), -0.1)

    def test_factory(self):
        assert isinstance(make_score_function("logratio"), LogRatio)
        assert make_score_function("gtest") == GTest()
        assert isinstance(make_score_function("infogain"), InfoGain)
        with pytest.raises(ValueError):
            make_score_function("nope")


class TestMonotonicityGrid:
    @pytest.mark.parametrize("fn", ALL_VARIANTS, ids=lambda f: f.name)
    def test_partial_antimonotonicity_on_grid(self, fn):
        n = 101
        grid = [i / (n - 1) for i in range(n)]
        vals = [[fn.score(x, y) for y in grid] for x in grid]
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    assert vals[i + 1][j] >= vals[i][j] - 1e-12, (grid[i], grid[j])
                if j + 1 < n:
                    assert vals[i][j + 1] <= vals[i][j] + 1e-12, (grid[i], grid[j])


class TestInterest:
    def model(self):
        return InterestModel(
            label_freq={"Common": 100, "Rare": 1, "Mid": 2, "Quarter": 4, "TmpFile": 3},
            blacklist=frozenset({"TmpFile"}),
        )

    def test_frequency_reciprocal(self):
        p = canonical_pattern(["Common", "Common"], [(0, 1, 1)])
        assert interest(p, self.model()) == pytest.approx(0.02)

    def test_blacklisted_label_contributes_zero(self):
        p = canonical_pattern(["TmpFile", "Rare"], [(0, 1, 1)])
        assert interest(p, self.model()) == pytest.approx(1.0)

    def test_three_node_sum(self):
        p = canonical_pattern(["Rare", "Mid", "Quarter"], [(0, 1, 1), (1, 2, 2)])
        assert interest(p, self.model()) == pytest.approx(1.75)

    def test_unknown_label_counts_as_most_interesting(self):
        p = canonical_pattern(["NeverSeen", "Common"], [(0, 1, 1)])
        assert interest(p, self.model()) == pytest.approx(1.01)

    def test_blacklisting_never_increases_interest(self):
        rng = random.Random(4)
        labels = "ABCD"
        model = InterestModel(label_freq={c: rng.randint(1, 9) for c in labels})
        for _ in range(100):
            p = random_pattern(rng, max_edges=4, labels=labels)
            banned = rng.choice(labels)
            more = InterestModel(model.label_freq, blacklist=frozenset({banned}))
            assert interest(p, more) <= interest(p, model) + 1e-12

    def test_load_blacklist(self, tmp_path):
        f = tmp_path / "bl.txt"
        f.write_text("# comment line\nTmpFile\nCacheFile  # trailing\n\n")
        assert load_blacklist(f) == {"TmpFile", "CacheFile"}


class TestRank:
    def model(self):
        return InterestModel(label_freq={"A": 1, "B": 2, "C": 4, "D": 8})

    def test_interest_breaks_score_ties(self):
        rare = canonical_pattern(["A", "B"], [(0, 1, 1)])
        common = canonical_pattern(["C", "D"], [(0, 1, 1)])
        out = rank([(common, 1.0, 1, 0), (rare, 1.0, 1, 0)], self.model(), k=2)
        assert out[0].pattern.key() == rare.key()

    def test_single_pattern(self):
        p = canonical_pattern(["A", "B"], [(0, 1, 1)])
        out = rank([(p, 2.0, 1, 0)], self.model(), k=5)
        assert len(out) == 1 and out[0].pattern.key() == p.key()

    def test_full_tie_resolved_by_canonical_text(self):
        p1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
        p2 = canonical_pattern(["B", "A"], [(0, 1, 1)])
        model = InterestModel(label_freq={"A": 2, "B": 2})
        first = rank([(p1, 1.0, 1, 0), (p2, 1.0, 1, 0)], model, k=2)
        second = rank([(p2, 1.0, 1, 0), (p1, 1.0, 1, 0)], model, k=2)
        assert [sp.pattern.text() for sp in first] == [sp.pattern.text() for sp in second]
        assert first[0].pattern.text() < first[1].pattern.text()

    def test_smaller_pattern_preferred_on_equal_score_and_interest(self):
        model = InterestModel(label_freq={"A": 1})
        small = canonical_pattern(["A", "A"], [(0, 1, 1)])
        # same labels twice -> same interest, more edges
        big = canonical_pattern(["A", "A"], [(0, 1, 1), (0, 1, 2)])
        out = rank([(big, 1.0, 1, 0), (small, 1.0, 1, 0)], model, k=2)
        assert out[0].pattern.n_edges == 1

    @given(st.lists(st.tuples(st.integers(0, 5), st.floats(-5, 5, allow_nan=False)), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_rank_is_total_and_deterministic(self, raw):
        rng = random.Random(77)
        model = InterestModel(label_freq={"A": 1, "B": 2, "C": 3, "D": 4})
        entries = []
        for i, (_, s) in enumerate(raw):
            p = random_pattern(random.Random(i), max_edges=3)
            entries.append((p, s, 1.0, 0.0))
        first = rank(entries, model, k=len(entries))
        shuffled = list(entries)
        rng.shuffle(shuffled)
        second = rank(shuffled, model, k=len(entries))
        assert [(sp.pattern.text(), sp.score) for sp in first] == [
            (sp.pattern.text(), sp.score) for sp in second
        ]
        scores = [sp.score for sp in first]
        assert scores == sorted(scores, reverse=True)
