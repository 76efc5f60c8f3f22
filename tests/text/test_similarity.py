"""Unit and property tests for textual similarity measures."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.text.similarity import (
    cosine,
    dice,
    get_count_form,
    get_measure,
    jaccard,
    overlap,
    text_upper_bound,
    weighted_jaccard,
)

keyword_sets = st.frozensets(
    st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=6
)

ALL_MEASURES = [jaccard, dice, overlap, cosine]


class TestExactValues:
    def test_jaccard(self):
        assert jaccard(frozenset("ab"), frozenset("bc")) == pytest.approx(1 / 3)

    def test_dice(self):
        assert dice(frozenset("ab"), frozenset("bc")) == pytest.approx(0.5)

    def test_overlap(self):
        assert overlap(frozenset("ab"), frozenset("abcd")) == pytest.approx(1.0)

    def test_cosine(self):
        assert cosine(frozenset("ab"), frozenset("b")) == pytest.approx(
            1 / (2**0.5)
        )


class TestProperties:
    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=keyword_sets, b=keyword_sets)
    def test_range_and_symmetry(self, measure, a, b):
        value = measure(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(measure(b, a))

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=keyword_sets)
    def test_self_similarity_is_one(self, measure, a):
        if a:
            assert measure(a, a) == pytest.approx(1.0)

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=keyword_sets, b=keyword_sets)
    def test_disjoint_sets_score_zero(self, measure, a, b):
        if not (a & b):
            assert measure(a, b) == 0.0

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=keyword_sets)
    def test_empty_set_scores_zero(self, measure, a):
        assert measure(a, frozenset()) == 0.0
        assert measure(frozenset(), a) == 0.0


class TestWeightedJaccard:
    def test_degenerates_to_jaccard_with_uniform_weights(self):
        measure = weighted_jaccard({"a": 1.0, "b": 1.0, "c": 1.0})
        a, b = frozenset("ab"), frozenset("bc")
        assert measure(a, b) == pytest.approx(jaccard(a, b))

    def test_rare_term_matches_score_higher(self):
        idf = {"rare": 10.0, "common": 1.0, "x": 1.0}
        measure = weighted_jaccard(idf)
        rare_match = measure(frozenset(["rare", "x"]), frozenset(["rare", "common"]))
        common_match = measure(
            frozenset(["common", "x"]), frozenset(["rare", "common"])
        )
        assert rare_match > common_match

    @given(a=keyword_sets, b=keyword_sets)
    def test_range_and_symmetry(self, a, b):
        measure = weighted_jaccard({"a": 3.0, "b": 1.0, "c": 0.5})
        value = measure(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(measure(b, a))

    def test_empty_idf_table(self):
        measure = weighted_jaccard({})
        assert measure(frozenset("ab"), frozenset("ab")) == pytest.approx(1.0)


#: The set formulas written out per pair — the reference both forms of
#: every measure must reproduce to the last bit.
REFERENCE = {
    "jaccard": lambda a, b: len(a & b) / len(a | b) if a & b else 0.0,
    "dice": lambda a, b: 2.0 * len(a & b) / (len(a) + len(b)) if a and b else 0.0,
    "overlap": lambda a, b: len(a & b) / min(len(a), len(b)) if a and b else 0.0,
    "cosine": lambda a, b: len(a & b) / math.sqrt(len(a) * len(b)) if a and b else 0.0,
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_set_and_count_forms_agree_bit_for_bit_and_stay_bounded(name):
    """The frozenset measure, its closed form on Python ints and on NumPy
    arrays (``|a|`` a scalar, as the scan kernel passes it, or an array)
    return the same floats on random sets, empty ones included; and
    ``text_upper_bound`` bounds every value exactly, with no tolerance."""
    rng = random.Random(29)
    words = [f"w{i}" for i in range(14)]
    pairs = [
        (frozenset(rng.sample(words, rng.randint(0, 9))), frozenset(rng.sample(words, rng.randint(0, 9))))
        for _ in range(600)
    ]
    pairs += [(frozenset(), frozenset()), (frozenset("a"), frozenset()), (frozenset(), frozenset("a"))]
    measure, form = get_measure(name), get_count_form(name)
    want = np.array([REFERENCE[name](a, b) for a, b in pairs])
    assert np.array([measure(a, b) for a, b in pairs]).tobytes() == want.tobytes()
    shared = np.array([len(a & b) for a, b in pairs])
    sizes_a = np.array([len(a) for a, _ in pairs])
    sizes_b = np.array([len(b) for _, b in pairs])
    scalar = np.array([form(int(i), int(p), int(q)) for i, p, q in zip(shared, sizes_a, sizes_b)])
    assert scalar.tobytes() == want.tobytes()
    assert form(shared, sizes_a, sizes_b).tobytes() == want.tobytes()
    for size in np.unique(sizes_a).tolist():
        rows = sizes_a == size
        assert form(shared[rows], size, sizes_b[rows]).tobytes() == want[rows].tobytes()
    for (a, b), value in zip(pairs, want.tolist()):
        # ``b`` is one member set of the vocabulary ``b``.
        assert value <= text_upper_bound(a, name, b), (sorted(a), sorted(b))


class TestRegistry:
    def test_known_measures(self):
        for name in ("jaccard", "dice", "overlap", "cosine"):
            assert callable(get_measure(name))

    def test_unknown_measure_rejected(self):
        with pytest.raises(QueryError, match="unknown text measure"):
            get_measure("levenshtein")
