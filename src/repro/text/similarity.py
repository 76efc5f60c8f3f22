"""Textual similarity measures between keyword sets.

UOTS combines a textual similarity with the spatial similarity; the library
defaults to Jaccard (symmetric, in ``[0, 1]``, and exactly zero without any
shared keyword — the property the pruning relies on) and also provides the
usual alternatives: Dice, overlap, cosine, and an idf-weighted Jaccard that
rewards matches on rare terms.

The four set measures are each defined once, as a closed form in
``(|a & b|, |a|, |b|)`` (:func:`get_count_form`).  The same formula scores
two keyword sets here and every trajectory of a snapshot at once in the
``scan`` engine, where the counts are NumPy arrays, so the two paths return
the same floats.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from repro.errors import QueryError

__all__ = [
    "jaccard",
    "dice",
    "overlap",
    "cosine",
    "weighted_jaccard",
    "get_measure",
    "get_count_form",
    "text_upper_bound",
    "TextMeasure",
    "CountForm",
]

TextMeasure = Callable[[frozenset[str], frozenset[str]], float]

#: ``(intersection, |a|, |b|) -> similarity``, on Python ints or on NumPy
#: integer arrays (elementwise; ``|a|`` may stay a scalar).
CountForm = Callable


def _ratio(numerator, denominator):
    """``numerator / denominator``, and 0 where the numerator is 0.  A
    denominator below is 0 only when a set is empty, and then so is the
    intersection: adding ``denominator == 0`` turns that 0 into 1 and
    leaves every other denominator exactly as it is, on Python numbers
    and NumPy arrays alike, without a branch on the type."""
    return numerator / (denominator + (denominator == 0))


def jaccard_count(intersection, a, b):
    """``i / (|a| + |b| - i)``."""
    return _ratio(intersection, a + b - intersection)


def dice_count(intersection, a, b):
    """``2i / (|a| + |b|)``."""
    return _ratio(2.0 * intersection, a + b)


def overlap_count(intersection, a, b):
    """``i / min(|a|, |b|)``."""
    smaller = np.minimum(a, b) if isinstance(intersection, np.ndarray) else min(a, b)
    return _ratio(intersection, smaller)


def cosine_count(intersection, a, b):
    """``i / sqrt(|a| |b|)``."""
    root = np.sqrt if isinstance(intersection, np.ndarray) else math.sqrt
    return _ratio(intersection, root(a * b))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """``|a & b| / |a | b|``; 0 when either set is empty."""
    return jaccard_count(len(a & b), len(a), len(b))


def dice(a: frozenset[str], b: frozenset[str]) -> float:
    """``2|a & b| / (|a| + |b|)``; 0 when either set is empty."""
    return dice_count(len(a & b), len(a), len(b))


def overlap(a: frozenset[str], b: frozenset[str]) -> float:
    """``|a & b| / min(|a|, |b|)``; 0 when either set is empty."""
    return overlap_count(len(a & b), len(a), len(b))


def cosine(a: frozenset[str], b: frozenset[str]) -> float:
    """Set cosine ``|a & b| / sqrt(|a| |b|)``; 0 when either set is empty."""
    return cosine_count(len(a & b), len(a), len(b))


def weighted_jaccard(
    idf: Mapping[str, float],
) -> TextMeasure:
    """Jaccard with per-keyword idf weights.

    Unknown keywords get the maximum observed idf (an unseen term is at
    least as discriminative as the rarest known one); with an empty mapping
    the measure degenerates to plain Jaccard.
    """
    default = max(idf.values(), default=1.0)

    def measure(a: frozenset[str], b: frozenset[str]) -> float:
        if not a or not b:
            return 0.0
        union = a | b
        inter = a & b
        if not inter:
            return 0.0
        weight = lambda k: idf.get(k, default)  # noqa: E731 - tiny local helper
        return sum(weight(k) for k in inter) / sum(weight(k) for k in union)

    return measure


def text_upper_bound(
    keywords: frozenset[str], measure: str, vocabulary: frozenset[str]
) -> float:
    """Upper bound on ``measure(keywords, T)`` over any ``T ⊆ vocabulary``.

    With ``c = |keywords ∩ vocabulary|`` and ``q = |keywords|``, any member
    keyword set ``T`` has ``i = |keywords ∩ T| <= c`` and ``|T| >= i``.
    Every closed form falls as ``|T|`` grows (each rounded step is
    monotone), so the measure is at most ``form(i, q, i)`` for some
    ``i <= c``, and the largest of those bounds it in floating point too
    (the algebraically equal ``sqrt(c / q)`` lands one ulp *below* some
    cosines).  Unknown measures fall back to the trivial bound (1 when
    any overlap is possible) — admissible, never wrong, just unprunable.

    Only the shard planner uses it: it proves whole shards unable to beat
    the running kth score (``vocabulary`` = the shard's union vocabulary,
    see :mod:`repro.shard.summary`).  The result cache knows a new
    trajectory's exact keywords and scores them with the closed form.
    """
    if not keywords:
        return 0.0
    c = len(keywords & vocabulary)
    if c == 0:
        return 0.0
    form = _COUNT_FORMS.get(measure)
    if form is None:
        return 1.0
    q = len(keywords)
    return max(form(i, q, i) for i in range(1, c + 1))


_MEASURES: dict[str, TextMeasure] = {
    "jaccard": jaccard,
    "dice": dice,
    "overlap": overlap,
    "cosine": cosine,
}

_COUNT_FORMS: dict[str, CountForm] = {
    "jaccard": jaccard_count,
    "dice": dice_count,
    "overlap": overlap_count,
    "cosine": cosine_count,
}


def get_count_form(name: str) -> CountForm:
    """The closed form of a measure :func:`get_measure` accepts (every
    query's ``text_measure`` has been validated by it)."""
    return _COUNT_FORMS[name]


def get_measure(name: str) -> TextMeasure:
    """Look up a similarity measure by name.

    All provided measures are symmetric, bounded by ``[0, 1]``, and return 0
    for disjoint sets — the three properties the search bounds assume.
    """
    try:
        return _MEASURES[name]
    except KeyError:
        raise QueryError(
            f"unknown text measure {name!r}; choose from {sorted(_MEASURES)}"
        ) from None
