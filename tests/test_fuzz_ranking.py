"""Property tests: the search ranking equals a Python sort of its keys by (key, id).

The full order of ``_rank`` and the hit mask of ``_hit_mask``, which ranks
only the relevant items, both match ``oracles.stable_order``, and the APs of
``evaluate`` and ``evaluate_pq`` match AP over the full order, of
``exact_search`` and the stable order of the ADC scores, bit for bit. The keys are small integer-valued floats, so most rows hold long
runs of equal keys; both zeros appear, and they compare equal. Batches mix
rows that tie with rows that do not. Runs are derandomized so the suite
stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import stable_order
from sspq.errors import EmptyGalleryError, NonFiniteInputError
from sspq.evaluation import (
    _hit_mask,
    _rank,
    average_precision,
    evaluate,
    evaluate_pq,
    exact_search,
)
from sspq.quantizer import ProductCodebook, adc_scores

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

VALUES = st.sampled_from([-3.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def key_batches(draw):
    """An (nq, n) float64 batch whose rows tie densely, tie fully or not at all."""
    n = draw(st.integers(1, 300))
    row = st.one_of(
        st.lists(VALUES, min_size=n, max_size=n),
        VALUES.map(lambda v: [v] * n),
        st.permutations([float(i) for i in range(n)]),
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=4)), dtype=np.float64)


@FUZZ
@given(key_batches())
@example(np.array([[0.0], [-0.0], [2.0]]))
@example(np.array([[-0.0, 0.0] * 40, [0.0, -0.0] * 40]))
@example(np.array([[1.0] * 100, list(np.arange(100.0)[::-1])]))
def test_rank_equals_stable_argsort(keys):
    np.testing.assert_array_equal(_rank(keys), stable_order(keys))


@st.composite
def hit_problems(draw):
    """1 to 5 rows of keys that tie densely, fully or not at all, and a mask with a hit in every row.

    Some batches copy one key column over others, as duplicate gallery rows do.
    """
    n = draw(st.integers(1, 300))
    row = st.one_of(
        st.lists(VALUES, min_size=n, max_size=n),
        VALUES.map(lambda v: [v] * n),
        st.permutations([float(i) for i in range(n)]),
    )
    keys = np.array(draw(st.lists(row, min_size=1, max_size=5)), dtype=np.float64)
    if draw(st.booleans()):
        copies = draw(st.lists(st.integers(0, n - 1), max_size=n))
        keys[:, copies] = keys[:, [draw(st.integers(0, n - 1))]]
    nq = keys.shape[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    relevant = rng.random((nq, n)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    relevant[np.arange(nq), draw(st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq))] = True
    return keys, relevant


@FUZZ
@given(hit_problems())
@example((np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]]), np.array([[False, True, False], [True, False, True]])))
@example((np.array([[2.0, 1.0, 1.0, 0.0]]), np.array([[True, False, False, True]])))
@example((np.array([[5.0]]), np.array([[True]])))
def test_hit_mask_equals_the_stable_order_of_the_relevance(problem):
    keys, relevant = problem
    expected = np.take_along_axis(relevant, stable_order(keys), -1)
    # ADC keys arrive as the transpose of an (n, nq) array, with strided rows.
    for layout in (keys, np.ascontiguousarray(keys.T).T):
        np.testing.assert_array_equal(_hit_mask(layout, relevant), expected)


# Few directions, with a zero row and orthogonal pairs, so cosines tie exactly
# and take both zeros; codes over K=3 repeat, so ADC distances tie too.
POOL = np.array(
    [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [-1, 0, 2, 0], [0, 0, 0, -3], [2, 2, 0, 0]],
    dtype=np.float64,
)
CODEBOOK = ProductCodebook([[[0, 0], [1, 0], [0, 1]], [[0, 0], [0, 2], [-1, 0]]])


@st.composite
def search_problems(draw):
    """Queries, a gallery with duplicate rows, its codes and labels; every query has a hit."""
    n, nq = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    rows = st.lists(st.integers(0, len(POOL) - 1), min_size=n, max_size=n)
    gallery = POOL[draw(rows)]
    queries = POOL[draw(st.lists(st.integers(0, len(POOL) - 1), min_size=nq, max_size=nq))]
    codes = np.array(draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=n, max_size=n)))
    gallery_labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    query_labels = gallery_labels[draw(st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq))]
    return queries, gallery, codes.astype(np.uint8), query_labels, gallery_labels


@FUZZ
@given(search_problems())
def test_evaluations_score_the_full_order_bit_for_bit(problem):
    queries, gallery, codes, ql, gl = problem
    exact = average_precision(gl[exact_search(queries, gallery)] == ql[:, None])
    assert evaluate(queries, gallery, ql, gl).per_query_ap.tobytes() == exact.tobytes()
    pq = average_precision(gl[stable_order(adc_scores(CODEBOOK, codes, queries))] == ql[:, None])
    assert evaluate_pq(queries, codes, CODEBOOK, ql, gl).per_query_ap.tobytes() == pq.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_key_raises_before_any_ranking(monkeypatch, bad):
    monkeypatch.setattr(np, "sort", None)  # any ranking fails with TypeError
    monkeypatch.setattr(np, "argsort", None)
    # The other keys are small, or large enough that their sum overflows.
    for fill in (1.0, 1e308):
        keys = np.array([[0.0, fill, 2.0], [fill, fill, 0.0]])
        keys[1, 2] = bad
        with pytest.raises(NonFiniteInputError):
            _hit_mask(keys, np.array([[True, False, False], [False, True, False]]))
        with pytest.raises(NonFiniteInputError):
            _rank(keys)


def test_finite_keys_whose_sum_overflows_rank_without_a_warning():
    # The suite turns warnings into errors, so an overflow in the finiteness check fails here.
    keys = np.array([[1e308, 1.7e308, -1e308, 1e308], [1.7e308, 1.7e308, 0.0, 1.7e308]])
    relevant = np.array([[True, False, False, True], [False, True, True, False]])
    np.testing.assert_array_equal(_rank(keys), stable_order(keys))
    np.testing.assert_array_equal(_hit_mask(keys, relevant), np.take_along_axis(relevant, stable_order(keys), -1))


def test_an_empty_gallery_raises_in_both_evaluations():
    queries, labels = POOL[1:3], np.array([0, 1])
    with pytest.raises(EmptyGalleryError):
        evaluate(queries, np.empty((0, 4)), labels, np.empty(0, dtype=np.int64))
    with pytest.raises(EmptyGalleryError):
        evaluate_pq(queries, np.empty((0, 2), dtype=np.uint8), CODEBOOK, labels, np.empty(0, dtype=np.int64))
