"""Property test: the search ranking equals a stable argsort of its keys.

The keys are small integer-valued floats, so most rows hold long runs of
equal keys; both zeros appear, and they compare equal. Batches mix rows
that tie with rows that do not. Runs are derandomized so the suite stays
deterministic.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sspq.evaluation import _rank

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
    np.testing.assert_array_equal(_rank(keys), np.argsort(keys, axis=-1, kind="stable"))
