import numpy as np
import pytest

from sspq.quantizer import ProductCodebook


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_codebook():
    """Two subspaces of 2-D centroids, two centroids each."""
    return ProductCodebook(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[2.0, 2.0], [-1.0, 0.5]],
        ]
    )
