from fractions import Fraction

import numpy as np
import pytest

from oracles import expression_mixture
from sspq.cli import _params_sha256
from sspq.errors import BadConfigError, LengthMismatchError
from sspq.evaluation import evaluate
from sspq.synth import (
    SPLITS,
    gen_mixture,
    make_oracle,
    oracle_encode,
)


class TestGenMixture:
    def test_counts(self):
        ds = gen_mixture(10, 20, 8, 0.1, seed=0, anchor_count=50, train_per_class=5)
        assert ds["query"][0].shape == (10, 8)
        assert ds["gallery"][0].shape == (190, 8)
        assert ds["query"][0].shape[0] + ds["gallery"][0].shape[0] == 200
        assert ds["train"][0].shape == (50, 8)
        assert ds["anchor"][0].shape == (50, 8)

    def test_zero_std_gives_perfect_symmetric_map(self):
        ds = gen_mixture(5, 4, 6, 0.0, seed=1, anchor_count=10, train_per_class=4)
        oracle = make_oracle(6, 8, seed=2)
        q = oracle_encode(oracle, ds["query"][0])
        g = oracle_encode(oracle, ds["gallery"][0])
        report = evaluate(q, g, ds["query"][1], ds["gallery"][1])
        assert report.map_score == pytest.approx(1.0)

    def test_deterministic(self):
        a = gen_mixture(4, 5, 7, 0.2, seed=3, anchor_count=16, train_per_class=5)
        b = gen_mixture(4, 5, 7, 0.2, seed=3, anchor_count=16, train_per_class=5)
        assert list(a) == list(b) == list(SPLITS)
        for split in SPLITS:
            assert a[split][0].tobytes() == b[split][0].tobytes()
            assert a[split][1].tobytes() == b[split][1].tobytes()

    @pytest.mark.parametrize("args", [
        (10, 20, 8, 0.1, 0, 50, 5),
        (64, 24, 32, 0.2, 1, 1024, 12),
        (3, 4, 5, 0, 2, 7, 9),
        (4, 6, 3, 1e300, 3, 5, 2),
    ])
    def test_rows_equal_the_expression_form(self, args):
        ds = gen_mixture(*args[:4], seed=args[4], anchor_count=args[5], train_per_class=args[6])
        expected = expression_mixture(*args)
        for split in SPLITS:
            assert ds[split][0].tobytes() == expected[split].tobytes(), split

    def test_splits_disjoint_and_exhaustive(self):
        ds = gen_mixture(4, 6, 5, 0.1, seed=4, anchor_count=20, train_per_class=3)
        assert sorted(ds) == sorted(SPLITS)
        for raw, labels in ds.values():
            assert raw.shape == (labels.shape[0], 5)
            assert labels.dtype == np.int64
        total = sum(raw.shape[0] for raw, _ in ds.values())
        assert total == 4 * 6 + 12 + 20
        counts = {s: ds[s][0].shape[0] for s in SPLITS}
        assert counts["query"] == 4
        assert counts["gallery"] == 4 * 5
        assert counts["train"] == 12
        assert counts["anchor"] == 20

    def test_one_query_per_class(self):
        ds = gen_mixture(6, 4, 5, 0.1, seed=5, anchor_count=8, train_per_class=4)
        labels = ds["query"][1]
        assert sorted(labels.tolist()) == list(range(6))

    def test_bad_config(self):
        with pytest.raises(BadConfigError):
            gen_mixture(1, 10, 4, 0.1, 0, 4096, 10)
        with pytest.raises(BadConfigError):
            gen_mixture(4, 1, 4, 0.1, 0, 4096, 1)

    def test_negative_seed_raises(self):
        with pytest.raises(BadConfigError):
            gen_mixture(4, 5, 4, 0.1, -1, 4096, 5)

    def test_cluster_std_that_overflows_a_row_raises(self):
        # Finite, but normal draws times 1e308 overflow float64; no warning escapes.
        with pytest.raises(BadConfigError, match="cluster_std"):
            gen_mixture(3, 4, 6, 1e308, seed=0, anchor_count=8, train_per_class=4)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_int_seed_raises(self, seed):
        with pytest.raises(BadConfigError):
            gen_mixture(4, 5, 4, 0.1, seed, 4096, 5)

    def test_fraction_cluster_std_draws_the_bytes_of_its_float(self):
        as_fraction = gen_mixture(4, 4, 3, Fraction(1, 10), 0, 4096, 4)
        as_float = gen_mixture(4, 4, 3, 0.1, 0, 4096, 4)
        for split in SPLITS:
            assert as_fraction[split][0].tobytes() == as_float[split][0].tobytes(), split

    def test_class_means_on_unit_sphere(self):
        ds = gen_mixture(8, 4, 16, 0.0, seed=6, anchor_count=8, train_per_class=4)
        for c in range(8):
            member = ds["gallery"][0][ds["gallery"][1] == c][0]
            assert np.linalg.norm(member) == pytest.approx(1.0, abs=1e-9)


class TestGalleryOracle:
    def test_outputs_unit_norm(self, rng):
        oracle = make_oracle(6, 10, seed=7)
        emb = oracle_encode(oracle, rng.normal(size=(20, 6)))
        assert emb.dtype == np.float64 and emb.shape == (20, 10)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)

    def test_deterministic(self, rng):
        raw = rng.normal(size=(5, 6))
        a = oracle_encode(make_oracle(6, 10, seed=8), raw)
        b = oracle_encode(make_oracle(6, 10, seed=8), raw)
        assert a.tobytes() == b.tobytes()

    def test_checksum_stable_and_frozen(self):
        oracle = make_oracle(4, 6, seed=9)
        before = _params_sha256(oracle)
        oracle_encode(oracle, np.random.default_rng(0).normal(size=(10, 4)))
        assert _params_sha256(oracle) == before
        with pytest.raises(ValueError):
            oracle.params[0][0, 0] = 1.0
        for p in oracle.params:
            with pytest.raises(ValueError):
                p.flat[0] = 1.0

    def test_same_class_more_similar_than_cross_class(self):
        ds = gen_mixture(12, 6, 16, 0.05, seed=10, anchor_count=8, train_per_class=6)
        oracle = make_oracle(16, 24, seed=11)
        emb = oracle_encode(oracle, ds["gallery"][0])
        labels = ds["gallery"][1]
        rng = np.random.default_rng(12)
        wins = 0
        trials = 400
        for _ in range(trials):
            c, other = rng.choice(12, size=2, replace=False)
            same = rng.choice(np.flatnonzero(labels == c), size=2, replace=False)
            cross = rng.choice(np.flatnonzero(labels == other))
            same_sim = float(emb[same[0]] @ emb[same[1]])
            cross_sim = float(emb[same[0]] @ emb[cross])
            wins += same_sim > cross_sim
        assert wins / trials >= 0.95

    def test_input_dim_checked(self):
        oracle = make_oracle(6, 8, seed=13)
        with pytest.raises(LengthMismatchError):
            oracle_encode(oracle, np.zeros((3, 5)))

    def test_negative_seed_raises(self):
        with pytest.raises(BadConfigError):
            make_oracle(4, 8, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_int_seed_raises(self, seed):
        with pytest.raises(BadConfigError):
            make_oracle(4, 8, seed=seed)
