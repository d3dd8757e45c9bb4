import tracemalloc

import numpy as np
import pytest

from drafttube import dataset
from drafttube.dataset import (
    Dataset,
    DatasetError,
    MinMaxScaler,
    kfold,
    lof_filter,
    lof_scores,
    split,
)
from test_acceptance import _brute_lof


def grid_with_duplicates(seed=4):
    """45 rows: a 5x5 grid of step 0.1 (tied distances), 19 exact copies of
    grid points and one outlier, shuffled so ties and copies cross blocks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = 0.1 * np.array([(a, b) for a in range(5) for b in range(5)]) + 0.3
    X = np.vstack([grid, grid[rng.integers(0, 25, size=19)], [[1.5, 1.2]]])
    return X[rng.permutation(len(X))]


def blob_with_outlier(n=80, d=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.normal(0.0, 1.0, size=(n, d))
    X[0] = 25.0  # far outlier
    return X


class TestLof:
    def test_outlier_scores_highest(self):
        X = blob_with_outlier()
        scores = lof_scores(X, k_neighbors=10)
        assert np.argmax(scores) == 0
        assert scores[0] > 2.0
        # Inliers of a homogeneous blob hover near 1.
        assert np.median(scores[1:]) == pytest.approx(1.0, abs=0.2)

    def test_uniform_grid_is_all_inliers(self):
        g = np.linspace(0.0, 1.0, 9)
        X = np.array([(a, b) for a in g for b in g])
        scores = lof_scores(X, k_neighbors=8)
        np.testing.assert_allclose(scores, 1.0, atol=0.25)

    def test_duplicate_points_stay_finite(self):
        X = np.zeros((12, 3))
        scores = lof_scores(X, k_neighbors=4)
        assert np.all(np.isfinite(scores))

    def test_k_bounds(self):
        X = np.zeros((5, 2))
        with pytest.raises(DatasetError):
            lof_scores(X, k_neighbors=5)
        with pytest.raises(DatasetError):
            lof_scores(X, k_neighbors=0)

    @pytest.mark.parametrize("height", [1, 7, 44, 45])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_row_blocks_match_brute_force(self, monkeypatch, height, k):
        # 45 rows in blocks of 1, of 7 (the last one ragged: 3 rows), of 44
        # and 1, and in one block.
        X = grid_with_duplicates()
        monkeypatch.setattr(dataset, "_BLOCK_ENTRIES", height * len(X))
        np.testing.assert_allclose(lof_scores(X, k), _brute_lof(X, k),
                                   rtol=1e-10)

    def test_memory_stays_below_a_quarter_distance_matrix(self):
        n = 6000
        X = np.random.Generator(np.random.PCG64(2)).normal(size=(n, 20))
        tracemalloc.start()
        try:
            lof_scores(X, k_neighbors=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_memory_on_coincident_rows(self):
        # Every row neighbours every other one: n * (n - 1) pairs, about
        # 4 million here, held once as int32 indices and float distances.
        tracemalloc.start()
        try:
            lof_scores(np.zeros((2000, 20)), k_neighbors=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2 ** 20

    def test_filter_drops_the_outlier_only(self):
        X = blob_with_outlier()
        Y = np.zeros((len(X), 2))
        keep = lof_filter(X, Y, k_neighbors=10, threshold=1.5)
        assert not keep[0]
        assert keep[1:].mean() > 0.9

    def test_filter_considers_targets_too(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.normal(size=(60, 3))
        Y = rng.normal(size=(60, 2))
        Y[7] = 40.0  # outlier only in objective space
        keep = lof_filter(X, Y, k_neighbors=10, threshold=1.5)
        assert not keep[7]


class TestScaler:
    def test_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(3))
        V = rng.uniform(-3.0, 7.0, size=(40, 5))
        scaler = MinMaxScaler().fit(V)
        scaled = scaler.apply(V)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(scaler.invert(scaled), V, atol=1e-12)

    def test_serialization_round_trip(self):
        V = np.array([[1.0, -2.0], [3.0, 4.0]])
        scaler = MinMaxScaler().fit(V)
        clone = MinMaxScaler.from_dict(scaler.to_dict())
        np.testing.assert_allclose(clone.apply(V), scaler.apply(V))


class TestSplits:
    def test_split_is_a_partition(self):
        tr, te = split(100, ratio=0.8, seed=5)
        assert len(tr) == 80 and len(te) == 20
        assert len(np.intersect1d(tr, te)) == 0
        np.testing.assert_array_equal(np.sort(np.concatenate([tr, te])),
                                      np.arange(100))

    def test_split_reproducible(self):
        assert np.array_equal(split(50, seed=9)[0], split(50, seed=9)[0])
        assert not np.array_equal(split(50, seed=9)[0], split(50, seed=10)[0])

    def test_kfold_partitions_each_fold(self):
        idx = np.arange(83)
        folds = kfold(idx, k=5, seed=2)
        assert len(folds) == 5
        all_val = np.concatenate([va for _, va in folds])
        np.testing.assert_array_equal(np.sort(all_val), idx)
        for tr, va in folds:
            assert len(np.intersect1d(tr, va)) == 0
            assert len(tr) + len(va) == len(idx)


class TestDatasetPrepare:
    def test_scalers_fit_on_training_rows_only(self):
        rng = np.random.Generator(np.random.PCG64(7))
        X = rng.uniform(-0.25, 0.25, size=(200, 6))
        Y = rng.uniform(0.2, 0.8, size=(200, 2))
        data = Dataset.prepare(X, Y, ratio=0.8, seed=7)
        lo = data.X[data.train_idx].min(axis=0)
        hi = data.X[data.train_idx].max(axis=0)
        np.testing.assert_allclose(data.x_scaler.apply(lo), 0.0, atol=1e-12)
        np.testing.assert_allclose(data.x_scaler.apply(hi), 1.0, atol=1e-12)
        # Held-out rows may fall slightly outside [0, 1]; that is expected.
        assert data.X_train.shape[0] + data.X_test.shape[0] == len(data.X)

    def test_filter_runs_before_split(self):
        rng = np.random.Generator(np.random.PCG64(8))
        X = rng.normal(size=(120, 4))
        Y = rng.normal(size=(120, 2))
        X[3] = 50.0
        data = Dataset.prepare(X, Y, seed=8, k_neighbors=10)
        assert len(data.X) < 120
        assert not np.any(np.all(data.X == 50.0, axis=1))

    def test_rejects_non_finite(self):
        X = np.zeros((30, 3))
        X[0, 0] = np.nan
        with pytest.raises(DatasetError):
            Dataset.prepare(X, np.zeros((30, 2)))
