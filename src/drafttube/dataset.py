"""Dataset preprocessing: LOF outlier filtering, min-max scaling and splits.

The pipeline order follows filter -> split -> scale; scalers are fitted on
training rows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DatasetError",
    "MinMaxScaler",
    "Dataset",
    "lof_scores",
    "lof_filter",
    "split",
    "kfold",
]

_EPS_DIST = 1e-12
# LOF holds about this many pairwise distances (one row block) at a time.
_BLOCK_ENTRIES = 1 << 20


class DatasetError(ValueError):
    """Raised for degenerate preprocessing input."""


# ---------------------------------------------------------------------------
# Local outlier factor
# ---------------------------------------------------------------------------

def lof_scores(X: np.ndarray, k_neighbors: int) -> np.ndarray:
    """Standard LOF scores for every row of ``X``.

    k-distance, reachability distance and local reachability density follow
    the textbook definitions; coincident points are kept finite via a floor
    on distances. Neighbor sets include all points within the k-distance
    (ties included); distances are built one block of rows at a time.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if not 0 < k_neighbors < n:
        raise DatasetError(f"k_neighbors = {k_neighbors} is not in [1, n-1] "
                           f"for n = {n} rows")
    sq = np.sum(X ** 2, axis=1)
    height = max(1, _BLOCK_ENTRIES // n)
    k_dist, pairs = np.empty(n), []
    for lo in range(0, n, height):
        blk = slice(lo, lo + height)
        dist = sq[blk, None] + sq[None, :] - 2.0 * (X[blk] @ X.T)
        np.fill_diagonal(dist[:, lo:], np.inf)
        dist = np.maximum(np.sqrt(np.maximum(dist, 0.0)), _EPS_DIST)
        k_dist[blk] = np.partition(dist, k_neighbors - 1)[:, k_neighbors - 1]
        # Neighbors: everything within the k-distance, ties included.
        r, c = np.nonzero(dist <= k_dist[blk, None] + _EPS_DIST)
        pairs.append(((r + lo).astype(np.int32), c.astype(np.int32),
                      dist[r, c]))
        del dist, r, c
    row, col, dist = (np.concatenate(p) for p in zip(*pairs))
    del pairs  # coincident rows give up to n * (n - 1) pairs: keep one copy
    count = np.bincount(row, minlength=n)
    lrd = count / np.bincount(row, np.maximum(k_dist[col], dist), n)
    return np.bincount(row, lrd[col], n) / count / lrd


def lof_filter(X: np.ndarray, Y: np.ndarray, k_neighbors: int = 20,
               threshold: float = 1.5) -> np.ndarray:
    """Keep-mask over rows: LOF computed on the standardized [X | Y] matrix.

    Rows with LOF above ``threshold`` are dropped. Features and targets are
    concatenated and standardized per column so every column weighs equally.
    """
    M = np.hstack([np.asarray(X, dtype=float), np.asarray(Y, dtype=float)])
    mu = M.mean(axis=0)
    sd = M.std(axis=0)
    sd[sd == 0] = 1.0
    scores = lof_scores((M - mu) / sd, k_neighbors)
    return scores <= threshold


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

@dataclass
class MinMaxScaler:
    """Per-column [0, 1] scaling; values outside the fitted range map outside."""

    mins: np.ndarray = None
    maxs: np.ndarray = None

    def fit(self, V: np.ndarray) -> "MinMaxScaler":
        V = np.asarray(V, dtype=float)
        self.mins = V.min(axis=0)
        self.maxs = V.max(axis=0)
        if np.any(self.maxs <= self.mins):
            raise DatasetError("constant column cannot be min-max scaled")
        return self

    def apply(self, V: np.ndarray) -> np.ndarray:
        return (np.asarray(V, dtype=float) - self.mins) / (self.maxs - self.mins)

    def invert(self, V: np.ndarray) -> np.ndarray:
        return np.asarray(V, dtype=float) * (self.maxs - self.mins) + self.mins

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        return cls(np.array(d["mins"], dtype=float), np.array(d["maxs"], dtype=float))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def split(n: int, ratio: float = 0.8, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test index split of ``n`` rows."""
    if not 0 < ratio < 1:
        raise DatasetError("split ratio must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    n_train = int(round(n * ratio))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def kfold(indices: np.ndarray, k: int = 5, seed: int = 0) -> list:
    """Split ``indices`` into k folds of size differing by at most one.

    Returns a list of (train_idx, val_idx) pairs.
    """
    indices = np.asarray(indices)
    if k < 2 or k > len(indices):
        raise DatasetError("k must be in [2, n]")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(indices)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        val = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        out.append((train, val))
    return out


@dataclass
class Dataset:
    """Filtered, split and scaled training data with its scaling state."""

    X: np.ndarray
    Y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    x_scaler: MinMaxScaler
    y_scaler: MinMaxScaler

    @classmethod
    def prepare(cls, X: np.ndarray, Y: np.ndarray, ratio: float = 0.8,
                seed: int = 0, k_neighbors: int = 20,
                lof_threshold: float = 1.5) -> "Dataset":
        """Filter outliers, split, then fit scalers on the training rows."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DatasetError("non-finite values in the dataset")
        keep = lof_filter(X, Y, k_neighbors=k_neighbors, threshold=lof_threshold)
        X, Y = X[keep], Y[keep]
        if len(X) < 10:
            raise DatasetError("fewer than 10 rows after filtering")
        train_idx, test_idx = split(len(X), ratio=ratio, seed=seed)
        x_scaler = MinMaxScaler().fit(X[train_idx])
        y_scaler = MinMaxScaler().fit(Y[train_idx])
        return cls(X, Y, train_idx, test_idx, x_scaler, y_scaler)

    @property
    def X_train(self) -> np.ndarray:
        return self.x_scaler.apply(self.X[self.train_idx])

    @property
    def Y_train(self) -> np.ndarray:
        return self.y_scaler.apply(self.Y[self.train_idx])

    @property
    def X_test(self) -> np.ndarray:
        return self.x_scaler.apply(self.X[self.test_idx])

    @property
    def Y_test(self) -> np.ndarray:
        return self.y_scaler.apply(self.Y[self.test_idx])
