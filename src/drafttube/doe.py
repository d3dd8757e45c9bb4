"""Latin hypercube sampling of the control-point offset space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluator import read_table, write_table, x_columns

__all__ = ["DoePlan", "lhs", "write_samples_csv", "read_samples_csv"]


@dataclass(frozen=True)
class DoePlan:
    """n_samples x m_dims stratified sampling plan with per-dimension bounds."""

    n_samples: int
    lb: np.ndarray
    ub: np.ndarray
    seed: int = 0

    def __post_init__(self):
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if lb.shape != ub.shape or lb.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if np.any(lb >= ub):
            raise ValueError("every dimension needs lb < ub")

    @property
    def m_dims(self) -> int:
        return len(self.lb)


def lhs(plan: DoePlan) -> np.ndarray:
    """Plain Latin hypercube sample.

    Each of the ``n_samples`` equal-width strata of [lb, ub) receives exactly
    one sample per dimension, placed uniformly within the stratum; column
    permutations are independent. Uses numpy's PCG64 generator so a fixed
    seed replicates across platforms.
    """
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    n, m = plan.n_samples, plan.m_dims
    u = rng.random((n, m))
    strata = np.empty((n, m), dtype=float)
    base = np.arange(n, dtype=float)
    for j in range(m):
        strata[:, j] = rng.permutation(base)
    unit = (strata + u) / n
    return plan.lb + unit * (plan.ub - plan.lb)


def write_samples_csv(path, samples: np.ndarray, header_comment: str = "") -> None:
    """Write a sample matrix as CSV with columns x1..xm."""
    samples = np.asarray(samples, dtype=float)
    write_table(path, header_comment, x_columns(samples.shape[1]), samples)


def read_samples_csv(path) -> np.ndarray:
    """Read a sample matrix written by write_samples_csv (see read_table)."""
    return read_table(path, lambda h: h == x_columns(len(h)))[1]
