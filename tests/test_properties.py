"""Generative invariant checks for the numeric primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drafttube.dataset import MinMaxScaler
from drafttube.decision import DecisionMatrix, topsis
from drafttube.doe import DoePlan, lhs
from drafttube.evaluator import gci
from drafttube.opt_multi import ParetoArchive, hypervolume2d

SETTINGS = settings(max_examples=50, deadline=None)


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: <= everywhere and < somewhere."""
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.all(a <= b) and np.any(a < b))


@SETTINGS
@given(n=st.integers(1, 60), m=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_lhs_always_stratified(n, m, seed):
    plan = DoePlan(n, np.full(m, -1.0), np.full(m, 3.0), seed=seed)
    X = lhs(plan)
    unit = (X - plan.lb) / (plan.ub - plan.lb)
    strata = np.floor(unit * n).astype(int)
    for j in range(m):
        assert sorted(strata[:, j]) == list(range(n))


@SETTINGS
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=1, max_size=60))
def test_archive_is_always_mutually_nondominated(points):
    F = np.array(points)
    archive = ParetoArchive()
    archive.add_many(np.zeros((len(F), 1)), F)
    front = archive.front()
    assert not any(dominates(g, h) for g in front for h in front)
    # Every input point is dominated by (or equal to) something kept.
    for f in F:
        assert any(dominates(g, f) or np.array_equal(g, f) for g in front)


@SETTINGS
@given(st.lists(st.tuples(st.floats(0.01, 10), st.floats(0.01, 10)),
                min_size=1, max_size=40),
       st.floats(0.05, 0.95))
def test_topsis_closeness_bounded_and_complete(rows, w_first):
    values = np.array(rows)
    weights = np.array([w_first, 1.0 - w_first])
    result = topsis(DecisionMatrix(values, weights, np.array([True, False])))
    assert np.all(result.closeness >= -1e-12)
    assert np.all(result.closeness <= 1.0 + 1e-12)
    assert sorted(result.ranking) == list(range(len(values)))


@SETTINGS
@given(st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
                min_size=2, max_size=40))
def test_scaler_round_trip(rows):
    # A spread row guarantees no constant column (those are rejected).
    V = np.vstack([np.array(rows), np.full(3, 200.0)])
    scaler = MinMaxScaler().fit(V)
    np.testing.assert_allclose(scaler.invert(scaler.apply(V)), V,
                               atol=1e-9, rtol=1e-9)


@SETTINGS
@given(p=st.floats(0.5, 4.0), eps_mf=st.floats(0.01, 20.0),
       r=st.floats(1.1, 3.0))
def test_gci_shared_normalization_inverts_exactly(p, eps_mf, r):
    rep = gci(eps_mf * r ** p, eps_mf, r, trend="shared")
    assert abs(rep.p_gci - p) < 1e-9
    assert rep.gci_cm > rep.gci_mf > 0


@SETTINGS
@given(st.lists(st.tuples(st.floats(0, 0.99), st.floats(0, 0.99)),
                min_size=1, max_size=30))
def test_hypervolume_is_monotone_under_union(points):
    F = np.array(points)
    half = F[: max(1, len(F) // 2)]
    hv_half = hypervolume2d(half, (1.0, 1.0))
    hv_all = hypervolume2d(F, (1.0, 1.0))
    assert hv_all >= hv_half - 1e-12
    assert hv_all <= 1.0
