import numpy as np
import pytest

from drafttube.doe import DoePlan, lhs, read_samples_csv, write_samples_csv


def make_plan(n=50, m=6, seed=0):
    return DoePlan(n, np.full(m, -0.25), np.full(m, 0.25), seed=seed)


class TestPlanValidation:
    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            DoePlan(0, np.zeros(3), np.ones(3))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            DoePlan(10, np.ones(3), np.zeros(3))

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            DoePlan(10, np.zeros(3), np.ones(4))


class TestLhs:
    def test_shape_and_bounds(self):
        plan = make_plan(n=200, m=14, seed=3)
        X = lhs(plan)
        assert X.shape == (200, 14)
        assert np.all(X >= plan.lb) and np.all(X <= plan.ub)

    def test_one_sample_per_stratum_per_dimension(self):
        plan = make_plan(n=64, m=5, seed=9)
        X = lhs(plan)
        unit = (X - plan.lb) / (plan.ub - plan.lb)
        strata = np.floor(unit * plan.n_samples).astype(int)
        for j in range(plan.m_dims):
            np.testing.assert_array_equal(np.sort(strata[:, j]),
                                          np.arange(plan.n_samples))

    def test_seed_reproducibility(self):
        a = lhs(make_plan(seed=4))
        b = lhs(make_plan(seed=4))
        c = lhs(make_plan(seed=5))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_asymmetric_bounds(self):
        lb = np.array([-0.25, 0.0])
        ub = np.array([0.0, 0.25])
        X = lhs(DoePlan(30, lb, ub, seed=1))
        assert np.all(X[:, 0] <= 0.0) and np.all(X[:, 1] >= 0.0)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        X = lhs(make_plan(n=37, m=18, seed=11))
        path = tmp_path / "samples.csv"
        write_samples_csv(path, X, "lineage line")
        np.testing.assert_array_equal(read_samples_csv(path), X)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_samples_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            read_samples_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_values_with_line(self, tmp_path, bad):
        path = tmp_path / "nan.csv"
        path.write_text(f"# lineage\nx1,x2\n0.1,0.2\n{bad},0.0\n")
        with pytest.raises(ValueError, match=r"nan\.csv:4: non-finite"):
            read_samples_csv(path)
