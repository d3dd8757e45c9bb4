import numpy as np
import pytest

from drafttube.opt_single import (
    SoProblem,
    _other_member,
    _positive_cauchy,
    _random_coordinates,
    _third_member,
    linear_inertia,
    lshade_population_schedule,
    run_fwa,
    run_lshade,
    run_pso,
)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def rastrigin(x):
    x = np.asarray(x)
    return float(10.0 * len(x) + np.sum(x ** 2 - 10.0 * np.cos(2 * np.pi * x)))


def box_problem(dim, budget, seed=0, half_width=5.12):
    return SoProblem(sphere, np.full(dim, -half_width),
                     np.full(dim, half_width), budget=budget, seed=seed)


RUNNERS = {"pso": run_pso, "fwa": run_fwa, "lshade": run_lshade}


class TestProblem:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SoProblem(sphere, np.ones(3), np.ones(3))

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            SoProblem(sphere, np.zeros(2), np.ones(2), budget=0)


class TestHelpers:
    def test_linear_inertia_endpoints(self):
        assert linear_inertia(0, 100) == pytest.approx(0.9)
        assert linear_inertia(99, 100) == pytest.approx(0.4, abs=0.01)
        assert linear_inertia(50, 100) < linear_inertia(10, 100)

    def test_population_schedule_endpoints_and_monotonicity(self):
        total, n_init, n_min = 200, 100, 4
        sizes = [lshade_population_schedule(g, total, n_init, n_min)
                 for g in range(total + 1)]
        assert sizes[0] == n_init
        assert sizes[-1] == n_min
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert min(sizes) >= n_min


class TestDraws:
    """The population-wide random draws of L-SHADE and FWA."""

    def test_other_member_is_uniform_over_the_others(self):
        rng = np.random.Generator(np.random.PCG64(5))
        n, reps = 5, 20000
        r1 = np.array([_other_member(rng, n) for _ in range(reps)])
        counts = np.zeros((n, n))
        np.add.at(counts, (np.tile(np.arange(n), reps), r1.ravel()), 1)
        assert np.all(np.diag(counts) == 0)
        off = counts[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, reps / (n - 1), rtol=0.1)

    def test_third_member_is_uniform_over_pool_without_i_and_r1(self):
        rng = np.random.Generator(np.random.PCG64(6))
        n, pool, reps = 5, 9, 20000
        i = np.arange(n)
        counts = np.zeros((n, n, pool))
        for _ in range(reps):
            r1 = _other_member(rng, n)
            np.add.at(counts, (i, r1, _third_member(rng, r1, pool)), 1)
        assert np.all(counts[i, i, :] == 0)
        assert np.all(counts[i, :, i] == 0)
        assert np.all(counts[i[:, None], i, i] == 0)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                allowed = np.delete(counts[a, b], [min(a, b), max(a, b)])
                np.testing.assert_allclose(
                    allowed, counts[a, b].sum() / (pool - 2), rtol=0.2)

    def test_random_coordinates_are_uniform_subsets(self):
        rng = np.random.Generator(np.random.PCG64(7))
        m, d = 60000, 6
        mask = _random_coordinates(rng, m, d)
        sizes = mask.sum(axis=1)
        assert sizes.min() >= 1 and sizes.max() <= d
        np.testing.assert_allclose(np.bincount(sizes, minlength=d + 1)[1:],
                                   m / d, rtol=0.05)
        # A coordinate is marked with probability E[size] / d.
        np.testing.assert_allclose(mask.sum(axis=0), m * (d + 1) / (2 * d),
                                   rtol=0.03)

    def test_positive_cauchy_lies_in_zero_one(self):
        rng = np.random.Generator(np.random.PCG64(8))
        # Near loc 0 about half the first draws are not positive.
        f = _positive_cauchy(rng, np.full(10000, 0.01))
        assert np.all(f > 0.0) and np.all(f <= 1.0)


@pytest.mark.parametrize("name", sorted(RUNNERS))
class TestCommonOptimizerProperties:
    def test_trace_is_monotone_and_matches_best(self, name):
        result = RUNNERS[name](box_problem(5, budget=40, seed=1))
        trace = result.trace
        # One entry for the initial population plus one per generation.
        assert len(trace) == 41
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[-1] == pytest.approx(result.best_f)

    def test_best_point_is_feasible(self, name):
        problem = box_problem(5, budget=30, seed=2)
        result = RUNNERS[name](problem)
        assert np.all(result.best_x >= problem.lb)
        assert np.all(result.best_x <= problem.ub)
        assert result.best_f == pytest.approx(sphere(result.best_x))

    def test_seed_reproducible(self, name):
        a = RUNNERS[name](box_problem(4, budget=25, seed=7))
        b = RUNNERS[name](box_problem(4, budget=25, seed=7))
        c = RUNNERS[name](box_problem(4, budget=25, seed=8))
        np.testing.assert_array_equal(a.best_x, b.best_x)
        np.testing.assert_array_equal(a.trace, b.trace)
        assert not np.array_equal(a.trace, c.trace)

    def test_reports_evaluation_count(self, name):
        budget = 20
        result = RUNNERS[name](box_problem(3, budget=budget, seed=3))
        # PSO evaluates its 20 particles once more per generation; L-SHADE
        # evaluates each generation's population, shrinking from 200 to 4.
        # FWA's spark count depends on the fitness spread.
        expected = {
            "pso": 20 * (budget + 1),
            "lshade": 200 + sum(lshade_population_schedule(g, budget, 200, 4)
                                for g in range(budget)),
        }
        if name in expected:
            assert result.n_evals == expected[name]
        else:
            assert result.n_evals > 0


class TestConvergenceSmoke:
    """Small-budget sanity runs; the full benchmark lives in the
    acceptance suite."""

    def test_pso_sphere(self):
        result = run_pso(box_problem(6, budget=150, seed=4))
        assert result.best_f < 1e-3

    def test_lshade_sphere(self):
        result = run_lshade(box_problem(6, budget=150, seed=4))
        assert result.best_f < 1e-6

    def test_fwa_multimodal(self):
        problem = SoProblem(rastrigin, np.full(3, -5.12), np.full(3, 5.12),
                            budget=150, seed=4)
        result = run_fwa(problem)
        assert result.best_f < 1.0
