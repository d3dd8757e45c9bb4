import numpy as np
import pytest

from drafttube.opt_multi import (
    MoProblem,
    ParetoArchive,
    additive_epsilon,
    crowding_distance,
    hypervolume2d,
    nondominated_mask,
    nondominated_sort,
    polynomial_mutation,
    run_moead,
    run_nsga2,
    run_spea2,
    sbx,
    spea2_fitness,
    tchebycheff,
    uniform_weights,
)


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: <= everywhere and < somewhere."""
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.all(a <= b) and np.any(a < b))


def zdt1(x):
    x = np.asarray(x)
    f1 = float(x[0])
    g = 1.0 + 9.0 * float(np.mean(x[1:]))
    return f1, g * (1.0 - np.sqrt(f1 / g))


def zdt1_problem(dim=8, generations=30, seed=0):
    return MoProblem(zdt1, np.zeros(dim), np.ones(dim),
                     generations=generations, seed=seed, pop_size=40)


class TestDominance:
    def test_strict_and_weak_cases(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))

    def test_sort_simple_fronts(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [3.0, 3.0]])
        fronts = nondominated_sort(F)
        assert sorted(fronts[0].tolist()) == [0, 2]
        assert fronts[1].tolist() == [1]
        assert fronts[2].tolist() == [3]

    def test_sort_is_a_partition(self):
        rng = np.random.Generator(np.random.PCG64(0))
        F = rng.random((40, 2))
        fronts = nondominated_sort(F)
        flat = np.sort(np.concatenate(fronts))
        np.testing.assert_array_equal(flat, np.arange(40))

    def test_mask_matches_first_front(self):
        rng = np.random.Generator(np.random.PCG64(1))
        F = rng.random((30, 2))
        mask = nondominated_mask(F)
        np.testing.assert_array_equal(np.flatnonzero(mask),
                                      np.sort(nondominated_sort(F)[0]))


class TestCrowding:
    def test_boundary_points_are_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_hand_value(self):
        F = np.array([[0.0, 4.0], [1.0, 1.0], [4.0, 0.0]])
        d = crowding_distance(F)
        # Middle point: (4-0)/4 + (4-0)/4 = 2.
        assert d[1] == pytest.approx(2.0)

    def test_two_points_are_infinite(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(d))


class TestVariation:
    def test_sbx_respects_bounds_and_is_seeded(self):
        rng1 = np.random.Generator(np.random.PCG64(3))
        rng2 = np.random.Generator(np.random.PCG64(3))
        lb, ub = np.zeros(6), np.ones(6)
        p1, p2 = np.full(6, 0.2), np.full(6, 0.8)
        c1a, c2a = sbx(p1, p2, lb, ub, rng=rng1)
        c1b, c2b = sbx(p1, p2, lb, ub, rng=rng2)
        np.testing.assert_array_equal(c1a, c1b)
        np.testing.assert_array_equal(c2a, c2b)
        for c in (c1a, c2a):
            assert np.all(c >= lb) and np.all(c <= ub)

    def test_polynomial_mutation_respects_bounds(self):
        rng = np.random.Generator(np.random.PCG64(4))
        lb, ub = np.full(10, -0.25), np.full(10, 0.25)
        x = np.zeros(10)
        for _ in range(20):
            y = polynomial_mutation(x, lb, ub, p_m=1.0, rng=rng)
            assert np.all(y >= lb) and np.all(y <= ub)


class TestParetoArchive:
    def test_keeps_only_nondominated(self):
        archive = ParetoArchive()
        X = np.arange(8, dtype=float).reshape(4, 2)
        F = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [0.4, 3.5]])
        archive.add_many(X, F)
        got = archive.front()
        mask = nondominated_mask(F)
        np.testing.assert_array_equal(
            got[np.lexsort((got[:, 1], got[:, 0]))],
            F[mask][np.lexsort((F[mask][:, 1], F[mask][:, 0]))])

    def test_incremental_matches_batch(self):
        rng = np.random.Generator(np.random.PCG64(5))
        F = rng.random((60, 2))
        X = rng.random((60, 3))
        batch = ParetoArchive()
        batch.add_many(X, F)
        inc = ParetoArchive()
        for i in range(len(F)):
            inc.add_many(X[i:i + 1], F[i:i + 1])
        a, b = batch.front(), inc.front()
        np.testing.assert_allclose(a[np.lexsort((a[:, 1], a[:, 0]))],
                                   b[np.lexsort((b[:, 1], b[:, 0]))])

    def test_exact_duplicates_are_kept(self):
        archive = ParetoArchive()
        archive.add_many(np.array([[0.0], [1.0]]),
                         np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert len(archive) == 2


class TestSpea2Fitness:
    def test_nondominated_have_zero_raw_fitness(self):
        rng = np.random.Generator(np.random.PCG64(6))
        F = rng.random((25, 2))
        strength, raw, fitness = spea2_fitness(F)
        mask = nondominated_mask(F)
        np.testing.assert_array_equal(raw[mask], 0.0)
        assert np.all(raw[~mask] > 0)
        assert np.all(fitness[mask] < 1.0)

    def test_strength_counts_dominated_points(self):
        F = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        strength, raw, _ = spea2_fitness(F)
        np.testing.assert_array_equal(strength, [2, 1, 0])
        np.testing.assert_array_equal(raw, [0, 2, 3])


class TestIndicators:
    def test_hypervolume_single_point(self):
        assert hypervolume2d(np.array([[0.25, 0.25]]),
                             (1.0, 1.0)) == pytest.approx(0.5625)

    def test_hypervolume_staircase(self):
        front = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert hypervolume2d(front, (1.0, 1.0)) == pytest.approx(0.75)

    def test_hypervolume_ignores_dominated_and_outside(self):
        front = np.array([[0.25, 0.25], [0.5, 0.5], [2.0, 0.1]])
        assert hypervolume2d(front, (1.0, 1.0)) == pytest.approx(0.5625)

    def test_additive_epsilon_identity_and_shift(self):
        A = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        assert additive_epsilon(A, A) == pytest.approx(0.0)
        assert additive_epsilon(A + 0.1, A) == pytest.approx(0.1)

    def test_tchebycheff_and_weights(self):
        W = uniform_weights(5)
        assert W.shape == (5, 2)
        np.testing.assert_allclose(W.sum(axis=1), 1.0)
        val = tchebycheff((0.4, 0.6), np.array([0.5, 0.5]),
                          np.array([0.0, 0.0]))
        assert val == pytest.approx(0.3)


@pytest.mark.parametrize("runner", [run_nsga2, run_spea2, run_moead])
class TestEvolutionSmoke:
    def test_finds_a_reasonable_zdt1_front(self, runner):
        archive = runner(zdt1_problem(generations=70, seed=1))
        F = archive.front()
        assert len(F) >= 10
        hv = hypervolume2d(F, (1.0, 1.0))
        assert hv > 0.5
        # The archive invariant: mutually non-dominated.
        assert np.all(nondominated_mask(F))

    def test_seed_reproducible(self, runner):
        a = runner(zdt1_problem(generations=10, seed=2)).front()
        b = runner(zdt1_problem(generations=10, seed=2)).front()
        np.testing.assert_array_equal(a, b)

    def test_solutions_feasible(self, runner):
        problem = zdt1_problem(generations=10, seed=3)
        archive = runner(problem)
        X = archive.points()
        assert np.all(X >= problem.lb) and np.all(X <= problem.ub)
