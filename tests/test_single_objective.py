import numpy as np
import pytest

from drafttube import cli, surrogate
from drafttube.opt_multi import MoProblem, run_moead, run_nsga2, run_spea2
from drafttube.opt_single import (
    SoProblem,
    _other_member,
    _Search,
    _positive_cauchy,
    _random_coordinates,
    _third_member,
    linear_inertia,
    lshade_population_schedule,
    run_fwa,
    run_lshade,
    run_pso,
)


def sphere(X):
    return np.sum(np.asarray(X) ** 2, axis=-1)


def rastrigin(X):
    X = np.asarray(X)
    return 10.0 * X.shape[-1] + np.sum(X ** 2 - 10.0 * np.cos(2 * np.pi * X),
                                       axis=-1)


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
        total = 150
        sizes = [lshade_population_schedule(g, total) for g in range(total + 1)]
        assert sizes[0] == 200
        assert sizes[-1] == 4
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert min(sizes) >= 4

    def test_search_keeps_best_trace_and_count(self):
        search = _Search(SoProblem(lambda X: X[:, 0], np.zeros(2),
                                   np.full(2, 9.0)))
        with pytest.raises(ValueError, match="row 1 is inf"):
            search(np.array([[5.0, 1.0], [np.inf, 2.0]]))
        assert search.best_x is None and search.n_evals == 0
        search(np.array([[5.0, 1.0], [6.0, 2.0]]))
        search(np.array([[3.0, 3.0], [2.0, 2.0], [2.0, 5.0]]))
        search(np.array([[4.0, 4.0]]))
        result = search.result()
        np.testing.assert_array_equal(result.best_x, [2.0, 2.0])
        np.testing.assert_array_equal(result.trace, [5.0, 2.0, 2.0])
        assert result.best_f == 2.0 and result.n_evals == 6


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
        rows = []

        def counted(X):
            rows.append(len(X))
            return sphere(X)

        problem = SoProblem(counted, np.full(3, -5.12), np.full(3, 5.12),
                            budget=budget, seed=3)
        result = RUNNERS[name](problem)
        # One objective call for the initial population, one per generation.
        assert len(rows) == budget + 1
        assert len(result.trace) == len(rows)
        assert result.n_evals == sum(rows)
        # PSO evaluates its 20 particles once more per generation; L-SHADE
        # evaluates each generation's population, shrinking from 200 to 4.
        # FWA's spark count depends on the fitness spread.
        expected = {
            "pso": 20 * (budget + 1),
            "lshade": 200 + sum(lshade_population_schedule(g, budget)
                                for g in range(budget)),
        }
        if name in expected:
            assert result.n_evals == expected[name]

    @pytest.mark.parametrize("objective", [
        lambda X: float(np.sum(np.asarray(X) ** 2)),
        lambda X: sphere(X)[:, None],
        lambda X: sphere(X)[1:],
    ], ids=["scalar", "column", "short"])
    def test_objective_must_map_population_to_values(self, name, objective):
        problem = SoProblem(objective, np.full(3, -1.0), np.full(3, 1.0),
                            budget=2, seed=0)
        with pytest.raises(ValueError, match="shape"):
            RUNNERS[name](problem)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["pso", "fwa", "lshade",
                                  "nsga2", "spea2", "moead"])
def test_non_finite_objective_value_names_its_row(name, value):
    """A value that is not finite at row 3 of the first population stops
    each of the six runners with a ValueError that names the row."""
    lb, ub = np.zeros(3), np.ones(3)
    if name in RUNNERS:
        def objective(X):
            F = sphere(X)
            F[3] = value
            return F

        problem, runner = SoProblem(objective, lb, ub, budget=3), RUNNERS[name]
    else:
        calls = []

        def objective(x):
            calls.append(x)
            return (value if len(calls) == 4 else x[0]), x[1]

        problem = MoProblem(objective, lb, ub, generations=3, pop_size=12)
        runner = {"nsga2": run_nsga2, "spea2": run_spea2,
                  "moead": run_moead}[name]
    with pytest.raises(ValueError, match="row 3 is"):
        runner(problem)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A directory holding run.cfg and a surrogate trained on 80 samples."""
    path = tmp_path_factory.mktemp("so_cli")
    (path / "run.cfg").write_text("scenario = II.a\nseed = 3\nsamples = 80\n"
                                  "lof_k = 10\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        mp.delenv(cli.SEED_ENV_VAR, raising=False)
        for stage in ("sample", "evaluate", "train"):
            assert cli.main([stage, "--config", "run.cfg"]) == 0
    return path


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_cli_predicts_whole_populations(name, trained_run, monkeypatch):
    monkeypatch.chdir(trained_run)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    calls = []
    predict = surrogate.MlpModel.predict

    def counted(self, X):
        calls.append(np.shape(X))
        return predict(self, X)

    monkeypatch.setattr(surrogate.MlpModel, "predict", counted)
    assert cli.main(["optimize", "--config", "run.cfg", "--optimizer", name,
                     "--generations", "5", "--out", f"{name}.csv"]) == 0
    # The initial population, five generations and the best design's cd.
    assert len(calls) <= 7, calls


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
