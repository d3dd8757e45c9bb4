"""End-to-end acceptance suite.

Each test verifies one externally checkable guarantee of the toolkit:
reference grid-convergence values, surrogate accuracy on a large synthetic
dataset, gradient correctness, optimizer benchmark quality, brute-force
agreement of the ranking/filtering/dominance primitives, a full pipeline run
that strictly improves the calibrated reference design, and byte-identical
reruns.
"""

import argparse
import itertools

import numpy as np
import pytest

from drafttube import cli, dataset as ds, doe, geometry, surrogate
from drafttube.cli import main
from drafttube.decision import DecisionMatrix, topsis
from drafttube.evaluator import gci
from drafttube.opt_multi import (
    MoProblem,
    additive_epsilon,
    crowding_distance,
    hypervolume2d,
    nondominated_sort,
    run_moead,
    run_nsga2,
    run_spea2,
    spea2_fitness,
)
from drafttube.opt_single import (
    SoProblem,
    run_lshade,
    run_pso,
)


# ---------------------------------------------------------------------------
# 1. Grid convergence study reproduces the reference values
# ---------------------------------------------------------------------------

def test_grid_convergence_reference_values():
    rep = gci(1.575, 0.563, 1.5, 1.25)
    expected = {"p": 2.553, "gci_cm": 1.084, "gci_mf": 0.387, "ratio": 0.994}
    got = {"p": rep.p_gci, "gci_cm": rep.gci_cm, "gci_mf": rep.gci_mf,
           "ratio": rep.asymptotic_ratio}
    for key, want in expected.items():
        assert got[key] == pytest.approx(want, rel=0.01), key


# ---------------------------------------------------------------------------
# 2. Tuned surrogate accuracy on a 5000-sample synthetic dataset
# ---------------------------------------------------------------------------

def test_tuned_surrogate_accuracy_on_synthetic_dataset():
    lb, ub = geometry.scenario_bounds("II.a")  # 18-D, +-0.25 everywhere
    X = doe.lhs(doe.DoePlan(5000, lb, ub, seed=11))
    Y = cli.evaluate_samples(X, lb, ub)
    # The recipe `train` runs, with every other config key at its default.
    cfg = cli.effective_config(argparse.Namespace(scenario="II.a", seed=11))
    data = cli.prepare(X, Y, cfg)
    model = cli.train_surrogate(data, cfg)
    rep = surrogate.metrics(data.Y[data.test_idx],
                            model.predict(data.X[data.test_idx]))
    assert np.all(rep.r2 >= 0.90), rep.r2
    assert np.all(rep.mape <= 5.0), rep.mape


# ---------------------------------------------------------------------------
# 3. Backpropagation matches central finite differences
# ---------------------------------------------------------------------------

def test_backpropagation_matches_central_differences():
    rng = np.random.Generator(np.random.PCG64(0))
    activations = itertools.cycle(sorted(surrogate.ACTIVATIONS))
    for net in range(20):
        activation = next(activations)
        widths = tuple(int(2 * rng.integers(2, 5))
                       for _ in range(int(rng.integers(1, 3))))
        initializer = surrogate.INITIALIZERS[net % 6]
        cfg = surrogate.MlpConfig(widths, activation=activation,
                                  initializer=initializer)
        model = surrogate.MlpModel(3, cfg, seed=net)
        X = rng.uniform(-1.0, 1.0, size=(4, 3))
        Y = rng.uniform(0.0, 1.0, size=(4, 2))
        _, grads = model.gradients(X, Y)
        eps = 1e-6
        for p, g in zip(model.parameters(), grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                lp = float(np.mean((model.forward(X) - Y) ** 2))
                p[idx] = orig - eps
                lm = float(np.mean((model.forward(X) - Y) ** 2))
                p[idx] = orig
                num = (lp - lm) / (2.0 * eps)
                rel = abs(g[idx] - num) / max(1.0, abs(num))
                assert rel <= 1e-5, (activation, widths)


# ---------------------------------------------------------------------------
# 4. Single-objective benchmark quality
# ---------------------------------------------------------------------------

def _sphere(X):
    return np.sum(np.asarray(X) ** 2, axis=-1)


def _rosenbrock(X):
    X = np.asarray(X)
    return np.sum(100.0 * (X[..., 1:] - X[..., :-1] ** 2) ** 2
                  + (1.0 - X[..., :-1]) ** 2, axis=-1)


def _check_trace(result, problem):
    assert np.all(np.diff(result.trace) <= 0.0)
    assert np.all(result.best_x >= problem.lb)
    assert np.all(result.best_x <= problem.ub)


def test_single_objective_benchmarks():
    sphere18 = SoProblem(_sphere, np.full(18, -5.12), np.full(18, 5.12),
                         budget=500, seed=1)
    result = run_lshade(sphere18)
    _check_trace(result, sphere18)
    assert result.best_f < 1e-8

    rosen10 = SoProblem(_rosenbrock, np.full(10, -2.048), np.full(10, 2.048),
                        budget=500, seed=1)
    result = run_lshade(rosen10)
    _check_trace(result, rosen10)
    assert result.best_f < 1e-2

    sphere14 = SoProblem(_sphere, np.full(14, -5.12), np.full(14, 5.12),
                         budget=500, seed=1)
    result = run_pso(sphere14)
    _check_trace(result, sphere14)
    assert result.best_f < 1e-6

    rerun = run_pso(SoProblem(_sphere, np.full(14, -5.12), np.full(14, 5.12),
                              budget=500, seed=1))
    np.testing.assert_array_equal(rerun.trace, result.trace)


# ---------------------------------------------------------------------------
# 5. Multi-objective quality on ZDT1
# ---------------------------------------------------------------------------

def _zdt1(x):
    x = np.asarray(x)
    f1 = float(x[0])
    g = 1.0 + 9.0 * float(np.mean(x[1:]))
    return f1, g * (1.0 - np.sqrt(f1 / g))


def test_multi_objective_quality_on_zdt1():
    def problem(seed):
        return MoProblem(_zdt1, np.zeros(30), np.ones(30),
                         generations=500, seed=seed)

    fronts = {
        "nsga2": run_nsga2(problem(1)).front(),
        "spea2": run_spea2(problem(2)).front(),
        "moead": run_moead(problem(3)).front(),
    }
    for name, front in fronts.items():
        hv = hypervolume2d(front, (1.0, 1.0))
        assert hv >= 0.65, (name, hv)  # analytic optimum is 2/3
    for a, b in itertools.combinations(fronts, 2):
        eps = max(additive_epsilon(fronts[a], fronts[b]),
                  additive_epsilon(fronts[b], fronts[a]))
        assert eps < 0.05, (a, b, eps)


# ---------------------------------------------------------------------------
# 6. Non-dominated sorting matches an O(n^3) brute force
# ---------------------------------------------------------------------------

def _brute_force_fronts(F):
    n = len(F)
    dom = [[bool(np.all(F[i] <= F[j]) and np.any(F[i] < F[j]))
            for j in range(n)] for i in range(n)]
    assigned = np.full(n, -1)
    fronts = []
    level = 0
    while np.any(assigned < 0):
        current = [i for i in range(n) if assigned[i] < 0
                   and not any(dom[j][i] for j in range(n)
                               if assigned[j] < 0)]
        for i in current:
            assigned[i] = level
        fronts.append(np.array(sorted(current)))
        level += 1
    return fronts


def test_nondominated_sort_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(200):
        n = int(rng.integers(1, 51))
        F = rng.random((n, 2))
        if rng.random() < 0.3:  # force ties and duplicates
            F = np.round(F, 1)
        got = nondominated_sort(F)
        want = _brute_force_fronts(F)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(np.sort(g), w)


# ---------------------------------------------------------------------------
# 7. End-to-end pipeline strictly improves the reference design
# ---------------------------------------------------------------------------

def test_end_to_end_pipeline_improves_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    (tmp_path / "run.cfg").write_text("scenario = II.a\nseed = 7\n")
    for argv in (["sample", "--config", "run.cfg"],
                 ["evaluate", "--config", "run.cfg"],
                 ["train", "--config", "run.cfg"],
                 ["optimize", "--config", "run.cfg"],
                 ["decide", "--config", "run.cfg"]):
        assert main(argv) == 0, argv

    with open("decision.csv") as fh:
        fh.readline()
        header = fh.readline().strip().split(",")
        best = fh.readline().strip().split(",")
    row = dict(zip(header, best))
    cp, cd = float(row["cp"]), float(row["cd"])
    ref_cp, ref_cd = cli.REFERENCE_OBJECTIVES
    assert cp > ref_cp
    assert cd < ref_cd

    # The selected offsets respect the scenario bounds...
    lb, ub = geometry.scenario_bounds("II.a")
    x = np.array([float(row[f"x{j + 1}"]) for j in range(18)])
    assert np.all(x >= lb) and np.all(x <= ub)
    # ...and the decision objectives are the oracle's, not the surrogate's.
    design = geometry.synthesize(geometry.load_reference(),
                                 geometry.DesignVector(x, lb, ub))
    from drafttube.evaluator import synthetic_cfd
    obj = synthetic_cfd(design)
    assert obj.cp == pytest.approx(cp)
    assert obj.cd == pytest.approx(cd)


# ---------------------------------------------------------------------------
# 8. Ranking/filtering primitives match brute-force oracles
# ---------------------------------------------------------------------------

def _brute_topsis(values, weights, benefit):
    n, m = values.shape
    R = np.empty_like(values, dtype=float)
    for j in range(m):
        R[:, j] = values[:, j] / np.sqrt(np.sum(values[:, j] ** 2)) * weights[j]
    pos = [R[:, j].max() if benefit[j] else R[:, j].min() for j in range(m)]
    neg = [R[:, j].min() if benefit[j] else R[:, j].max() for j in range(m)]
    closeness = np.empty(n)
    for i in range(n):
        dp = np.sqrt(sum((R[i, j] - pos[j]) ** 2 for j in range(m)))
        dn = np.sqrt(sum((R[i, j] - neg[j]) ** 2 for j in range(m)))
        closeness[i] = dn / (dp + dn) if dp + dn > 0 else 1.0
    ranking = sorted(range(n), key=lambda i: (-closeness[i], i))
    return closeness, np.array(ranking)


def _brute_lof(X, k):
    n = len(X)
    eps = 1e-12
    dist = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                dist[i, j] = max(np.sqrt(np.sum((X[i] - X[j]) ** 2)), eps)
    k_dist = np.array([np.sort(dist[i])[k - 1] for i in range(n)])
    neigh = [[j for j in range(n) if dist[i, j] <= k_dist[i] + eps]
             for i in range(n)]
    lrd = np.array([1.0 / np.mean([max(k_dist[j], dist[i, j])
                                   for j in neigh[i]]) for i in range(n)])
    return np.array([np.mean([lrd[j] for j in neigh[i]]) / lrd[i]
                     for i in range(n)])


def _brute_crowding(F):
    n = len(F)
    if n <= 2:
        return np.full(n, np.inf)
    d = np.zeros(n)
    for j in range(F.shape[1]):
        order = np.argsort(F[:, j], kind="stable")
        d[order[0]] = d[order[-1]] = np.inf
        span = F[order[-1], j] - F[order[0], j]
        if span <= 0:
            continue
        for pos in range(1, n - 1):
            d[order[pos]] += (F[order[pos + 1], j]
                              - F[order[pos - 1], j]) / span
    return d


def _brute_spea2_strength_raw(F):
    n = len(F)
    dom = [[bool(np.all(F[i] <= F[j]) and np.any(F[i] < F[j]))
            for j in range(n)] for i in range(n)]
    strength = np.array([sum(dom[i]) for i in range(n)], dtype=float)
    raw = np.array([sum(strength[j] for j in range(n) if dom[j][i])
                    for i in range(n)])
    return strength, raw


def test_primitives_match_brute_force_oracles():
    rng = np.random.Generator(np.random.PCG64(8))

    for _ in range(20):
        n = int(rng.integers(2, 101))
        values = rng.uniform(0.5, 10.0, size=(n, int(rng.integers(2, 5))))
        m = values.shape[1]
        w = rng.random(m)
        w /= w.sum()
        benefit = rng.random(m) < 0.5
        if n >= 4:  # inject exact ties
            values[1] = values[0]
        result = topsis(DecisionMatrix(values, w, benefit))
        closeness, ranking = _brute_topsis(values, w, benefit)
        np.testing.assert_allclose(result.closeness, closeness, atol=1e-12)
        np.testing.assert_array_equal(result.ranking, ranking)

    for _ in range(10):
        n = int(rng.integers(25, 101))
        X = rng.normal(size=(n, 3))
        k = int(rng.integers(3, 15))
        np.testing.assert_allclose(ds.lof_scores(X, k), _brute_lof(X, k),
                                   rtol=1e-10)

    for _ in range(50):
        n = int(rng.integers(1, 101))
        F = rng.random((n, 2))
        if rng.random() < 0.3:
            F = np.round(F, 1)
        np.testing.assert_allclose(crowding_distance(F), _brute_crowding(F),
                                   rtol=1e-12)

    for _ in range(50):
        n = int(rng.integers(1, 101))
        F = rng.random((n, 2))
        if rng.random() < 0.3:
            F = np.round(F, 1)
        strength, raw, _ = spea2_fitness(F)
        b_strength, b_raw = _brute_spea2_strength_raw(F)
        np.testing.assert_array_equal(strength, b_strength)
        np.testing.assert_array_equal(raw, b_raw)


# ---------------------------------------------------------------------------
# 9. Reruns with identical config + seed are byte-identical
# ---------------------------------------------------------------------------

def test_pipeline_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    (tmp_path / "run.cfg").write_text(
        "scenario = II.a\nseed = 13\nsamples = 80\n"
        "generations = 6\npop_size = 16\nlof_k = 10\n")
    stages = (["sample", "--config", "run.cfg"],
              ["evaluate", "--config", "run.cfg"],
              ["train", "--config", "run.cfg"],
              ["optimize", "--config", "run.cfg"],
              ["decide", "--config", "run.cfg"],
              ["report", "front.csv", "--config", "run.cfg",
               "--decision", "decision.csv"],
              ["gci", "1.575", "0.563", "1.5", "--out", "gci.csv"])
    artifacts = ("samples.csv", "dataset.csv", "model.json", "front.csv",
                 "decision.csv", "report.svg", "gci.csv",
                 "front_so.csv", "front_so_trace.csv")

    def run_all():
        for argv in stages:
            assert main(argv) == 0, argv
        # Also exercise a single-objective stage.
        assert main(["optimize", "--config", "run.cfg", "--optimizer",
                     "lshade", "--generations", "6",
                     "--out", "front_so.csv"]) == 0
        return {name: open(name, "rb").read() for name in artifacts}

    first = run_all()
    second = run_all()
    assert first == second
