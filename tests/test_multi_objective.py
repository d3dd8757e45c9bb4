import numpy as np
import pytest

from drafttube.opt_multi import (
    MoProblem,
    ParetoArchive,
    _front_2d,
    _spea2_truncate,
    additive_epsilon,
    crowding_distance,
    hypervolume2d,
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


def brute_force_mask(F) -> np.ndarray:
    """Rows of F that no row of F dominates, by pairwise comparison."""
    return np.array([not any(dominates(g, f) for g in F) for f in F],
                    dtype=bool)


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
        want = brute_force_mask(F)
        np.testing.assert_array_equal(nondominated_sort(F)[0],
                                      np.flatnonzero(want))


SWEEP_CASES = {
    "exact-duplicates": [[1.0, 2.0], [0.5, 3.0], [1.0, 2.0], [2.0, 1.0],
                         [1.0, 2.0], [2.0, 2.0], [2.0, 2.0]],
    "ties-in-f1-only": [[1.0, 3.0], [1.0, 2.0], [1.0, 4.0], [0.0, 5.0],
                        [2.0, 1.0], [2.0, 0.5]],
    "ties-in-f2-only": [[3.0, 1.0], [2.0, 1.0], [4.0, 1.0], [5.0, 0.0],
                        [1.0, 2.0], [0.5, 2.0]],
    "one-row": [[0.3, 0.7]],
}


class TestTwoObjectiveSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_fronts_mask_and_archive_match_brute_force(self, name):
        F = np.array(SWEEP_CASES[name])
        want = brute_force_mask(F)
        np.testing.assert_array_equal(np.sort(_front_2d(F)),
                                      np.flatnonzero(want))
        rest = np.arange(len(F))
        for front in nondominated_sort(F):
            # each front in ascending index order
            np.testing.assert_array_equal(front,
                                          rest[brute_force_mask(F[rest])])
            rest = np.setdiff1d(rest, front)
        assert len(rest) == 0
        archive = ParetoArchive()
        archive.add_many(np.arange(len(F))[:, None], F)
        np.testing.assert_array_equal(archive.points()[:, 0],
                                      np.flatnonzero(want))

    @pytest.mark.parametrize("F", [np.zeros((4, 3)), np.zeros(4),
                                   np.array([[0.0, 1.0], [np.nan, 0.0]])],
                             ids=["three-objectives", "one-dimensional",
                                  "nan"])
    def test_rejected_input(self, F):
        for call in (_front_2d, nondominated_sort,
                     lambda F: ParetoArchive().add_many(np.zeros((len(F), 1)),
                                                        F)):
            with pytest.raises(ValueError):
                call(F)


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
        # Each variable mutates with chance 0.1: about 200 mutations.
        for _ in range(200):
            y = polynomial_mutation(x, lb, ub, rng=rng)
            assert np.all(y >= lb) and np.all(y <= ub)


class TestParetoArchive:
    def test_keeps_only_nondominated(self):
        archive = ParetoArchive()
        X = np.arange(8, dtype=float).reshape(4, 2)
        F = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [0.4, 3.5]])
        archive.add_many(X, F)
        np.testing.assert_array_equal(archive.front(),
                                      F[brute_force_mask(F)])
        np.testing.assert_array_equal(archive.points(),
                                      X[brute_force_mask(F)])

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
        mask = np.isin(np.arange(len(F)), nondominated_sort(F)[0])
        np.testing.assert_array_equal(raw[mask], 0.0)
        assert np.all(raw[~mask] > 0)
        assert np.all(fitness[mask] < 1.0)

    def test_strength_counts_dominated_points(self):
        F = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        strength, raw, _ = spea2_fitness(F)
        np.testing.assert_array_equal(strength, [2, 1, 0])
        np.testing.assert_array_equal(raw, [0, 2, 3])


def loop_spea2_truncate(F, target):
    """Reference truncation: re-sort the surviving members' neighbor
    distances on every removal and drop the first lexicographic minimum."""
    alive = list(range(len(F)))
    diff = F[:, None, :] - F[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    while len(alive) > target:
        ordered = np.sort(dist[np.ix_(alive, alive)], axis=1)
        alive.pop(int(np.lexsort(ordered.T[::-1])[0]))
    return np.array(alive)


class TestSpea2Truncate:
    def test_matches_the_resorting_loop(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(500):
            n = int(rng.integers(2, 60))
            F = rng.random((n, 2))
            if rng.random() < 0.4:  # ties and exact duplicates
                F = np.round(F, 1)
            for target in {1, n // 2, n - 1}:
                np.testing.assert_array_equal(_spea2_truncate(F, target),
                                              loop_spea2_truncate(F, target))

    def test_density_uses_the_kth_nearest_neighbor(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for n in (2, 5, 17, 40):
            F = np.round(rng.random((n, 2)), 1)
            dist = np.sqrt(np.sum((F[:, None] - F[None]) ** 2, axis=-1))
            np.fill_diagonal(dist, np.inf)
            k = max(1, min(n - 1, int(round(np.sqrt(n)))))
            _, _, D = spea2_fitness(F)
            np.testing.assert_array_equal(
                D, 1.0 / (np.sort(dist, axis=1)[:, k - 1] + 2.0))


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

    def test_hypervolume_equals_the_loop_sum(self):
        # Reference: the per-row staircase loop, adding area only where f2
        # strictly improves. The vector sum must match it bit for bit.
        def loop_hv(F, ref):
            F = F[np.all(F < ref, axis=1)]
            hv, best_f2 = 0.0, ref[1]
            for f1, f2 in F[np.lexsort((F[:, 1], F[:, 0]))]:
                if f2 < best_f2:
                    hv += (ref[0] - f1) * (best_f2 - f2)
                    best_f2 = f2
            return hv

        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(300):
            F = rng.random((int(rng.integers(1, 60)), 2))
            if rng.random() < 0.4:  # ties and exact duplicates
                F = np.round(F, 1)
            ref = rng.uniform(0.5, 1.2, size=2)
            assert hypervolume2d(F, ref) == loop_hv(F, ref)

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

    def test_tchebycheff_rows_match_single_rows(self):
        rng = np.random.Generator(np.random.PCG64(11))
        W = uniform_weights(12)
        F = np.round(rng.random((12, 2)), 2)
        z_star = F.min(axis=0)
        rows = tchebycheff(F, W, z_star)  # row j of F under weight j
        one = tchebycheff(F[0], W, z_star)  # one point under every weight
        assert rows.shape == one.shape == (12,)
        for j in range(12):
            assert rows[j] == float(np.max(W[j] * np.abs(F[j] - z_star)))
            assert one[j] == float(np.max(W[j] * np.abs(F[0] - z_star)))


@pytest.mark.parametrize("runner", [run_nsga2, run_spea2, run_moead])
class TestEvolutionSmoke:
    def test_finds_a_reasonable_zdt1_front(self, runner):
        archive = runner(zdt1_problem(generations=70, seed=1))
        F = archive.front()
        assert len(F) >= 10
        hv = hypervolume2d(F, (1.0, 1.0))
        assert hv > 0.5
        # The archive invariant: mutually non-dominated.
        assert np.all(brute_force_mask(F))

    def test_seed_reproducible(self, runner):
        a = runner(zdt1_problem(generations=10, seed=2)).front()
        b = runner(zdt1_problem(generations=10, seed=2)).front()
        np.testing.assert_array_equal(a, b)

    def test_solutions_feasible(self, runner):
        problem = zdt1_problem(generations=10, seed=3)
        archive = runner(problem)
        X = archive.points()
        assert np.all(X >= problem.lb) and np.all(X <= problem.ub)


@pytest.mark.parametrize("runner", [run_nsga2, run_spea2, run_moead])
def test_runner_calls_the_objective_once_per_row(runner):
    """Population 12 for 3 generations: 12 * (3 + 1) calls, each with one
    (d,) row, and the archive is the non-dominated subset of those rows."""
    seen_x, seen_f = [], []

    def objectives(x):
        assert isinstance(x, np.ndarray) and x.shape == (8,)
        seen_x.append(x.copy())
        seen_f.append(zdt1(x))
        return seen_f[-1]

    archive = runner(MoProblem(objectives, np.zeros(8), np.ones(8),
                               generations=3, seed=4, pop_size=12))
    assert len(seen_x) == 12 * (3 + 1)
    X, F = np.array(seen_x), np.array(seen_f)
    keep = brute_force_mask(F)
    # The archive keeps its rows in the order the objective saw them.
    np.testing.assert_array_equal(archive.points(), X[keep])
    np.testing.assert_array_equal(archive.front(), F[keep])


# Archives of short ZDT1 runs (8 variables, population 24, 20 generations),
# pinned so that any change to the random stream or to a selection decision
# fails.
PINNED_ZDT1 = {
    "nsga2": (1, [
        (0.00750444186714172, 1.6532726225419438),
        (0.12377603697137482, 1.2533419716853775),
        (0.3064995997651499, 1.1273933501743556),
        (3.074091581834956e-05, 1.7974089449790056),
        (0.05457040391198742, 1.5024217464682916),
        (0.0006270357480717761, 1.7353708754434916),
        (0.018726960323845722, 1.5497214008934228),
        (0.01865319888425046, 1.553739989547855),
        (0.3084025686714875, 1.050229638854451),
        (0.129009310868776, 1.2398829179246573),
        (0.6106568793426767, 0.6742477547359118),
        (0.011661747568949388, 1.5823679423919927),
        (0.5854190478549969, 0.7925936065464424),
        (0.3096673359072049, 0.901602042682307),
        (0.11774926183997261, 1.2851906789659788),
        (0.019086851252055108, 1.5469926614160812),
        (0.0001157814726189376, 1.7914610588749154),
        (0.11593062965051426, 1.3443792287189962),
        (0.0036728697455597065, 1.7338880035638073),
    ]),
    "spea2": (2, [
        (0.4814509906142493, 0.542241406288639),
        (0.47634671774029724, 0.5474715301243532),
        (0.031659665504121415, 1.2611482232059805),
        (0.475875786113019, 0.5822135195749887),
        (0.49382110711960736, 0.532245456723889),
        (0.031659665504121415, 1.2611482232059805),
        (0.38589438227584344, 0.6165097995061677),
        (0.15091140570169295, 0.9497839976008557),
        (0.3071736830185703, 0.6635213325777051),
        (0.12864409873120863, 1.0600559705676298),
        (0.17931385253970328, 0.8661535223490976),
        (4.1759931473650536e-05, 1.3029623703246582),
        (0.19747104806653304, 0.7741039301307915),
        (0.4759508235016267, 0.5572965438511278),
    ]),
    "moead": (3, [
        (1.0, 0.16555657080968852),
        (0.14336682913753218, 0.8851079704225793),
        (0.0, 1.3067848726437805),
        (0.10171412456503545, 0.9467780264015164),
        (0.1274245984103654, 0.9396136209552515),
        (0.31271434773710033, 0.6738691933068095),
        (0.1766309531780399, 0.8662849836045202),
        (0.20053718241541169, 0.8047045891002779),
        (0.23950459835658164, 0.7449783544389912),
        (0.177308726722722, 0.8350691779250458),
        (0.22443997746276795, 0.8021665153049445),
        (0.4571854900902885, 0.5453024938641744),
        (0.4244197337185149, 0.557340324694292),
        (0.35431049231147915, 0.6314667600590469),
        (0.416017173150874, 0.5969630703578406),
        (0.32726052309258497, 0.6538425019415312),
        (0.030611262541156814, 1.12353332837676),
        (0.07369823518921653, 1.0001838368082376),
        (0.24717689758865624, 0.7436429226727385),
        (0.3925565332936417, 0.6232871593588872),
        (0.22822607603672024, 0.7769892972133317),
        (0.5323899294646343, 0.48886851006336385),
        (0.5529740879343416, 0.46605623779800454),
        (0.6723283111484175, 0.35979438986596496),
        (0.49224011079380636, 0.5113393752127974),
        (0.7372635685727731, 0.30165356393964055),
        (0.2897574452666719, 0.7081449248358226),
        (0.5891544682546119, 0.4329323154085916),
        (0.9335097238450099, 0.20679206184618468),
        (0.0524079613502087, 1.0733127466844208),
        (0.5057650954032534, 0.5022809790540335),
        (0.5215834187486782, 0.49429043809378653),
        (0.9500383133347612, 0.17979673796139492),
        (0.6051268671043313, 0.41551476041133684),
        (0.47379293635023334, 0.5222837760699399),
        (0.5439125770946951, 0.4750569492697592),
        (0.5812605303557161, 0.4383472757648063),
        (0.19284308780586634, 0.810960437602346),
        (0.7715959985475096, 0.23117107853234012),
        (0.2689992731777442, 0.7304468364570346),
        (0.34296549543270927, 0.6391708101318399),
        (0.3410412749659425, 0.6530643226574184),
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_ZDT1))
def test_short_zdt1_archive_is_pinned(name):
    runner = {"nsga2": run_nsga2, "spea2": run_spea2, "moead": run_moead}[name]
    seed, front = PINNED_ZDT1[name]
    problem = MoProblem(zdt1, np.zeros(8), np.ones(8), generations=20,
                        seed=seed, pop_size=24)
    archive = runner(problem)
    assert len(archive) == len(front)
    np.testing.assert_allclose(archive.front(), front, rtol=1e-12, atol=0)
