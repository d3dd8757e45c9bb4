"""Multi-objective optimizers: NSGA-II, SPEA2 and MOEA/D, plus Pareto
utilities and indicator functions used for verification.

All algorithms minimize a two-objective vector F(x) = (f1, f2); for the
draft-tube problem that is (-Cp, Cd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MoProblem",
    "ParetoArchive",
    "nondominated_sort",
    "crowding_distance",
    "sbx",
    "polynomial_mutation",
    "run_nsga2",
    "run_spea2",
    "run_moead",
    "hypervolume2d",
    "additive_epsilon",
    "uniform_weights",
]


@dataclass(frozen=True)
class MoProblem:
    objectives: callable  # x -> (f1, f2)
    lb: np.ndarray
    ub: np.ndarray
    generations: int = 500
    seed: int = 0
    pop_size: int = 200  # population, and archive size for SPEA2

    def __post_init__(self):
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if lb.shape != ub.shape or np.any(lb >= ub):
            raise ValueError("need lb < ub per dimension")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.pop_size < 1:
            raise ValueError("pop_size must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.lb)


class ParetoArchive:
    """Mutually non-dominated (x, f) pairs; insertion keeps the invariant.

    Two objectives only; the batch update is an O(n log n) sweep. Exact
    objective duplicates are kept (they do not dominate each other).
    """

    def __init__(self):
        self.X = None  # (n, d)
        self.F = np.empty((0, 2))

    def __len__(self):
        return len(self.F)

    def add_many(self, X, F):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        F = np.atleast_2d(np.asarray(F, dtype=float))
        if self.X is not None:
            X = np.vstack([self.X, X])
            F = np.vstack([self.F, F])
        keep = np.sort(_front_2d(F))
        self.X, self.F = X[keep], F[keep]

    def front(self) -> np.ndarray:
        return self.F.copy()

    def points(self) -> np.ndarray:
        return self.X.copy() if self.X is not None else np.empty((0, 0))


# ---------------------------------------------------------------------------
# Dominance utilities
# ---------------------------------------------------------------------------

def _front_2d(F) -> np.ndarray:
    """Row indices of F (n, 2) that no other row dominates, in (f1, f2) order.

    In that order a row can only be dominated by an earlier one: it is kept
    when its f2 is below the running minimum of the f2 before it, or equals
    that minimum and is an exact duplicate of the row that set it.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError(f"need (n, 2) objectives, got shape {F.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(F), axis=1))
    if len(bad):
        raise ValueError(f"objective values must be finite; row {bad[0]} "
                         f"is {F[bad[0]]}")
    order = np.lexsort((F[:, 1], F[:, 0]))
    f1, f2 = F[order, 0], F[order, 1]
    prev_min = np.minimum.accumulate(np.concatenate(([np.inf], f2[:-1])))
    new_min = f2 < prev_min
    setter = np.maximum.accumulate(np.where(new_min, np.arange(len(f2)), 0))
    return order[new_min | ((f2 == prev_min) & (f1 == f1[setter]))]


def _dominance_matrix(F: np.ndarray) -> np.ndarray:
    """dom[i, j] is True when point i dominates point j."""
    n = len(F)
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in F.T:
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    return le & lt


def nondominated_sort(F: np.ndarray) -> list:
    """Index arrays of the non-dominated fronts, rank 0 first, each ascending."""
    F = np.asarray(F, dtype=float)
    rest = np.arange(len(F))
    fronts = []
    while len(rest):
        kept = _front_2d(F[rest])
        fronts.append(np.sort(rest[kept]))
        rest = np.delete(rest, kept)
    return fronts


def crowding_distance(F: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of one front; boundary points are infinite."""
    F = np.asarray(F, dtype=float)
    n, m = F.shape
    d = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        span = F[order[-1], j] - F[order[0], j]
        d[order[0]] = d[order[-1]] = np.inf
        if span <= 0:
            continue
        d[order[1:-1]] += (F[order[2:], j] - F[order[:-2], j]) / span
    return d


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------

_ETA = 20.0  # distribution index of SBX and of polynomial mutation
_P_C = 0.9   # chance that an SBX pair crosses over
_P_M = 0.1   # chance that polynomial mutation changes one variable


def sbx(p1, p2, lb, ub, *, rng: np.random.Generator):
    """Bounded simulated binary crossover returning two children."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() > _P_C:
        return c1, c2
    for j in range(len(p1)):
        if rng.random() > 0.5 or abs(p1[j] - p2[j]) < 1e-14:
            continue
        y1, y2 = sorted((p1[j], p2[j]))
        u = rng.random()
        for child, y_ref in ((c1, y1), (c2, y2)):
            if y_ref == y1:
                beta = 1.0 + 2.0 * (y1 - lb[j]) / (y2 - y1)
            else:
                beta = 1.0 + 2.0 * (ub[j] - y2) / (y2 - y1)
            alpha = 2.0 - beta ** -(_ETA + 1.0)
            if u <= 1.0 / alpha:
                betaq = (u * alpha) ** (1.0 / (_ETA + 1.0))
            else:
                betaq = (1.0 / (2.0 - u * alpha)) ** (1.0 / (_ETA + 1.0))
            if y_ref == y1:
                val = 0.5 * ((y1 + y2) - betaq * (y2 - y1))
            else:
                val = 0.5 * ((y1 + y2) + betaq * (y2 - y1))
            child[j] = min(max(val, lb[j]), ub[j])
        if rng.random() < 0.5:
            c1[j], c2[j] = c2[j], c1[j]
    return c1, c2


def polynomial_mutation(x, lb, ub, *, rng: np.random.Generator):
    """Bounded polynomial mutation, of each variable with chance _P_M."""
    x = np.asarray(x, dtype=float).copy()
    for j in range(len(x)):
        if rng.random() >= _P_M:
            continue
        y = x[j]
        span = ub[j] - lb[j]
        d1 = (y - lb[j]) / span
        d2 = (ub[j] - y) / span
        u = rng.random()
        mut_pow = 1.0 / (_ETA + 1.0)
        if u < 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (_ETA + 1.0)
            deltaq = val ** mut_pow - 1.0
        else:
            val = (2.0 * (1.0 - u)
                   + 2.0 * (u - 0.5) * (1.0 - d2) ** (_ETA + 1.0))
            deltaq = 1.0 - val ** mut_pow
        x[j] = min(max(y + deltaq * span, lb[j]), ub[j])
    return x


class _Search:
    """One run's generator and archive, and the only caller of
    ``problem.objectives``: once per row, the contract the benchmark counts."""

    def __init__(self, problem: MoProblem):
        self.problem = problem
        self.rng = np.random.Generator(np.random.PCG64(problem.seed))
        self.archive = ParetoArchive()

    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """A uniform first population of ``pop_size``, archived."""
        p = self.problem
        X = p.lb + self.rng.random((p.pop_size, p.dim)) * (p.ub - p.lb)
        return X, self.archived(X)

    def evaluate(self, X) -> np.ndarray:
        """(n, 2) objective values of the n rows of X."""
        return np.array([self.problem.objectives(x) for x in X], dtype=float)

    def archived(self, X) -> np.ndarray:
        """The values of X, after adding X to the archive."""
        F = self.evaluate(X)
        self.archive.add_many(X, F)
        return F


def _offspring(rng, X, better, lb, ub) -> np.ndarray:
    """len(X) children by binary tournament, SBX and polynomial mutation.

    ``better(i, j)`` is True when member i wins a tournament against j.
    """
    def tournament():
        i, j = rng.integers(len(X)), rng.integers(len(X))
        return i if better(i, j) else j

    children = []
    while len(children) < len(X):
        a = tournament()
        b = tournament()
        c1, c2 = sbx(X[a], X[b], lb, ub, rng=rng)
        children.append(polynomial_mutation(c1, lb, ub, rng=rng))
        if len(children) < len(X):
            children.append(polynomial_mutation(c2, lb, ub, rng=rng))
    return np.array(children)


# ---------------------------------------------------------------------------
# NSGA-II
# ---------------------------------------------------------------------------

def _nsga2_rank_crowd(F):
    fronts = nondominated_sort(F)
    rank = np.empty(len(F), dtype=int)
    crowd = np.empty(len(F))
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(F[front])
    return rank, crowd, fronts


def run_nsga2(problem: MoProblem) -> ParetoArchive:
    """Elitist NSGA-II with binary tournament, SBX and polynomial mutation."""
    search = _Search(problem)
    rng, lb, ub, N = search.rng, problem.lb, problem.ub, problem.pop_size
    X, F = search.start()
    for _ in range(problem.generations):
        rank, crowd, _ = _nsga2_rank_crowd(F)

        def crowded_better(i, j):
            return rank[i] < rank[j] or (rank[i] == rank[j] and crowd[i] > crowd[j])

        CX = _offspring(rng, X, crowded_better, lb, ub)
        CF = search.archived(CX)
        UX = np.vstack([X, CX])
        UF = np.vstack([F, CF])
        _, ucrowd, ufronts = _nsga2_rank_crowd(UF)
        keep = []
        for front in ufronts:
            if len(keep) + len(front) <= N:
                keep.extend(front.tolist())
            else:
                order = front[np.argsort(-ucrowd[front], kind="stable")]
                keep.extend(order[:N - len(keep)].tolist())
                break
        X, F = UX[keep], UF[keep]
    return search.archive


# ---------------------------------------------------------------------------
# SPEA2
# ---------------------------------------------------------------------------

def spea2_fitness(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SPEA2 strength, raw fitness and density over a combined population.

    Strength S(i) counts the points i dominates; raw fitness R(i) sums the
    strengths of i's dominators; density D(i) = 1/(sigma_k + 2) with the
    k-th nearest objective-space neighbor, k = sqrt(n).
    """
    F = np.asarray(F, dtype=float)
    dom = _dominance_matrix(F)
    S = dom.sum(axis=1)
    R = (S @ dom).astype(float)
    n = len(F)
    k = max(1, min(n - 1, int(round(math.sqrt(n)))))
    diff = F[:, None, :] - F[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    sigma_k = np.partition(dist, k - 1, axis=1)[:, k - 1]
    D = 1.0 / (sigma_k + 2.0)
    return S, R, D


def _spea2_truncate(F: np.ndarray, target: int) -> np.ndarray:
    """Iteratively drop the member with the smallest nearest-neighbor distance.

    Each member's neighbor distances are sorted once; a removal deletes the
    removed member's row and one copy of its distance from every other row.
    Ties in the lexicographic order go to the lowest index.
    """
    alive = np.arange(len(F))
    diff = F[:, None, :] - F[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    ordered = np.sort(dist, axis=1)
    while len(alive) > target:
        # first lexicographic minimum of the sorted neighbor distances
        cand = np.arange(len(alive))
        for col in ordered.T:
            cand = cand[col[cand] == col[cand].min()]
            if len(cand) == 1:
                break
        worst = cand[0]
        gone = np.delete(dist[alive, alive[worst]], worst)
        alive = np.delete(alive, worst)
        ordered = np.delete(ordered, worst, axis=0)
        first = np.argmax(ordered >= gone[:, None], axis=1)
        keep = np.ones(ordered.shape, dtype=bool)
        keep[np.arange(len(alive)), first] = False
        ordered = ordered[keep].reshape(len(alive), -1)
    return alive


def run_spea2(problem: MoProblem) -> ParetoArchive:
    """SPEA2 with archive size equal to the population size."""
    search = _Search(problem)
    rng, lb, ub, N = search.rng, problem.lb, problem.ub, problem.pop_size
    X, F = search.start()
    AX, AF = np.empty((0, problem.dim)), np.empty((0, 2))
    for _ in range(problem.generations):
        UX = np.vstack([X, AX])
        UF = np.vstack([F, AF])
        _, R, D = spea2_fitness(UF)
        fit = R + D
        nd = np.flatnonzero(R == 0)
        if len(nd) > N:
            keep = nd[_spea2_truncate(UF[nd], N)]
        elif len(nd) < N:
            dominated = np.flatnonzero(R > 0)
            fill = dominated[np.argsort(fit[dominated], kind="stable")]
            keep = np.concatenate([nd, fill[:N - len(nd)]])
        else:
            keep = nd
        AX, AF = UX[keep], UF[keep]
        afit = fit[keep]
        X = _offspring(rng, AX, lambda i, j: afit[i] <= afit[j], lb, ub)
        F = search.archived(X)
    return search.archive


# ---------------------------------------------------------------------------
# MOEA/D
# ---------------------------------------------------------------------------

def uniform_weights(n: int) -> np.ndarray:
    """Uniform two-objective weight vectors with spacing 1/(n-1)."""
    a = np.linspace(0.0, 1.0, n)
    return np.column_stack([a, 1.0 - a])


def tchebycheff(f, weight, z_star) -> np.ndarray:
    """Tchebycheff value of each row of ``f`` under the matching weight row."""
    return np.max(weight * np.abs(np.asarray(f) - z_star), axis=-1)


_MOEAD_NEIGHBORS = 20  # T, weight-space neighborhood size
_MOEAD_DELTA = 0.9     # chance of mating within the neighborhood
_MOEAD_F = 0.5         # DE/rand/1 scale factor
_MOEAD_N_R = 2         # most neighbors one child may replace


def run_moead(problem: MoProblem) -> ParetoArchive:
    """Steady-state MOEA/D with Tchebycheff decomposition, DE/rand/1 with
    CR = 1 (the child is the mutant, as in MOEA/D-DE) and polynomial
    mutation; needs ``pop_size >= 3`` for three distinct donors."""
    search = _Search(problem)
    rng, lb, ub, N = search.rng, problem.lb, problem.ub, problem.pop_size
    W = uniform_weights(N)
    wdist = np.sqrt(np.sum((W[:, None, :] - W[None, :, :]) ** 2, axis=-1))
    T = min(_MOEAD_NEIGHBORS, N)
    neigh = np.argsort(wdist, axis=1, kind="stable")[:, :T]
    X, F = search.start()
    z_star = F.min(axis=0)
    for _ in range(problem.generations):
        gen_X, gen_F = [], []
        for i in range(N):
            pool = neigh[i] if rng.random() < _MOEAD_DELTA else np.arange(N)
            r = rng.choice(pool, size=3, replace=False)
            y = X[r[0]] + _MOEAD_F * (X[r[1]] - X[r[2]])
            y = np.clip(polynomial_mutation(y, lb, ub, rng=rng), lb, ub)
            fy = search.evaluate(y[None])[0]
            z_star = np.minimum(z_star, fy)
            gen_X.append(y)
            gen_F.append(fy)
            # Each test reads only its own F[j] and z_star is fixed for this
            # child, so testing the whole permutation at once and taking the
            # first hits replaces the same members as testing one by one.
            order = rng.permutation(pool)
            hits = order[tchebycheff(fy, W[order], z_star)
                         <= tchebycheff(F[order], W[order], z_star)]
            X[hits[:_MOEAD_N_R]] = y
            F[hits[:_MOEAD_N_R]] = fy
        search.archive.add_many(np.array(gen_X), np.array(gen_F))
    return search.archive


# ---------------------------------------------------------------------------
# Indicators
# ---------------------------------------------------------------------------

def hypervolume2d(front: np.ndarray, ref_point) -> float:
    """Exact 2-D hypervolume of the region dominated by ``front`` w.r.t. ref."""
    F = np.asarray(front, dtype=float)
    ref = np.asarray(ref_point, dtype=float)
    if len(F) == 0:
        return 0.0
    # Points at or beyond the reference enclose no volume.
    F = F[np.all(F < ref, axis=1)]
    F = F[_front_2d(F)]
    # Areas summed in sequence, as a loop adds them; a duplicate adds 0.
    f2_before = np.concatenate(([ref[1]], F[:-1, 1]))[:len(F)]
    areas = (ref[0] - F[:, 0]) * (f2_before - F[:, 1])
    return float(np.cumsum(np.append(0.0, areas))[-1])


def additive_epsilon(A: np.ndarray, B: np.ndarray) -> float:
    """Additive epsilon indicator eps(A, B): how far A must shift to cover B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    shifts = np.max(A[:, None, :] - B[None, :, :], axis=-1)
    return float(np.max(np.min(shifts, axis=0)))
