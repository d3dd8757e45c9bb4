"""Single-objective optimizers over box-bounded continuous vectors.

PSO, the fireworks algorithm and L-SHADE, all minimizing; maximization is
realized by negating the objective, which maps an (n, d) population to (n,)
values. Every algorithm keeps all iterates inside the box, evaluates one
population per generation and reports a monotone best-so-far trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SoProblem",
    "SoResult",
    "run_pso",
    "run_fwa",
    "run_lshade",
    "linear_inertia",
    "lshade_population_schedule",
]


@dataclass(frozen=True)
class SoProblem:
    objective: callable  # (n, d) population -> (n,) values
    lb: np.ndarray
    ub: np.ndarray
    budget: int = 500  # generations
    seed: int = 0

    def __post_init__(self):
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if lb.shape != ub.shape or np.any(lb >= ub):
            raise ValueError("need lb < ub per dimension")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.lb)


@dataclass
class SoResult:
    best_x: np.ndarray
    best_f: float
    trace: np.ndarray  # best-so-far per generation
    n_evals: int


class _Search:
    """One run's generator and evaluations: the best point, the best-so-far
    trace (one entry per population) and the count of evaluated rows."""

    def __init__(self, problem: SoProblem):
        self.problem = problem
        self.rng = np.random.Generator(np.random.PCG64(problem.seed))
        self.best_x, self.best_f = None, np.inf
        self.trace = []
        self.n_evals = 0

    def start(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n uniform points in the box and their values."""
        p = self.problem
        X = p.lb + self.rng.random((n, p.dim)) * (p.ub - p.lb)
        return X, self(X)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        F = np.asarray(self.problem.objective(X), dtype=float)
        if F.shape != (len(X),):
            raise ValueError(f"objective returned shape {F.shape} for a "
                             f"population of {len(X)}; expected ({len(X)},)")
        bad = np.flatnonzero(~np.isfinite(F))
        if len(bad):
            raise ValueError(f"objective values must be finite; row {bad[0]} "
                             f"is {F[bad[0]]}")
        self.n_evals += len(X)
        b = int(np.argmin(F))
        if F[b] < self.best_f:
            self.best_x, self.best_f = X[b].copy(), float(F[b])
        self.trace.append(self.best_f)
        return F

    def result(self) -> SoResult:
        return SoResult(self.best_x, self.best_f, np.array(self.trace),
                        self.n_evals)


# ---------------------------------------------------------------------------
# PSO
# ---------------------------------------------------------------------------

_PSO_PARTICLES = 20
_PSO_C1 = _PSO_C2 = 2.0
_PSO_W_START, _PSO_W_END = 0.9, 0.4  # inertia at the first and last generation
_PSO_V_MAX = 0.2  # velocity clamp as a fraction of the box span


def linear_inertia(iteration: int, total: int) -> float:
    """PSO inertia schedule: linear decrease over the run."""
    if total <= 1:
        return _PSO_W_END
    return _PSO_W_START + (_PSO_W_END - _PSO_W_START) * iteration / (total - 1)


def run_pso(problem: SoProblem) -> SoResult:
    """Global-best PSO with clamped positions and reflected velocities:
    20 particles, c1 = c2 = 2 and a linearly decreasing inertia."""
    search = _Search(problem)
    rng, lb, ub, d = search.rng, problem.lb, problem.ub, problem.dim
    n = _PSO_PARTICLES
    v_max = _PSO_V_MAX * (ub - lb)
    X, F = search.start(n)
    V = (rng.random((n, d)) - 0.5) * 2.0 * v_max
    pbest_x, pbest_f = X.copy(), F.copy()
    for it in range(problem.budget):
        w = linear_inertia(it, problem.budget)
        r1 = rng.random((n, d))
        r2 = rng.random((n, d))
        V = (w * V + _PSO_C1 * r1 * (pbest_x - X)
             + _PSO_C2 * r2 * (search.best_x - X))
        V = np.clip(V, -v_max, v_max)
        X = X + V
        low = X < lb
        high = X > ub
        X = np.clip(X, lb, ub)
        V = np.where(low | high, -V, V)
        F = search(X)
        improved = F < pbest_f
        pbest_x[improved] = X[improved]
        pbest_f[improved] = F[improved]
    return search.result()


# ---------------------------------------------------------------------------
# Fireworks algorithm (original formulation)
# ---------------------------------------------------------------------------

_FWA_FIREWORKS = 20
_FWA_M1 = 10              # explosion sparks budget
_FWA_M2 = 10              # Gaussian sparks
_FWA_AMPLITUDE = 0.4      # max amplitude as a fraction of the box span
_FWA_SPARKS = (1, 8)      # sparks per firework: 0.04 (at least 1) to 0.8 of m1


def _map_into_box(X, lb, ub):
    """Standard mapping rule: out-of-bound coordinates re-enter via modulo."""
    span = ub - lb
    out = (X < lb) | (X > ub)
    if np.any(out):
        wrapped = lb + np.mod(np.abs(X - lb), span)
        X = np.where(out, wrapped, X)
    return X


def _random_coordinates(rng, m: int, d: int) -> np.ndarray:
    """(m, d) mask: each row marks a uniform random subset of 1..d of the d
    coordinates, its size uniform over 1..d."""
    sizes = rng.integers(1, d + 1, size=m)
    return rng.permuted(np.arange(d) < sizes[:, None], axis=1)


def run_fwa(problem: SoProblem) -> SoResult:
    """Fireworks algorithm: rank-dependent explosion amplitudes, Gaussian
    sparks and distance-based roulette selection keeping the best, with
    20 fireworks, 10 explosion and 10 Gaussian sparks per generation."""
    search = _Search(problem)
    rng, lb, ub, d = search.rng, problem.lb, problem.ub, problem.dim
    eps = 1e-12
    n = _FWA_FIREWORKS
    X, F = search.start(n)
    a_hat = _FWA_AMPLITUDE * (ub - lb)
    for _ in range(problem.budget):
        f_min, f_max = F.min(), F.max()
        # Better fireworks explode with smaller amplitude and more sparks.
        amps = (F - f_min + eps) / (np.sum(F - f_min) + eps)
        counts_raw = _FWA_M1 * (f_max - F + eps) / (np.sum(f_max - F) + eps)
        counts = np.clip(np.round(counts_raw), *_FWA_SPARKS).astype(int)
        # Explosion sparks: counts[i] of them around firework i.
        i = np.repeat(np.arange(n), counts)
        shift = (amps[i] * rng.uniform(-1.0, 1.0, len(i)))[:, None] * a_hat
        explosion = np.where(_random_coordinates(rng, len(i), d),
                             X[i] + shift, X[i])
        # Gaussian sparks: each scales a random firework's chosen coordinates.
        i = rng.integers(n, size=_FWA_M2)
        scale = rng.normal(1.0, 1.0, _FWA_M2)[:, None]
        gaussian = np.where(_random_coordinates(rng, _FWA_M2, d),
                            X[i] * scale, X[i])
        cand = _map_into_box(np.vstack([X, explosion, gaussian]), lb, ub)
        f_cand = np.concatenate([F, search(cand[n:])])
        # Keep the best; fill the rest by distance-based roulette.
        b = int(np.argmin(f_cand))
        keep = [b]
        rest = np.delete(np.arange(len(cand)), b)
        diff = cand[rest, None, :] - cand[None, rest, :]
        dists = np.sqrt(np.sum(diff ** 2, axis=-1)).sum(axis=1)
        probs = dists / dists.sum() if dists.sum() > 0 else None
        picks = rng.choice(len(rest), size=n - 1, replace=False, p=probs)
        keep.extend(rest[picks])
        X = cand[keep]
        F = f_cand[keep]
    return search.result()


# ---------------------------------------------------------------------------
# L-SHADE
# ---------------------------------------------------------------------------

# Tanabe & Fukunaga (CEC 2014): H = 6, r_arc = 2.6, p = 0.11.
_LSHADE_N_INIT = 200
_LSHADE_N_MIN = 4
_LSHADE_HISTORY = 6
_LSHADE_ARCHIVE_RATIO = 2.6
_LSHADE_P_BEST = 0.11


def lshade_population_schedule(gen: int, total: int) -> int:
    """Linear population size reduction from _LSHADE_N_INIT at generation 0
    to _LSHADE_N_MIN at generation ``total``."""
    return int(round(_LSHADE_N_INIT
                     + (_LSHADE_N_MIN - _LSHADE_N_INIT) * gen / total))


def _other_member(rng, n: int) -> np.ndarray:
    """Per member i of n, an index drawn uniformly from the n - 1 others."""
    return (np.arange(n) + rng.integers(1, n, size=n)) % n


def _third_member(rng, r1: np.ndarray, pool: int) -> np.ndarray:
    """Per member i, an index drawn uniformly from [0, pool) without i and
    r1[i] (r1[i] != i): one draw from pool - 2 values, shifted past both."""
    i = np.arange(len(r1))
    r2 = rng.integers(pool - 2, size=len(r1))
    r2 += r2 >= np.minimum(i, r1)
    r2 += r2 >= np.maximum(i, r1)
    return r2


def _positive_cauchy(rng, loc: np.ndarray) -> np.ndarray:
    """Cauchy(loc, 0.1) draws, redrawn where not positive, capped at 1."""
    f = loc + 0.1 * rng.standard_cauchy(len(loc))
    while np.any(redraw := f <= 0.0):
        f[redraw] = loc[redraw] + 0.1 * rng.standard_cauchy(redraw.sum())
    return np.minimum(f, 1.0)


def run_lshade(problem: SoProblem) -> SoResult:
    """Success-history adaptive DE with linear population size reduction.

    current-to-pbest/1 mutation with an external archive, success-history
    memories updated by weighted Lehmer means and midpoint-to-bound repair;
    the population shrinks from 200 to 4 over the run.
    """
    search = _Search(problem)
    rng, lb, ub, d = search.rng, problem.lb, problem.ub, problem.dim
    N = _LSHADE_N_INIT
    X, F_pop = search.start(N)
    archive = np.empty((0, d))
    M_CR = np.full(_LSHADE_HISTORY, 0.5)
    M_F = np.full(_LSHADE_HISTORY, 0.5)
    hist_k = 0
    for gen in range(1, problem.budget + 1):
        n_pbest = max(2, int(round(_LSHADE_P_BEST * N)))
        slot = rng.integers(_LSHADE_HISTORY, size=N)
        CR = np.clip(rng.normal(M_CR[slot], 0.1), 0.0, 1.0)
        Fs = _positive_cauchy(rng, M_F[slot])
        pbest = X[np.argsort(F_pop)[rng.integers(n_pbest, size=N)]]
        r1 = _other_member(rng, N)
        r2 = _third_member(rng, r1, N + len(archive))
        x_r2 = np.vstack([X, archive])[r2]
        V = X + Fs[:, None] * (pbest - X + X[r1] - x_r2)
        # midpoint-to-bound repair
        V = np.where(V < lb, (lb + X) / 2.0, V)
        V = np.where(V > ub, (ub + X) / 2.0, V)
        cross = rng.random((N, d)) < CR[:, None]
        cross[np.arange(N), rng.integers(d, size=N)] = True
        U = np.where(cross, V, X)
        F_new = search(U)
        success = F_new < F_pop
        if success.any():
            archive = np.vstack([archive, X[success]])
            w = F_pop[success] - F_new[success]
            w = w / w.sum()
            scr, sf = CR[success], Fs[success]
            M_CR[hist_k] = (np.sum(w * scr ** 2) / np.sum(w * scr)
                            if np.sum(w * scr) > 0 else 0.0)
            M_F[hist_k] = np.sum(w * sf ** 2) / np.sum(w * sf)
            hist_k = (hist_k + 1) % _LSHADE_HISTORY
        replace = F_new <= F_pop
        X[replace] = U[replace]
        F_pop[replace] = F_new[replace]
        # linear population size reduction
        N = lshade_population_schedule(gen, problem.budget)
        keep = np.argsort(F_pop)[:N]
        X, F_pop = X[keep], F_pop[keep]
        # trim the archive to r_arc * N, dropping rows uniformly at random
        excess = len(archive) - int(round(_LSHADE_ARCHIVE_RATIO * N))
        if excess > 0:
            archive = np.delete(archive, rng.choice(len(archive), excess,
                                                    replace=False), axis=0)
    return search.result()
