"""Output checks and operation counting for the benchmark workloads.

Every CLI call and every library entry a workload times is one operation.
An operation fails if it raises, exits non-zero, or its check reports a
problem. Checks run after the timed part, so they never add to wall time.
Where a check needs a reference result (dominance, hypervolume) it computes
it here by brute force instead of trusting the program's own routines.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from drafttube import cli, evaluator, geometry, surrogate

REFERENCE = cli.REFERENCE_OBJECTIVES  # (cp, cd) of the reference design
ZERO_OFFSET_TOL = 5e-4


class Ops:
    """Counts attempted and failed operations; defers checks until ``finish``."""

    def __init__(self, log=None):
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._checks = []

    def call(self, name, fn, check=None):
        """Run ``fn()`` as one operation; return ``(result, seconds)``.

        A raised exception fails the operation and yields ``None``; otherwise
        ``check(result)`` runs in ``finish``.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.log is None:
                result = fn()
            else:
                with contextlib.redirect_stdout(self.log):
                    result = fn()
        except Exception as exc:  # a crashing stage is a failed operation
            elapsed = time.perf_counter() - start
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
            return None, elapsed
        elapsed = time.perf_counter() - start
        if check is not None:
            self._checks.append((name, lambda: check(result)))
        return result, elapsed

    def cli(self, argv, check=None):
        """Run ``drafttube <argv>`` in-process; return the stage seconds."""
        name = argv[0]
        if "--optimizer" in argv:
            name += " " + argv[argv.index("--optimizer") + 1]
        code, elapsed = self.call(name, lambda: cli.main(list(argv)))
        if code is None:
            return elapsed
        if code != 0:
            self._fail(name, f"exit code {code}")
        elif check is not None:
            self._checks.append((name, check))
        return elapsed

    def finish(self):
        """Run the deferred checks; each one with a problem fails its op."""
        for name, check in self._checks:
            try:
                problems = check()
            except Exception as exc:  # an unreadable artifact is a problem
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(name, "; ".join(problems))
        self._checks = []

    def _fail(self, name, message):
        self.failed += 1
        self.errors.append(f"{name}: {message}")


# ---------------------------------------------------------------------------
# Artifact checks; each returns a list of problems (empty when all is well)
# ---------------------------------------------------------------------------

def expected_lineage(argv) -> dict:
    """Lineage fields the artifact of ``drafttube <argv>`` must carry."""
    args = cli.build_parser().parse_args(list(argv))
    cfg = cli.effective_config(args)
    return {"scenario": cfg["scenario"], "seed": str(cfg["seed"]),
            "config": cli.config_hash(cfg)}


def lineage_problems(path, stage, argv) -> list:
    if str(path).endswith(".json"):
        lin = surrogate.load_model(path).meta.get("lineage", {})
        lin = {k: str(v) for k, v in lin.items()}
    else:
        lin = cli.read_lineage(path)
    want = dict(expected_lineage(argv), stage=stage)
    return [f"{path}: lineage {k}={lin.get(k)!r}, expected {v!r}"
            for k, v in want.items() if lin.get(k) != v]


def dominated_rows(F) -> np.ndarray:
    """Indices of rows of ``F`` (minimized) dominated by another row."""
    F = np.asarray(F, dtype=float)
    le = np.all(F[:, None, :] <= F[None, :, :], axis=-1)
    lt = np.any(F[:, None, :] < F[None, :, :], axis=-1)
    return np.flatnonzero(np.any(le & lt, axis=0))


def out_of_bounds_rows(X, lb, ub) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return np.flatnonzero(np.any((X < lb) | (X > ub), axis=1))


def front_problems(path, scenario) -> list:
    """A multi-objective front: mutually non-dominated and inside the box."""
    X, Y = evaluator.ingest_csv(path)
    lb, ub = geometry.scenario_bounds(scenario)
    problems = []
    dom = dominated_rows(np.column_stack([-Y[:, 0], Y[:, 1]]))
    if len(dom):
        problems.append(f"{path}: {len(dom)} dominated rows, first {dom[0]}")
    oob = out_of_bounds_rows(X, lb, ub)
    if len(oob):
        problems.append(f"{path}: {len(oob)} rows outside the "
                        f"{scenario} bounds, first {oob[0]}")
    return problems


def single_best_problems(path, scenario) -> list:
    """A single-objective result: one in-bounds design beating the reference cp."""
    X, Y = evaluator.ingest_csv(path)
    lb, ub = geometry.scenario_bounds(scenario)
    problems = []
    if len(X) != 1:
        problems.append(f"{path}: {len(X)} rows, expected 1")
    if len(out_of_bounds_rows(X, lb, ub)):
        problems.append(f"{path}: best design outside the {scenario} bounds")
    if not np.all(Y[:, 0] > REFERENCE[0]):
        problems.append(f"{path}: predicted cp {Y[0, 0]:.4f} does not exceed "
                        f"{REFERENCE[0]}")
    return problems


def read_pick(path):
    """Top-ranked row of a decision.csv as (x, cp, cd)."""
    with open(path) as fh:
        fh.readline()  # lineage
        header = fh.readline().strip().split(",")
        top = dict(zip(header, fh.readline().strip().split(",")))
    m = sum(1 for h in header if h.startswith("x"))
    x = np.array([float(top[f"x{j + 1}"]) for j in range(m)])
    return x, float(top["cp"]), float(top["cd"])


def oracle(X, scenario) -> np.ndarray:
    """Ground-truth (cp, cd) rows from the program's synthetic oracle."""
    lb, ub = geometry.scenario_bounds(scenario)
    return cli.evaluate_samples(np.atleast_2d(X), lb, ub)


def pick_problems(path, scenario) -> list:
    """The TOPSIS pick is in bounds, carries oracle values and beats the reference."""
    x, cp, cd = read_pick(path)
    lb, ub = geometry.scenario_bounds(scenario)
    problems = []
    if len(out_of_bounds_rows(x[None, :], lb, ub)):
        problems.append(f"{path}: pick outside the {scenario} bounds")
    true_cp, true_cd = oracle(x, scenario)[0]
    if not (np.isclose(cp, true_cp, rtol=1e-9) and np.isclose(cd, true_cd, rtol=1e-9)):
        problems.append(f"{path}: pick values ({cp}, {cd}) are not the oracle's "
                        f"({true_cp}, {true_cd})")
    if not (true_cp > REFERENCE[0] and true_cd < REFERENCE[1]):
        problems.append(f"{path}: pick (cp={true_cp:.4f}, cd={true_cd:.4f}) does "
                        f"not beat the reference {REFERENCE}")
    return problems


def zero_offset_problems(scenario) -> list:
    """The oracle maps zero offsets to the calibrated reference objectives."""
    lb, _ = geometry.scenario_bounds(scenario)
    cp, cd = oracle(np.zeros(len(lb)), scenario)[0]
    if abs(cp - REFERENCE[0]) > ZERO_OFFSET_TOL or abs(cd - REFERENCE[1]) > ZERO_OFFSET_TOL:
        return [f"zero offsets map to ({cp:.6f}, {cd:.6f}), not {REFERENCE}"]
    return []


def finite_problems(path) -> list:
    X, Y = evaluator.ingest_csv(path)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        return [f"{path}: non-finite values"]
    return []


# ---------------------------------------------------------------------------
# Quality of a front, measured against the oracle
# ---------------------------------------------------------------------------

def hypervolume(F, ref) -> float:
    """Area dominated by the minimized 2-D points ``F`` inside the box below ``ref``."""
    F = np.asarray(F, dtype=float)
    F = F[np.all(F < np.asarray(ref), axis=1)]
    hv, best_f2 = 0.0, ref[1]
    for f1, f2 in F[np.lexsort((F[:, 1], F[:, 0]))]:
        if f2 < best_f2:
            hv += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return hv


def front_quality(path, scenario) -> dict:
    """Oracle-rescored hypervolume against the reference, and the surrogate's
    cd error on the front."""
    X, Y_pred = evaluator.ingest_csv(path)
    Y_true = oracle(X, scenario)
    F = np.column_stack([-Y_true[:, 0], Y_true[:, 1]])
    ref = (-REFERENCE[0], REFERENCE[1])
    mape = 100.0 * np.mean(np.abs(Y_pred[:, 1] - Y_true[:, 1]) / np.abs(Y_true[:, 1]))
    return {"front_hv": hypervolume(F, ref), "front_cd_mape_pct": float(mape)}
