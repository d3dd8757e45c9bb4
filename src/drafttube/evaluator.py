"""Objective evaluation: the synthetic quasi-physics oracle that stands in for
CFD at desk scale, the CSV table format of every pipeline artifact, CFD
result-file ingestion and the grid convergence index."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import geometry
from .geometry import DraftTubeDesign

__all__ = [
    "EvaluationError",
    "ObjectivePair",
    "GciReport",
    "OracleConstants",
    "synthetic_cfd",
    "x_columns",
    "write_table",
    "read_table",
    "ingest_csv",
    "write_dataset_csv",
    "gci",
]


class EvaluationError(ValueError):
    """Raised for non-finite objectives, malformed tables or bad GCI input."""


@dataclass(frozen=True)
class ObjectivePair:
    cp: float
    cd: float

    def __post_init__(self):
        if not (math.isfinite(self.cp) and math.isfinite(self.cd)):
            raise EvaluationError("objectives must be finite")


# ---------------------------------------------------------------------------
# Synthetic oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConstants:
    """Calibrated constants of the synthetic evaluator.

    The values are fixtures calibrated so the packaged reference design maps
    to (Cp, Cd) = (0.819, 0.131); recalibration is a data change.
    """

    diffusion_gain: float
    friction_coefficient: float
    slope_weight: float
    curvature_weight: float

    @classmethod
    def load(cls, path=None) -> "OracleConstants":
        if path is None:
            path = resources.files("drafttube").joinpath("data/oracle_constants.json")
        with open(path) as fh:
            raw = json.load(fh)
        return cls(**{k: raw[k] for k in (
            "diffusion_gain", "friction_coefficient", "slope_weight",
            "curvature_weight")})


def _curvature_penalty(design: DraftTubeDesign) -> float:
    """RMS second derivative of the roof, floor and width profiles."""
    xs, roof_y, floor_y, w = geometry.station_profiles(design)
    d2 = geometry.station_gradient(geometry.station_gradient(
        np.concatenate((roof_y[None], floor_y[None], w[None])), xs), xs)
    roof, floor, width = np.sqrt((d2 ** 2).mean(axis=-1)).tolist()
    # Summed left to right: the objectives' bytes depend on this order.
    return (roof + floor + width) / 3.0


def synthetic_cfd(design: DraftTubeDesign,
                  constants: OracleConstants | None = None) -> ObjectivePair:
    """Evaluate a synthesized design with the synthetic quasi-physics oracle.

    Cp follows the ideal-diffuser area-ratio term minus a curvature loss;
    Cd combines a frictional length term, a squared wall-slope loss and the
    same curvature loss.
    """
    if constants is None:
        constants = OracleConstants.load()
    bulk = geometry.areas(design)
    curvature = _curvature_penalty(design)
    # Hydraulic diameter of the (fixed) circular inlet.
    d_h = 2.0 * float(design.w[0])
    ratio = bulk["A_in"] / bulk["A_out"]
    cp = (constants.diffusion_gain * (1.0 - ratio ** 2)
          - constants.curvature_weight * curvature)
    cd = (constants.friction_coefficient * bulk["length"] / d_h
          + constants.slope_weight * bulk["mean_slope"] ** 2
          + constants.curvature_weight * curvature)
    return ObjectivePair(cp, cd)


# ---------------------------------------------------------------------------
# CSV tables and result-file ingestion
# ---------------------------------------------------------------------------

def x_columns(m: int) -> list[str]:
    """Design-variable column names x1..xm."""
    return [f"x{j + 1}" for j in range(m)]


def write_table(path, comment: str, header, rows) -> None:
    """Write a CSV table: an optional '# comment' line, the header, the rows.

    Lines end in LF. Numbers are written as %.17g, so a write-read round trip
    is bit-identical; strings are written as they are.
    """
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "%.17g" % v
                              for v in row) + "\n")


def read_table(path, header_ok) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV table into (header, values).

    '#' and blank lines are skipped; the first other line is the header and
    must satisfy ``header_ok(header)``. Every data row must have one finite
    float per column, and there must be at least one. Errors name the file
    and, where there is one, the offending line.
    """
    try:
        with open(path) as fh:
            lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1)
                     if ln.strip() and not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise EvaluationError(f"{path}: {exc}") from None
    if not lines:
        raise EvaluationError(f"{path}: no header")
    lineno, text = lines[0]
    header = [c.strip() for c in text.split(",")]
    if not header_ok(header):
        raise EvaluationError(f"{path}:{lineno}: unexpected header {text!r}")
    if len(lines) == 1:
        raise EvaluationError(f"{path}: no data rows")
    rows = []
    for lineno, text in lines[1:]:
        parts = text.split(",")
        if len(parts) != len(header):
            raise EvaluationError(f"{path}:{lineno}: expected {len(header)} "
                                  f"columns, got {len(parts)}")
        try:
            row = [float(v) for v in parts]
        except ValueError as exc:
            raise EvaluationError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise EvaluationError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    return header, np.array(rows)


def ingest_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a result file with header x1..xm,cp,cd (m in 14, 18) into (X, Y)."""
    _, values = read_table(path, lambda h: len(h) - 2 in (14, 18)
                           and h == x_columns(len(h) - 2) + ["cp", "cd"])
    return values[:, :-2].copy(), values[:, -2:].copy()


def write_dataset_csv(path, X: np.ndarray, Y: np.ndarray,
                      header_comment: str = "") -> None:
    """Write features and (cp, cd) targets in the ingest_csv format."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    write_table(path, header_comment, x_columns(X.shape[1]) + ["cp", "cd"],
                np.hstack([X, Y]))


# ---------------------------------------------------------------------------
# Grid convergence index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GciReport:
    eps_cm: float
    eps_mf: float
    r: float
    F_s: float
    p_gci: float
    gci_cm: float
    gci_mf: float
    asymptotic_ratio: float

    def as_rows(self) -> list[tuple[str, float]]:
        return [("eps_cm_pct", self.eps_cm), ("eps_mf_pct", self.eps_mf),
                ("r", self.r), ("F_s", self.F_s), ("p", self.p_gci),
                ("GCI_cm_pct", self.gci_cm), ("GCI_mf_pct", self.gci_mf),
                ("asymptotic_ratio", self.asymptotic_ratio)]


def gci(eps_cm: float, eps_mf: float, r: float, F_s: float = 1.25,
        trend: str = "decreasing") -> GciReport:
    """Three-grid convergence index from percent relative differences.

    ``eps_cm`` and ``eps_mf`` are |coarser - finer| / finer * 100 for the
    coarse-medium and medium-fine pairs. Because each epsilon is normalized
    by its own finer-grid solution, the raw solution-difference ratio that
    sets the observed order p depends on the monotone convergence trend:

    - ``trend="decreasing"`` (solution falls under refinement, so the
      medium solution exceeds the fine one): ratio x (1 + eps_mf / 100)
    - ``trend="increasing"``: ratio x (1 - eps_mf / 100)
    - ``trend="shared"``: both epsilons normalized by one common value,
      p = ln(eps_cm / eps_mf) / ln(r) exactly.
    """
    for name, value in (("eps_cm", eps_cm), ("eps_mf", eps_mf), ("r", r),
                        ("F_s", F_s)):
        if not math.isfinite(value):
            raise EvaluationError(f"{name} must be finite, got {value}")
    if eps_cm <= 0 or eps_mf <= 0:
        raise EvaluationError("relative differences must be positive")
    if r <= 1:
        raise EvaluationError("refinement ratio must exceed 1")
    if F_s < 1:
        raise EvaluationError("safety factor must be >= 1")
    ratio = eps_cm / eps_mf
    if trend == "decreasing":
        ratio *= 1.0 + eps_mf / 100.0
    elif trend == "increasing":
        if eps_mf >= 100.0:
            raise EvaluationError("eps_mf must stay below 100% for an "
                                  "increasing trend")
        ratio *= 1.0 - eps_mf / 100.0
    elif trend != "shared":
        raise EvaluationError(f"unknown trend {trend!r}")
    if ratio <= 1.0:
        raise EvaluationError("difference ratio must exceed 1: the grid "
                              "study is not in the asymptotic range")
    p = math.log(ratio) / math.log(r)
    denom = r ** p - 1.0
    gci_cm = F_s * eps_cm / denom
    gci_mf = F_s * eps_mf / denom
    asym = gci_cm / (r ** p * gci_mf)
    return GciReport(eps_cm, eps_mf, r, F_s, p, gci_cm, gci_mf, asym)
