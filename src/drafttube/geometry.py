"""B-spline geometry: basis functions, curve evaluation and draft-tube synthesis.

A draft-tube design is described by three planar B-spline curves along the
centreline station axis: roof elevation, floor elevation and duct half-width.
Control-point offsets form the design vector; the first two control points of
every curve stay fixed so the inlet is never modified.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = [
    "GeometryError",
    "BSplineCurve",
    "ReferenceGeometry",
    "DesignVector",
    "DraftTubeDesign",
    "eval_curve",
    "synthesize",
    "areas",
    "load_reference",
    "scenario_bounds",
    "N_STATIONS",
]

# Number of interpolated cross-sections used to describe a synthesized design.
N_STATIONS = 84

# Dense sampling used to express curves as functions of the station coordinate.
_N_DENSE = 801


class GeometryError(ValueError):
    """Raised for invalid geometric input (bounds, crossings, degenerate sections)."""


# ---------------------------------------------------------------------------
# B-spline primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BSplineCurve:
    """Planar B-spline of order ``k`` (k = degree + 1, so k=3 is quadratic)."""

    k: int
    control_points: np.ndarray  # (n_ctrl, 2)
    knots: np.ndarray

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        kn = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "control_points", cp)
        object.__setattr__(self, "knots", kn)
        if cp.ndim != 2 or cp.shape[1] != 2:
            raise GeometryError("control points must be an (n, 2) array")
        if len(cp) < self.k:
            raise GeometryError("fewer control points than the curve order")
        if len(kn) != len(cp) + self.k:
            raise GeometryError(
                f"knot vector length {len(kn)} != n_ctrl + k = {len(cp) + self.k}")
        if np.any(np.diff(kn) < 0):
            raise GeometryError("knot vector must be non-decreasing")

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.k - 1]), float(self.knots[len(self.control_points)])

    def with_offsets(self, dy: np.ndarray) -> "BSplineCurve":
        """Return a copy with per-control-point vertical offsets applied."""
        cp = self.control_points.copy()
        cp[:, 1] += dy
        return BSplineCurve(self.k, cp, self.knots)


def basis_matrix(curve_knots, n_ctrl: int, k: int, ts) -> np.ndarray:
    """Matrix B with B[j, i] = N_{i,k}(ts[j]); the right domain end is closed.

    Basis values depend only on the knots and the parameters, and the
    synthesizer asks for the same few (knots, ts) pairs for every design, so
    results are memoized on the exact bytes of the inputs. The returned
    matrix is shared between callers and therefore read-only.
    """
    knots = np.asarray(curve_knots, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return _memo_basis_matrix(knots.tobytes(), int(n_ctrl), int(k),
                              ts.tobytes(), ts.shape)


# Each scenario asks for about three distinct matrices (roof, floor, width).
_BASIS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _memo_basis_matrix(knots_bytes: bytes, n_ctrl: int, k: int,
                       ts_bytes: bytes, ts_shape: tuple) -> np.ndarray:
    # lru_cache stores no result for a call that raises, so an out-of-range
    # ``ts`` raises GeometryError on every call.
    B = _cox_de_boor_matrix(np.frombuffer(knots_bytes), n_ctrl, k,
                            np.frombuffer(ts_bytes).reshape(ts_shape))
    # B is a column slice of its base; lock both so the flag cannot be reset.
    B.base.flags.writeable = False
    B.flags.writeable = False
    return B


def _cox_de_boor_matrix(knots: np.ndarray, n_ctrl: int, k: int,
                        ts: np.ndarray) -> np.ndarray:
    t_lo, t_hi = knots[k - 1], knots[n_ctrl]
    if np.any(ts < t_lo - 1e-12) or np.any(ts > t_hi + 1e-12):
        raise GeometryError("parameter outside the valid knot range")
    # Closed right end: evaluate t == t_hi just inside the last span.
    eps = (t_hi - t_lo) * 1e-12
    ts = np.minimum(ts, t_hi - eps)
    # Vectorized Cox-de Boor over all indices.
    m = len(knots) - 1
    N = np.zeros((len(ts), m))
    for i in range(m):
        N[:, i] = (knots[i] <= ts) & (ts < knots[i + 1])
    for order in range(2, k + 1):
        N_next = np.zeros_like(N)
        for i in range(m - order + 1):
            den1 = knots[i + order - 1] - knots[i]
            den2 = knots[i + order] - knots[i + 1]
            term = 0.0
            if den1 > 0.0:
                term = (ts - knots[i]) / den1 * N[:, i]
            if den2 > 0.0:
                term = term + (knots[i + order] - ts) / den2 * N[:, i + 1]
            N_next[:, i] = term
        N = N_next
    return N[:, :n_ctrl]


def eval_curve(curve: BSplineCurve, t) -> np.ndarray:
    """Evaluate C(t) = sum_i P_i N_{i,k}(t); accepts a scalar or an array."""
    scalar = np.isscalar(t)
    B = basis_matrix(curve.knots, len(curve.control_points), curve.k, t)
    pts = B @ curve.control_points
    return pts[0] if scalar else pts


# ---------------------------------------------------------------------------
# Draft-tube geometry
# ---------------------------------------------------------------------------

_KINDS = ("circular", "ellipsoidal", "rounded-rectangle")


@dataclass(frozen=True)
class ReferenceGeometry:
    """Baseline design: roof/floor/width curves plus the corner radii of the
    reference sections at their station coordinates ``xs``."""

    roof: BSplineCurve
    floor: BSplineCurve
    width: BSplineCurve
    xs: np.ndarray
    r_r: np.ndarray
    r_f: np.ndarray

    def __post_init__(self):
        if len(self.roof.control_points) != 9 or len(self.floor.control_points) != 9:
            raise GeometryError("roof and floor curves need exactly 9 control points")
        if len(self.width.control_points) != 6:
            raise GeometryError("width curve needs exactly 6 control points")
        xs = _dense_x(self.roof)
        if np.any(_curve_y(self.roof, xs) <= _curve_y(self.floor, xs)):
            raise GeometryError("reference roof must stay above the floor")


@dataclass(frozen=True)
class DesignVector:
    """Control-point offsets (meters) with per-component bounds.

    Length 14 covers roof R1..R7 and floor F1..F7; length 18 appends the
    width offsets W1..W4.
    """

    offsets: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.offsets, dtype=float)
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        object.__setattr__(self, "offsets", x)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if len(x) not in (14, 18):
            raise GeometryError(f"design vector length must be 14 or 18, got {len(x)}")
        if lb.shape != x.shape or ub.shape != x.shape:
            raise GeometryError("bounds must match the offset vector shape")
        if np.any(lb > ub):
            raise GeometryError("lower bound exceeds upper bound")
        if np.any(x < lb - 1e-12) or np.any(x > ub + 1e-12):
            raise GeometryError("offset outside its bounds")

    @property
    def dim(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class DraftTubeDesign:
    """A synthesized design: displaced curves, its cross-sections as one
    array of length N_STATIONS per field (station coordinate xs, half-width
    w, half-height h) and the roof and floor corner radii of the outlet."""

    roof: BSplineCurve
    floor: BSplineCurve
    width: BSplineCurve
    xs: np.ndarray
    w: np.ndarray
    h: np.ndarray
    r_out: tuple[float, float]


def scenario_bounds(scenario: str) -> tuple[np.ndarray, np.ndarray]:
    """Optimization-variable limits for scenarios I.a, I.b, II.a and II.b.

    Unconstrained cases allow +-0.25 m everywhere; the internally constrained
    cases (b) keep roof offsets non-positive, floor offsets non-negative and
    width offsets non-positive so designs stay inside the reference envelope.
    """
    scenario = scenario.strip()
    if scenario == "I.a":
        lb = np.full(14, -0.25)
        ub = np.full(14, 0.25)
    elif scenario == "II.a":
        lb = np.full(18, -0.25)
        ub = np.full(18, 0.25)
    elif scenario == "I.b":
        lb = np.concatenate([np.full(7, -0.25), np.zeros(7)])
        ub = np.concatenate([np.zeros(7), np.full(7, 0.25)])
    elif scenario == "II.b":
        lb = np.concatenate([np.full(7, -0.25), np.zeros(7), np.full(4, -0.25)])
        ub = np.concatenate([np.zeros(7), np.full(7, 0.25), np.zeros(4)])
    else:
        raise GeometryError(f"unknown scenario {scenario!r}")
    return lb, ub


def _dense_x(curve: BSplineCurve, n: int = _N_DENSE) -> np.ndarray:
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, n)
    return eval_curve(curve, ts)[:, 0]


def _curve_y(curve: BSplineCurve, xs, n: int = _N_DENSE) -> np.ndarray:
    """Curve height as a function of the station coordinate.

    Control-point x positions are never offset, so x(t) is monotone and the
    curve is a graph over the station axis; a dense sample plus linear
    interpolation inverts it.
    """
    lo, hi = curve.domain
    ts = np.linspace(lo, hi, n)
    pts = eval_curve(curve, ts)
    return np.interp(xs, pts[:, 0], pts[:, 1])


def synthesize(reference: ReferenceGeometry, x: DesignVector) -> DraftTubeDesign:
    """Apply control-point offsets to the reference and sample cross-sections.

    Roof and floor control points move vertically (R1..R7, F1..F7), width
    control points laterally (W1..W4); the first two control points of every
    curve stay fixed. Raises if the roof crosses the floor anywhere.
    """
    off = x.offsets
    roof_dy = np.concatenate([[0.0, 0.0], off[0:7]])
    floor_dy = np.concatenate([[0.0, 0.0], off[7:14]])
    if x.dim == 18:
        width_dy = np.concatenate([[0.0, 0.0], off[14:18]])
    else:
        width_dy = np.zeros(6)
    roof = reference.roof.with_offsets(roof_dy)
    floor = reference.floor.with_offsets(floor_dy)
    width = reference.width.with_offsets(width_dy)

    xs_r = _dense_x(roof)
    xs = np.linspace(xs_r[0], xs_r[-1], N_STATIONS)
    roof_y = _curve_y(roof, xs)
    floor_y = _curve_y(floor, xs)
    if np.any(roof_y <= floor_y):
        raise GeometryError("roof crosses the floor for this offset vector")
    w = _curve_y(width, xs)
    if np.any(w <= 0):
        raise GeometryError("non-positive duct width for this offset vector")
    h = 0.5 * (roof_y - floor_y)

    # The outlet's radii interpolate between adjacent reference sections,
    # clamped so the rounded corners fit inside the section.
    lim = np.minimum(w[-1], h[-1])
    r_out = (np.minimum(np.interp(xs[-1], reference.xs, reference.r_r), lim),
             np.minimum(np.interp(xs[-1], reference.xs, reference.r_f), lim))
    return DraftTubeDesign(roof, floor, width, xs, w, h, r_out)


def station_profiles(design: DraftTubeDesign):
    """Roof, floor and width values sampled at the design's stations."""
    xs = design.xs
    return xs, _curve_y(design.roof, xs), _curve_y(design.floor, xs), design.w


def areas(design: DraftTubeDesign) -> dict:
    """Bulk quantities feeding the synthetic evaluator.

    Returns inlet/outlet areas, the centreline (mid-curve) arc length and the
    mean wall slope in radians. The inlet is a circle of radius w[0]; the
    outlet is a rounded rectangle, 4wh minus the two roof and two floor
    corner cut-offs (4 - pi)/2 * (r_r^2 + r_f^2).
    """
    xs, h, w = design.xs, design.h, design.w
    r_r, r_f = design.r_out
    a_in = np.pi * w[0] ** 2
    a_out = 4.0 * w[-1] * h[-1] - (4.0 - np.pi) / 2.0 * (r_r ** 2 + r_f ** 2)
    if a_in <= 0 or a_out <= 0:
        raise GeometryError("degenerate inlet or outlet section")
    roof_y = _curve_y(design.roof, xs)
    floor_y = _curve_y(design.floor, xs)
    mid = 0.5 * (roof_y + floor_y)
    length = float(np.sum(np.sqrt(np.diff(xs) ** 2 + np.diff(mid) ** 2)))
    dh = np.gradient(h, xs)
    dw = np.gradient(w, xs)
    slope = float(np.mean(np.arctan(0.5 * (np.abs(dh) + np.abs(dw)))))
    return {"A_in": float(a_in), "A_out": float(a_out),
            "length": length, "mean_slope": slope}


# ---------------------------------------------------------------------------
# Reference geometry persistence
# ---------------------------------------------------------------------------

def _read_curves_file(fh) -> dict:
    """Parse the curve file: blocks of 'curve,<name>,<order>' then rows."""
    curves = {}
    name, order, rows, knots = None, None, [], None

    def flush():
        if name is not None:
            curves[name] = BSplineCurve(order, np.array(rows), np.array(knots))

    for raw in fh:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if parts[0] == "curve":
            flush()
            name, order = parts[1], int(parts[2])
            rows, knots = [], None
        elif parts[0] == "knots":
            knots = [float(v) for v in parts[1:]]
        else:
            rows.append([float(parts[0]), float(parts[1])])
    flush()
    return curves


def _section_problem(w: float, h: float, r_r: float, r_f: float,
                     kind: str) -> str:
    """Why a cross-section is invalid, or '' if it is valid."""
    if w <= 0 or h <= 0:
        return "non-positive section dimensions"
    if r_r < 0 or r_f < 0:
        return "corner radii must be non-negative"
    if max(r_r, r_f) > min(w, h) + 1e-9:
        return "corner radius exceeds min(w, h)"
    if kind not in _KINDS:
        return f"unknown section kind {kind!r}"
    return ""


def load_reference(stations_path=None, curves_path=None) -> ReferenceGeometry:
    """Load the reference geometry; defaults to the packaged synthetic design.

    Every station row must be a valid section at a station beyond the
    previous row's; the first invalid one is named by its 1-based data-row
    index.
    """
    if stations_path is None or curves_path is None:
        pkg = resources.files("drafttube").joinpath("data")
        stations_path = stations_path or pkg / "reference_stations.csv"
        curves_path = curves_path or pkg / "reference_curves.csv"
    xs, r_r, r_f = [], [], []
    with open(stations_path, newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh), 1):
            x = float(row["station"])
            rr, rf = float(row["r_r"]), float(row["r_f"])
            problem = _section_problem(float(row["w"]), float(row["h"]),
                                       rr, rf, row["kind"])
            if not problem and xs and not x > xs[-1]:
                # np.interp needs increasing stations; it does not check.
                problem = "station does not increase"
            if problem:
                raise GeometryError(f"{stations_path}: data row {i}: {problem}")
            xs.append(x)
            r_r.append(rr)
            r_f.append(rf)
    with open(curves_path) as fh:
        curves = _read_curves_file(fh)
    return ReferenceGeometry(curves["roof"], curves["floor"], curves["width"],
                             np.array(xs), np.array(r_r), np.array(r_f))
