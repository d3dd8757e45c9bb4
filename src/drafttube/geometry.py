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
    "station_gradient",
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
        """Return a copy with per-control-point vertical offsets applied.

        Only y moves, so the copy shares this curve's checked order and knots
        and keeps its shape; the constructor's checks are not run again.
        """
        cp = self.control_points.copy()
        cp[:, 1] += dy
        moved = object.__new__(BSplineCurve)
        moved.__dict__.update(self.__dict__, control_points=cp)
        return moved


def basis_matrix(curve_knots, n_ctrl: int, k: int, ts) -> np.ndarray:
    """Matrix B with B[j, i] = N_{i,k}(ts[j]); the right domain end is closed.

    Basis values depend only on the knots and the parameters, and the
    synthesizer asks for the same few (knots, ts) pairs for every design, so
    results are memoized on the exact bytes of the inputs. The returned
    matrix is shared between callers and therefore read-only.
    """
    knots = np.asarray(curve_knots, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if not ts.ndim:
        ts = ts.reshape(1)
    return _memo_basis_matrix(knots.tobytes(), int(n_ctrl), int(k),
                              _exact_bytes(ts), ts.shape)


def _exact_bytes(a: np.ndarray) -> bytes:
    """``a.tobytes()``, without the copy for an array that is all of an
    immutable bytes object (the shared grids below), whose hash is kept."""
    base = a.base
    if type(base) is bytes and a.nbytes == len(base) and a.flags.c_contiguous:
        return base
    return a.tobytes()


# Each scenario asks for about three distinct matrices (roof, floor, width),
# dense parameter grids and one station grid; the caches below share the size.
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


@dataclass(frozen=True, eq=False)
class ReferenceGeometry:
    """Baseline design: roof/floor/width curves plus the corner radii of the
    reference sections at their station coordinates ``xs``.

    Equality is identity, so a reference can key the station-grid memo; the
    station arrays are read-only copies, so a memoized lookup cannot go stale.
    """

    roof: BSplineCurve
    floor: BSplineCurve
    width: BSplineCurve
    xs: np.ndarray
    r_r: np.ndarray
    r_f: np.ndarray

    def __post_init__(self):
        for name in ("xs", "r_r", "r_f"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
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
        finite = np.isfinite((x, lb, ub))
        if not finite.all():
            j = int(finite.all(axis=0).argmin()) + 1
            raise GeometryError(f"component {j}: offset or bound is not finite")
        if (lb > ub).any():
            raise GeometryError("lower bound exceeds upper bound")
        if (x < lb - 1e-12).any() or (x > ub + 1e-12).any():
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


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _dense_ts(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)``, shared: a view of immutable bytes, so it
    is read-only for good and serves as its own memo key."""
    return np.frombuffer(np.linspace(lo, hi, n).tobytes())


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _station_grid(reference: ReferenceGeometry, lo: float, hi: float):
    """The shared N_STATIONS grid from ``lo`` to ``hi`` and the reference's
    roof and floor corner radii at its outlet station ``hi``.

    Control-point x never moves, so every design of a reference asks for the
    same endpoints; the memo is keyed on their exact floats all the same.
    """
    return (_dense_ts(lo, hi, N_STATIONS),
            np.interp(hi, reference.xs, reference.r_r),
            np.interp(hi, reference.xs, reference.r_f))


def _dense_points(curve: BSplineCurve, n: int = _N_DENSE) -> np.ndarray:
    """``eval_curve`` at the shared dense grid of the curve's domain."""
    ts = _dense_ts(*curve.domain, n)
    return basis_matrix(curve.knots, len(curve.control_points), curve.k,
                        ts) @ curve.control_points


def _dense_x(curve: BSplineCurve, n: int = _N_DENSE) -> np.ndarray:
    return _dense_points(curve, n)[:, 0]


def _curve_y(curve: BSplineCurve, xs, n: int = _N_DENSE) -> np.ndarray:
    """Curve height as a function of the station coordinate.

    Control-point x positions are never offset, so x(t) is monotone and the
    curve is a graph over the station axis; a dense sample plus linear
    interpolation inverts it.
    """
    pts = _dense_points(curve, n)
    return np.interp(xs, pts[:, 0], pts[:, 1])


# Offsets of the first two control points of every curve: they stay fixed.
_FIXED = np.zeros(2)


def synthesize(reference: ReferenceGeometry, x: DesignVector) -> DraftTubeDesign:
    """Apply control-point offsets to the reference and sample cross-sections.

    Roof and floor control points move vertically (R1..R7, F1..F7), width
    control points laterally (W1..W4); the first two control points of every
    curve stay fixed. Raises if the roof crosses the floor anywhere.
    """
    off = x.offsets
    roof = reference.roof.with_offsets(np.concatenate((_FIXED, off[0:7])))
    floor = reference.floor.with_offsets(np.concatenate((_FIXED, off[7:14])))
    if x.dim == 18:
        width_dy = np.concatenate((_FIXED, off[14:18]))
    else:
        width_dy = np.zeros(6)
    width = reference.width.with_offsets(width_dy)

    xs_r = _dense_x(roof)
    # The outlet's radii interpolate between adjacent reference sections.
    xs, r_r, r_f = _station_grid(reference, float(xs_r[0]), float(xs_r[-1]))
    roof_y = _curve_y(roof, xs)
    floor_y = _curve_y(floor, xs)
    if (roof_y <= floor_y).any():
        raise GeometryError("roof crosses the floor for this offset vector")
    w = _curve_y(width, xs)
    if (w <= 0).any():
        raise GeometryError("non-positive duct width for this offset vector")
    h = 0.5 * (roof_y - floor_y)

    # Clamp the radii so the rounded corners fit inside the section.
    lim = min(w[-1], h[-1])
    return DraftTubeDesign(roof, floor, width, xs, w, h,
                           (min(r_r, lim), min(r_f, lim)))


def station_gradient(F, xs) -> np.ndarray:
    """``np.gradient(F, xs, axis=-1)`` for a ``(..., len(xs))`` stack.

    Second-order central differences inside, first-order one-sided ones at
    the two ends, with numpy's own coefficient expressions, so the result is
    bit-identical to ``np.gradient`` (its uniform-spacing branch included).
    Every design shares one station grid, so the coefficients are memoized
    on the exact bytes of ``xs``, as ``basis_matrix`` is, and on the number
    of profiles in the stack.
    """
    F = np.asarray(F, dtype=float, order="C")
    xs = np.asarray(xs, dtype=float)
    # Equal shapes leave xs 1-D, or 0-D with size 1.
    if F.shape[-1:] != xs.shape or xs.size < 2:
        raise GeometryError("station_gradient needs an (..., n) stack over "
                            "n >= 2 stations")
    abc, dx_0, dx_n = _memo_stencil(_exact_bytes(xs), F.size // xs.size)
    out = np.empty_like(F)
    # The interior formula runs once along the flattened stack: an entry
    # next to a row boundary mixes two rows, and the ends overwrite it.
    f, g = F.reshape(-1), out.reshape(-1)
    if abc is None:
        g[1:-1] = (f[2:] - f[:-2]) / (2. * dx_0)
    else:
        a, b, c = abc
        g[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
    out[..., 0] = (F[..., 1] - F[..., 0]) / dx_0
    out[..., -1] = (F[..., -1] - F[..., -2]) / dx_n
    return out


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _memo_stencil(xs_bytes: bytes, rows: int):
    """(a, b, c) along the interior of ``rows`` flattened profiles, zero
    next to a row boundary, or None on a uniform grid; and the end steps."""
    dx = np.diff(np.frombuffer(xs_bytes))
    if (dx == dx[0]).all():
        return None, dx[0], dx[0]
    dx1, dx2 = dx[:-1], dx[1:]
    abc = np.stack([-dx2 / (dx1 * (dx1 + dx2)),
                    (dx2 - dx1) / (dx1 * dx2),
                    dx1 / (dx2 * (dx1 + dx2))])
    abc = np.tile(np.pad(abc, ((0, 0), (1, 1))), rows)[:, 1:-1].copy()
    abc.flags.writeable = False
    return abc, dx[0], dx[-1]


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
    length = float(np.sqrt((xs[1:] - xs[:-1]) ** 2
                           + (mid[1:] - mid[:-1]) ** 2).sum())
    dh, dw = station_gradient(np.concatenate((h[None], w[None])), xs)
    slope = float(np.arctan(0.5 * (np.abs(dh) + np.abs(dw))).mean())
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
