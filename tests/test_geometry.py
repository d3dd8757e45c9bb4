import dataclasses
from importlib import resources

import numpy as np
import pytest

from drafttube import geometry
from drafttube.geometry import (
    BSplineCurve,
    DesignVector,
    GeometryError,
    basis_matrix,
    eval_curve,
    load_reference,
    scenario_bounds,
    synthesize,
)


def clamped_knots(n_ctrl: int, k: int) -> np.ndarray:
    """Clamped knot vector on [0, 1] with evenly spaced internal knots.

    Length is ``n_ctrl + k``: the first and last knots repeat ``k`` times so
    the curve interpolates its end control points.
    """
    internal = np.linspace(0.0, 1.0, n_ctrl - k + 2)[1:-1]
    return np.concatenate([np.zeros(k), internal, np.ones(k)])


def basis(i: int, k: int, t: float, knots) -> float:
    """Scalar Cox-de Boor recursion N_{i,k}(t): the brute-force reference.

    The order-1 base case is the indicator of the half-open span
    [t_i, t_{i+1}); degenerate 0/0 weights resolve to 0.
    """
    if k == 1:
        return 1.0 if knots[i] <= t < knots[i + 1] else 0.0
    left = 0.0
    den = knots[i + k - 1] - knots[i]
    if den > 0.0:
        left = (t - knots[i]) / den * basis(i, k - 1, t, knots)
    right = 0.0
    den = knots[i + k] - knots[i + 1]
    if den > 0.0:
        right = (knots[i + k] - t) / den * basis(i + 1, k - 1, t, knots)
    return left + right


def make_curve(n_ctrl=7, k=3, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.linspace(0.0, 8.0, n_ctrl)
    y = rng.uniform(-1.0, 1.0, n_ctrl)
    return BSplineCurve(k, np.column_stack([x, y]), clamped_knots(n_ctrl, k))


class TestBasis:
    def test_partition_of_unity(self):
        n_ctrl, k = 8, 3
        knots = clamped_knots(n_ctrl, k)
        # The scalar recursion uses half-open spans, so the right domain
        # endpoint is excluded here (basis_matrix closes it).
        ts = np.linspace(knots[k - 1], knots[n_ctrl], 200, endpoint=False)
        for t in ts:
            total = sum(basis(i, k, t, knots) for i in range(n_ctrl))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_and_local_support(self):
        n_ctrl, k = 8, 3
        knots = clamped_knots(n_ctrl, k)
        for i in range(n_ctrl):
            for t in np.linspace(knots[0], knots[-1], 97):
                v = basis(i, k, t, knots)
                assert v >= 0.0
                if not (knots[i] <= t < knots[i + k]) and t < knots[-1]:
                    assert v == 0.0

    def test_matrix_agrees_with_scalar_recursion(self):
        n_ctrl, k = 6, 3
        knots = clamped_knots(n_ctrl, k)
        ts = np.linspace(knots[k - 1], knots[n_ctrl], 41)
        B = basis_matrix(knots, n_ctrl, k, ts)
        for j, t in enumerate(ts[:-1]):
            ref = [basis(i, k, t, knots) for i in range(n_ctrl)]
            np.testing.assert_allclose(B[j], ref, atol=1e-12)
        # Closed right endpoint: the last control point gets full weight.
        assert B[-1, -1] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-9)

    def test_clamped_knot_multiplicity(self):
        knots = clamped_knots(9, 3)
        assert len(knots) == 9 + 3
        assert np.all(knots[:3] == knots[0])
        assert np.all(knots[-3:] == knots[-1])


class TestBasisMemo:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        geometry._memo_basis_matrix.cache_clear()
        yield
        geometry._memo_basis_matrix.cache_clear()

    def test_warm_call_returns_the_cold_bytes(self):
        knots = clamped_knots(9, 3)
        ts = np.linspace(0.0, 1.0, 801)
        fresh = geometry._cox_de_boor_matrix(knots, 9, 3, ts)
        cold = basis_matrix(knots, 9, 3, ts)
        warm = basis_matrix(list(knots), 9, 3, ts.copy())
        assert geometry._memo_basis_matrix.cache_info().hits == 1
        assert cold.tobytes() == warm.tobytes() == fresh.tobytes()
        assert cold.strides == fresh.strides

    def test_shared_matrix_is_read_only(self):
        B = basis_matrix(clamped_knots(6, 3), 6, 3, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValueError):
            B[0, 0] = 1.0
        with pytest.raises(ValueError):
            B.flags.writeable = True
        with pytest.raises(ValueError):
            B.base[0, 0] = 1.0

    def test_cache_stays_within_its_bound(self):
        knots = clamped_knots(6, 3)
        for n in range(2, 2 + 3 * geometry._BASIS_CACHE_SIZE):
            ts = np.linspace(0.0, 1.0, n)
            np.testing.assert_array_equal(
                basis_matrix(knots, 6, 3, ts),
                geometry._cox_de_boor_matrix(knots, 6, 3, ts))
        info = geometry._memo_basis_matrix.cache_info()
        assert info.currsize <= geometry._BASIS_CACHE_SIZE

    def test_grid_of_immutable_bytes_is_its_own_key(self):
        knots = clamped_knots(9, 3)
        raw = np.linspace(0.0, 1.0, 801).tobytes()
        grid = np.frombuffer(raw)
        assert geometry._exact_bytes(grid) is raw
        assert geometry._exact_bytes(grid[::2]) == grid[::2].tobytes()
        assert geometry._exact_bytes(grid[1:]) == grid[1:].tobytes()
        assert (basis_matrix(knots, 9, 3, grid).tobytes()
                == basis_matrix(knots, 9, 3, grid.copy()).tobytes())
        assert geometry._memo_basis_matrix.cache_info().hits == 1

    def test_out_of_range_raises_on_every_call(self):
        knots = clamped_knots(6, 3)
        for _ in range(3):
            with pytest.raises(GeometryError):
                basis_matrix(knots, 6, 3, [0.5, 1.5])
        assert geometry._memo_basis_matrix.cache_info().currsize == 0


class TestCurve:
    def test_endpoint_interpolation(self):
        curve = make_curve(seed=3)
        lo, hi = curve.domain
        np.testing.assert_allclose(eval_curve(curve, lo),
                                   curve.control_points[0], atol=1e-12)
        np.testing.assert_allclose(eval_curve(curve, hi),
                                   curve.control_points[-1], atol=1e-9)

    def test_offsets_move_heights_only(self):
        curve = make_curve(seed=7)
        dy = np.linspace(0.0, 0.2, len(curve.control_points))
        moved = curve.with_offsets(dy)
        np.testing.assert_allclose(moved.control_points[:, 0],
                                   curve.control_points[:, 0])
        np.testing.assert_allclose(
            moved.control_points[:, 1] - curve.control_points[:, 1], dy)

    def test_offset_copy_keeps_the_checked_shape_and_knots(self):
        curve = make_curve(seed=7)
        moved = curve.with_offsets(np.full(len(curve.control_points), 0.1))
        assert type(moved) is BSplineCurve and moved.k == curve.k
        assert moved.knots is curve.knots
        assert moved.control_points.shape == curve.control_points.shape
        assert not np.shares_memory(moved.control_points,
                                    curve.control_points)
        assert moved.domain == curve.domain
        # Direct construction still checks its input.
        with pytest.raises(GeometryError, match="non-decreasing"):
            BSplineCurve(3, curve.control_points, curve.knots[::-1])


class TestScenarioBounds:
    def test_dimensions(self):
        for scenario, dim in (("I.a", 14), ("I.b", 14),
                              ("II.a", 18), ("II.b", 18)):
            lb, ub = scenario_bounds(scenario)
            assert lb.shape == ub.shape == (dim,)
            assert np.all(lb < ub)

    def test_unconstrained_symmetric(self):
        for scenario in ("I.a", "II.a"):
            lb, ub = scenario_bounds(scenario)
            np.testing.assert_allclose(lb, -0.25)
            np.testing.assert_allclose(ub, 0.25)

    def test_envelope_scenarios_one_sided(self):
        lb, ub = scenario_bounds("I.b")
        assert np.all(ub[:7] == 0.0) and np.all(lb[:7] == -0.25)   # roof down
        assert np.all(lb[7:] == 0.0) and np.all(ub[7:] == 0.25)    # floor up
        lb, ub = scenario_bounds("II.b")
        assert np.all(ub[14:] == 0.0) and np.all(lb[14:] == -0.25)  # width in

    def test_unknown_scenario(self):
        with pytest.raises(GeometryError):
            scenario_bounds("III")


class TestDesignVector:
    def test_rejects_bad_length(self):
        lb, ub = np.full(5, -1.0), np.full(5, 1.0)
        with pytest.raises(GeometryError):
            DesignVector(np.zeros(5), lb, ub)

    def test_rejects_out_of_bounds(self):
        lb, ub = scenario_bounds("I.a")
        x = np.zeros(14)
        x[3] = 0.3
        with pytest.raises(GeometryError):
            DesignVector(x, lb, ub)

    @pytest.mark.parametrize("field", ["offsets", "lb", "ub"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input_naming_the_component(self, field,
                                                            value):
        lb, ub = scenario_bounds("II.a")
        args = {"offsets": np.zeros(18), "lb": lb.copy(), "ub": ub.copy()}
        args[field][3] = value
        with pytest.raises(GeometryError, match="^component 4: .*not finite"):
            DesignVector(**args)


@pytest.fixture(scope="module")
def reference():
    return load_reference()


class TestReference:
    # Each case breaks data row 5 of the packaged stations file.
    @pytest.mark.parametrize("column, value", [
        ("w", "0.0"),               # non-positive half-width
        ("r_f", "-0.1"),            # negative corner radius
        ("r_r", "5.0"),             # radius above min(w, h)
        ("kind", "trapezoidal"),    # unknown section kind
        ("station", "0.0"),         # station not beyond the previous row's
    ])
    def test_bad_station_row_is_named(self, tmp_path, column, value):
        src = resources.files("drafttube") / "data" / "reference_stations.csv"
        lines = src.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[5].split(",")
        cells[header.index(column)] = value
        lines[5] = ",".join(cells)
        path = tmp_path / "stations.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GeometryError, match="stations.csv: data row 5: "):
            load_reference(stations_path=path)


class TestSynthesize:
    def test_reference_shape(self, reference):
        assert len(reference.roof.control_points) == 9
        assert len(reference.floor.control_points) == 9
        assert len(reference.width.control_points) == 6

    def test_zero_offsets(self, reference):
        lb, ub = scenario_bounds("II.a")
        design = synthesize(reference, DesignVector(np.zeros(18), lb, ub))
        for field in (design.xs, design.w, design.h):
            assert field.shape == (geometry.N_STATIONS,)
        assert np.all(design.w > 0) and np.all(design.h > 0)
        lim = min(design.w[-1], design.h[-1])
        assert all(0.0 <= r <= lim for r in design.r_out)

    def test_first_two_control_points_fixed(self, reference):
        lb, ub = scenario_bounds("II.a")
        design = synthesize(reference, DesignVector(ub.copy(), lb, ub))
        np.testing.assert_allclose(design.roof.control_points[:2],
                                   reference.roof.control_points[:2])
        np.testing.assert_allclose(design.floor.control_points[:2],
                                   reference.floor.control_points[:2])
        np.testing.assert_allclose(design.width.control_points[:2],
                                   reference.width.control_points[:2])
        np.testing.assert_allclose(
            design.roof.control_points[2:, 1]
            - reference.roof.control_points[2:, 1], 0.25)

    def test_station_grid_is_shared_and_read_only(self, reference):
        lb, ub = scenario_bounds("I.b")
        a = synthesize(reference, DesignVector(lb.copy(), lb, ub))
        b = synthesize(reference, DesignVector(ub.copy(), lb, ub))
        assert a.xs is b.xs
        np.testing.assert_array_equal(
            a.xs, np.linspace(a.xs[0], a.xs[-1], geometry.N_STATIONS))
        with pytest.raises(ValueError):
            a.xs[0] = 1.0
        with pytest.raises(ValueError):
            a.xs.flags.writeable = True

    def test_outlet_radii_follow_their_own_reference(self, reference):
        lb, ub = scenario_bounds("II.a")
        x = DesignVector(np.zeros(18), lb, ub)
        before = synthesize(reference, x).r_out
        halved = dataclasses.replace(reference, r_r=reference.r_r / 2,
                                     r_f=reference.r_f / 2)
        assert synthesize(halved, x).r_out == (before[0] / 2, before[1] / 2)
        assert synthesize(reference, x).r_out == before
        with pytest.raises(ValueError):
            reference.r_r[0] = 0.0

    def test_roof_floor_crossing_rejected(self, reference):
        lb = np.full(14, -2.0)
        ub = np.full(14, 2.0)
        x = np.concatenate([np.full(7, -1.5), np.full(7, 1.5)])
        with pytest.raises(GeometryError):
            synthesize(reference, DesignVector(x, lb, ub))

    def test_all_scenarios_synthesize_at_their_corners(self, reference):
        for scenario in ("I.a", "I.b", "II.a", "II.b"):
            lb, ub = scenario_bounds(scenario)
            for corner in (lb, ub):
                design = synthesize(reference,
                                    DesignVector(corner.copy(), lb, ub))
                assert design.xs.shape == (geometry.N_STATIONS,)

    def test_envelope_containment(self, reference):
        """I.b/II.b designs stay inside the reference duct everywhere."""
        rng = np.random.Generator(np.random.PCG64(42))
        ref_design = synthesize(
            reference, DesignVector(np.zeros(18), *scenario_bounds("II.a")))
        xs, ref_roof, ref_floor, ref_w = geometry.station_profiles(ref_design)
        for scenario in ("I.b", "II.b"):
            lb, ub = scenario_bounds(scenario)
            for _ in range(10):
                x = rng.uniform(lb, ub)
                design = synthesize(reference, DesignVector(x, lb, ub))
                _, roof, floor, w = geometry.station_profiles(design)
                assert np.all(roof <= ref_roof + 1e-9)
                assert np.all(floor >= ref_floor - 1e-9)
                assert np.all(w <= ref_w + 1e-9)


class TestAreas:
    def test_inlet_circle_and_rounded_outlet(self, reference):
        lb, ub = scenario_bounds("II.a")
        design = synthesize(reference, DesignVector(np.zeros(18), lb, ub))
        bulk = geometry.areas(design)
        w, h = design.w[-1], design.h[-1]
        r_r, r_f = design.r_out
        assert bulk["A_in"] == np.pi * design.w[0] ** 2
        assert bulk["A_out"] == \
            4.0 * w * h - (4.0 - np.pi) / 2.0 * (r_r ** 2 + r_f ** 2)

    def test_bulk_quantities(self):
        reference = load_reference()
        lb, ub = scenario_bounds("II.a")
        design = synthesize(reference, DesignVector(np.zeros(18), lb, ub))
        bulk = geometry.areas(design)
        assert bulk["A_out"] > bulk["A_in"] > 0  # the duct is a diffuser
        assert bulk["length"] >= design.xs[-1] - design.xs[0]
        assert 0.0 <= bulk["mean_slope"] < np.pi / 2


def _station_grids():
    """Each scenario's station grid, two uniform grids and a random
    increasing one."""
    reference = load_reference()
    grids = {}
    for scenario in ("I.a", "I.b", "II.a", "II.b"):
        lb, ub = scenario_bounds(scenario)
        grids[scenario] = synthesize(
            reference, DesignVector(np.zeros_like(lb), lb, ub)).xs
    grids["uniform"] = np.arange(84.0)
    # A spacing that is not a power of two, so that multiplying by a
    # reciprocal cannot stand in for numpy's division.
    grids["uniform-3"] = 3.0 * np.arange(84.0)
    rng = np.random.Generator(np.random.PCG64(5))
    grids["random"] = np.cumsum(rng.uniform(0.05, 1.0, 84))
    return grids


class TestStationGradient:
    @pytest.mark.parametrize("grid", ["I.a", "I.b", "II.a", "II.b",
                                      "uniform", "uniform-3", "random"])
    @pytest.mark.parametrize("shape", [(84,), (3, 84), (2, 3, 84), "F"])
    def test_equals_numpy_gradient_bitwise(self, grid, shape):
        xs = _station_grids()[grid]
        rng = np.random.Generator(np.random.PCG64(len(shape)))
        # "F": a Fortran-ordered (3, 84) stack, not contiguous along rows.
        F = (rng.normal(size=(84, 3)).T if shape == "F"
             else rng.normal(size=shape))
        expected = np.gradient(F, xs, axis=-1)
        assert geometry.station_gradient(F, xs).tobytes() == expected.tobytes()
        # Applied twice, as the curvature penalty does.
        assert (geometry.station_gradient(geometry.station_gradient(F, xs), xs)
                .tobytes() == np.gradient(expected, xs, axis=-1).tobytes())

    def test_uniform_grid_takes_the_uniform_branch(self):
        abc, dx_0, dx_n = geometry._memo_stencil(np.arange(84.0).tobytes(), 1)
        assert abc is None and dx_0 == dx_n == 1.0

    def test_coefficients_are_shared_and_read_only(self):
        xs = _station_grids()["II.a"]
        geometry._memo_stencil.cache_clear()
        for _ in range(3):
            geometry.station_gradient(np.ones(84), xs.copy())
        assert geometry._memo_stencil.cache_info().hits == 2
        abc = geometry._memo_stencil(xs.tobytes(), 1)[0]
        with pytest.raises(ValueError):
            abc[0, 0] = 1.0

    @pytest.mark.parametrize("F, xs", [(np.ones(83), np.arange(84.0)),
                                       (np.ones((3, 84)), np.ones((2, 42))),
                                       (np.ones(1), np.zeros(1))])
    def test_rejects_mismatched_shapes(self, F, xs):
        with pytest.raises(GeometryError):
            geometry.station_gradient(F, xs)
