import csv

import numpy as np
import pytest

from drafttube import cli, doe, geometry
from drafttube.doe import read_samples_csv
from drafttube.evaluator import (
    EvaluationError,
    OracleConstants,
    gci,
    ingest_csv,
    read_table,
    synthetic_cfd,
    write_dataset_csv,
    write_table,
    x_columns,
)
from drafttube.geometry import (
    BSplineCurve,
    DesignVector,
    load_reference,
    scenario_bounds,
    synthesize,
)


def _reference_oracle(X: np.ndarray) -> np.ndarray:
    """The oracle's formulas written out plainly: curves built through the
    checking constructor, a fresh station grid for every design, and
    np.gradient, np.diff and np.mean in place of the shared helpers."""
    ref = load_reference()
    c = OracleConstants.load()

    def moved(curve, dy):
        cp = curve.control_points.copy()
        cp[:, 1] += np.concatenate([[0.0, 0.0], dy])
        return BSplineCurve(curve.k, cp, curve.knots)

    def dense(curve):
        ts = np.linspace(*curve.domain, 801)
        return geometry._cox_de_boor_matrix(
            curve.knots, len(curve.control_points), curve.k,
            ts) @ curve.control_points

    def height(curve, xs):
        pts = dense(curve)
        return np.interp(xs, pts[:, 0], pts[:, 1])

    Y = np.empty((len(X), 2))
    for i, x in enumerate(X):
        roof = moved(ref.roof, x[0:7])
        floor = moved(ref.floor, x[7:14])
        width = moved(ref.width, x[14:18] if len(x) == 18 else np.zeros(4))
        x_roof = dense(roof)[:, 0]
        xs = np.linspace(x_roof[0], x_roof[-1], 84)
        roof_y, floor_y, w = (height(roof, xs), height(floor, xs),
                              height(width, xs))
        h = 0.5 * (roof_y - floor_y)
        lim = np.minimum(w[-1], h[-1])
        r_r = np.minimum(np.interp(xs[-1], ref.xs, ref.r_r), lim)
        r_f = np.minimum(np.interp(xs[-1], ref.xs, ref.r_f), lim)
        a_in = float(np.pi * w[0] ** 2)
        a_out = float(4.0 * w[-1] * h[-1]
                      - (4.0 - np.pi) / 2.0 * (r_r ** 2 + r_f ** 2))
        mid = 0.5 * (roof_y + floor_y)
        length = float(np.sum(np.sqrt(np.diff(xs) ** 2 + np.diff(mid) ** 2)))
        slope = float(np.mean(np.arctan(
            0.5 * (np.abs(np.gradient(h, xs)) + np.abs(np.gradient(w, xs))))))
        curvature = 0.0
        for profile in (roof_y, floor_y, w):
            d2 = np.gradient(np.gradient(profile, xs), xs)
            curvature += float(np.sqrt(np.mean(d2 ** 2)))
        curvature /= 3.0
        ratio = a_in / a_out
        Y[i] = (c.diffusion_gain * (1.0 - ratio ** 2)
                - c.curvature_weight * curvature,
                c.friction_coefficient * length / (2.0 * float(w[0]))
                + c.slope_weight * slope ** 2
                + c.curvature_weight * curvature)
    return Y


@pytest.fixture(scope="module")
def reference_design():
    lb, ub = scenario_bounds("II.a")
    return synthesize(load_reference(), DesignVector(np.zeros(18), lb, ub))


class TestSyntheticOracle:
    def test_reference_calibration(self, reference_design):
        obj = synthetic_cfd(reference_design)
        assert obj.cp == pytest.approx(0.819, abs=1e-9)
        assert obj.cd == pytest.approx(0.131, abs=1e-9)

    def test_deterministic(self, reference_design):
        a = synthetic_cfd(reference_design)
        b = synthetic_cfd(reference_design)
        assert (a.cp, a.cd) == (b.cp, b.cd)

    def test_recorded_values(self):
        # Rows: zero offsets, lb, ub, then one LHS row (seed 7).
        expected = {
            "II.a": [(0.8190000000119014, 0.1309999999972458),
                     (0.6457051102519298, 0.19135877006461155),
                     (0.8469553789123302, 0.19786367081771483),
                     (0.7443435812495885, 0.21673041695710002)],
            "I.b": [(0.8190000000119014, 0.1309999999972458),
                    (0.7112798742543296, 0.15977068410536405),
                    (0.7098359554867901, 0.16115400125061494),
                    (0.6476679879347557, 0.17534522171343037)],
            "I.a": [(0.8190000000119014, 0.1309999999972458),
                    (0.7721760152341328, 0.17811883128333098),
                    (0.7778621854355321, 0.17231353736357843),
                    (0.6941576509013108, 0.195048888514269)],
            "II.b": [(0.8190000000119014, 0.1309999999972458),
                     (0.5516205439551056, 0.17360851598606422),
                     (0.7098359554867901, 0.16115400125061494),
                     (0.6122426666136008, 0.1852805172275212)],
        }
        for scenario, values in expected.items():
            lb, ub = scenario_bounds(scenario)
            X = np.vstack([np.zeros_like(lb), lb, ub,
                           doe.lhs(doe.DoePlan(1, lb, ub, seed=7))])
            np.testing.assert_allclose(cli.evaluate_samples(X, lb, ub),
                                       values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scenario", ["I.a", "I.b", "II.a", "II.b"])
    def test_bytes_equal_the_reference_formulas(self, scenario):
        lb, ub = scenario_bounds(scenario)
        X = np.vstack([doe.lhs(doe.DoePlan(64, lb, ub, seed=35)),
                       np.zeros_like(lb)])
        assert np.array_equal(cli.evaluate_samples(X, lb, ub),
                              _reference_oracle(X))

    def test_constants_are_loaded_from_data(self):
        c = OracleConstants.load()
        assert c.diffusion_gain > 0 and c.friction_coefficient > 0
        assert c.slope_weight > 0 and c.curvature_weight > 0

    def test_random_designs_stay_plausible(self):
        rng = np.random.Generator(np.random.PCG64(0))
        lb, ub = scenario_bounds("II.a")
        ref = load_reference()
        for _ in range(20):
            x = rng.uniform(lb, ub)
            obj = synthetic_cfd(synthesize(ref, DesignVector(x, lb, ub)))
            assert 0.0 < obj.cp < 1.0
            assert obj.cd > 0.0


class TestResultFileIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.uniform(-0.25, 0.25, size=(25, 14))
        Y = rng.uniform(0.1, 0.9, size=(25, 2))
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, X, Y, "lineage")
        X2, Y2 = ingest_csv(path)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(Y, Y2)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,cp,cd\n0,0,1,1\n")
        with pytest.raises(EvaluationError):
            ingest_csv(path)

    def test_rejects_wrong_column_count_with_line_number(self, tmp_path):
        header = ",".join(f"x{j}" for j in range(1, 15)) + ",cp,cd\n"
        path = tmp_path / "short.csv"
        path.write_text(header + ",".join(["0.0"] * 16) + "\n0.0,0.0\n")
        with pytest.raises(EvaluationError, match=":3:"):
            ingest_csv(path)

    def test_rejects_non_finite_values(self, tmp_path):
        header = ",".join(f"x{j}" for j in range(1, 15)) + ",cp,cd\n"
        path = tmp_path / "nan.csv"
        path.write_text(header + ",".join(["0.0"] * 15) + ",nan\n")
        with pytest.raises(EvaluationError, match="non-finite"):
            ingest_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(EvaluationError):
            ingest_csv(path)

    def test_reads_crlf_rows_of_older_artifacts(self, tmp_path):
        # Older writers used csv.writer: CRLF rows under an LF lineage line.
        rng = np.random.Generator(np.random.PCG64(4))
        X = rng.uniform(-0.25, 0.25, size=(9, 18))
        Y = rng.uniform(0.1, 0.9, size=(9, 2))
        for name, header, rows in (("samples.csv", x_columns(18), X),
                                   ("dataset.csv", x_columns(18) + ["cp", "cd"],
                                    np.hstack([X, Y]))):
            with open(tmp_path / name, "w", newline="") as fh:
                fh.write("# drafttube stage=old\n")
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([f"{v:.17g}" for v in row] for row in rows)
            assert b"\r\n" in (tmp_path / name).read_bytes()
        np.testing.assert_array_equal(read_samples_csv(tmp_path / "samples.csv"), X)
        X2, Y2 = ingest_csv(tmp_path / "dataset.csv")
        np.testing.assert_array_equal(X2, X)
        np.testing.assert_array_equal(Y2, Y)


class TestTable:
    def test_round_trip_writes_lf_and_17_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "lineage", ["a", "b"], [[1, 0.1], [2, 1 / 3]])
        assert path.read_bytes() == (b"# lineage\na,b\n1,0.10000000000000001\n"
                                     b"2,0.33333333333333331\n")
        header, values = read_table(path, lambda h: h == ["a", "b"])
        assert header == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.0, 0.1], [2.0, 1 / 3]])

    def test_strings_are_written_as_they_are(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, "", ["name", "value"], [("p", 2.5)])
        assert path.read_text() == "name,value\np,2.5\n"

    @pytest.mark.parametrize("body,where", [
        ("a,b\n", "t.csv: no data rows"),
        ("a,c\n1,2\n", "t.csv:1: unexpected header"),
        ("a,b\n1,2\n\n3\n", "t.csv:4: expected 2 columns"),
        ("a,b\n1,x\n", "t.csv:2:"),
        ("a,b\n1,inf\n", "t.csv:2: non-finite value"),
    ])
    def test_errors_name_the_file_and_line(self, tmp_path, body, where):
        path = tmp_path / "t.csv"
        path.write_text(body)
        with pytest.raises(EvaluationError, match=where):
            read_table(path, lambda h: h == ["a", "b"])


class TestGridConvergenceIndex:
    def test_decreasing_trend_reference_row(self):
        rep = gci(1.575, 0.563, 1.5)
        assert rep.p_gci == pytest.approx(2.553, rel=0.01)
        assert rep.gci_cm == pytest.approx(1.084, rel=0.01)
        assert rep.gci_mf == pytest.approx(0.387, rel=0.01)
        assert rep.asymptotic_ratio == pytest.approx(0.994, rel=0.01)

    def test_increasing_trend_reference_row(self):
        rep = gci(10.055, 4.252, 1.5, trend="increasing")
        assert rep.p_gci == pytest.approx(2.015, rel=0.01)
        assert rep.gci_cm == pytest.approx(9.944, rel=0.01)
        assert rep.gci_mf == pytest.approx(4.206, rel=0.01)
        assert rep.asymptotic_ratio == pytest.approx(1.044, rel=0.01)

    def test_shared_normalization_recovers_exact_order(self):
        # eps_cm = r^p * eps_mf makes the plain formula exact.
        for p_true in (1.0, 2.0, 3.0):
            rep = gci(1.5 ** p_true * 0.4, 0.4, 1.5, trend="shared")
            assert rep.p_gci == pytest.approx(p_true, abs=1e-12)

    def test_second_order_asymptotic_ratio_is_unity(self):
        rep = gci(0.9, 0.9 / 1.5 ** 2, 1.5, trend="shared")
        assert rep.asymptotic_ratio == pytest.approx(1.0, abs=1e-12)

    def test_report_rows_are_complete(self):
        rep = gci(1.575, 0.563, 1.5)
        names = [n for n, _ in rep.as_rows()]
        assert names == ["eps_cm_pct", "eps_mf_pct", "r", "F_s", "p",
                         "GCI_cm_pct", "GCI_mf_pct", "asymptotic_ratio"]

    def test_input_validation(self):
        with pytest.raises(EvaluationError):
            gci(-1.0, 0.5, 1.5)
        with pytest.raises(EvaluationError):
            gci(1.0, 0.5, 1.0)
        with pytest.raises(EvaluationError):
            gci(1.0, 0.5, 1.5, F_s=0.5)
        with pytest.raises(EvaluationError):
            gci(1.0, 0.5, 1.5, trend="sideways")
        with pytest.raises(EvaluationError):
            gci(0.5, 1.0, 1.5)  # diverging study

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["eps_cm", "eps_mf", "r", "F_s"])
    def test_non_finite_input_is_named(self, name, value):
        kwargs = dict(eps_cm=1.575, eps_mf=0.563, r=1.5, F_s=1.25)
        kwargs[name] = value
        with pytest.raises(EvaluationError, match=f"^{name} must be finite"):
            gci(**kwargs)
