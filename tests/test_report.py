import xml.etree.ElementTree as ET

import numpy as np
import pytest

from drafttube.report import svg_polylines, svg_scatter


def parse(svg: str):
    return ET.fromstring(svg)


class TestScatter:
    @pytest.mark.parametrize("name", ["front_a", "a&b<c>"])
    def test_emits_valid_svg_with_all_points(self, name):
        rng = np.random.Generator(np.random.PCG64(0))
        series = {name: rng.random((12, 2)), "front_b": rng.random((7, 2))}
        svg = svg_scatter(series, "f1", "f2", "fronts")
        root = parse(svg)
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 19
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert name in texts

    def test_highlight_adds_marker_and_label(self):
        svg = svg_scatter({"front": np.array([[0.5, 0.5]])}, "x", "y", "t",
                          highlight={"reference": (0.8, 0.1)})
        root = parse(svg)
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert "reference" in texts

    def test_deterministic(self):
        pts = {"s": np.array([[0.1, 0.2], [0.3, 0.4]])}
        assert svg_scatter(pts, "x", "y", "t") == svg_scatter(pts, "x", "y", "t")

    def test_degenerate_extent_does_not_divide_by_zero(self):
        svg = svg_scatter({"s": np.array([[0.5, 0.5], [0.5, 0.5]])},
                          "x", "y", "t")
        assert "nan" not in svg.lower()


class TestPolylines:
    def test_one_polyline_per_series(self):
        xs = np.arange(1.0, 11.0)
        series = {"a": np.column_stack([xs, 1.0 / xs]),
                  "b": np.column_stack([xs, 2.0 / xs])}
        root = parse(svg_polylines(series, "gen", "best", "conv"))
        lines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(lines) == 2
        assert all(len(line.get("points").split()) == 10 for line in lines)

    def test_log_scale_handles_tiny_values(self):
        xs = np.arange(1.0, 6.0)
        series = {"a": np.column_stack([xs, 10.0 ** (-2 * xs)])}
        svg = svg_polylines(series, "gen", "best", "conv", log_y=True)
        assert "nan" not in svg.lower() and "inf" not in svg.lower()
        assert "log10" in svg
