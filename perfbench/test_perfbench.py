"""Tests for the benchmark's own code: tracer, checks and metric names."""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, run, workload
from perfbench.tracer import Tracer

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """Advances only when told to, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_self_time_excludes_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    tracer.wrap(outer, "outer")()

    spans = tracer.snapshot()["spans"]
    assert spans["leaf"] == [2, 4.0, 4.0]
    assert spans["middle"] == [1, 5.5, 1.5]
    assert spans["outer"] == [1, 8.5, 3.0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        tracer.wrap(lambda: traced(), "outer")()
    spans = tracer.snapshot()["spans"]
    assert spans["boom"] == [1, 1.0, 1.0]
    assert spans["outer"] == [1, 1.0, 0.0]


def test_patch_covers_aliases_and_classmethods_and_restores():
    owner = types.ModuleType("drafttube_fake_owner")
    alias = types.ModuleType("drafttube_fake_alias")

    def f(x):
        return x + 1

    class K:
        @classmethod
        def make(cls, x):
            return (cls, x)

    owner.f = alias.f = f
    sys.modules[owner.__name__] = owner
    sys.modules[alias.__name__] = alias
    try:
        tracer = Tracer()
        tracer.patch(owner, "f", "f", alias_prefix="drafttube_fake")
        tracer.patch(K, "make", "K.make")
        assert owner.f(1) == alias.f(1) == 2
        assert K.make(3) == (K, 3)
        assert tracer.calls["f"] == 2 and tracer.calls["K.make"] == 1
        tracer.restore()
        assert owner.f is f and alias.f is f
        assert isinstance(K.__dict__["make"], classmethod)
    finally:
        del sys.modules[owner.__name__], sys.modules[alias.__name__]


# ---------------------------------------------------------------------------
# Checks and failure counting
# ---------------------------------------------------------------------------

def _write_front(path, X, Y):
    from drafttube import evaluator
    evaluator.write_dataset_csv(path, np.asarray(X), np.asarray(Y))


def _front_op(path):
    ops = checks.Ops()
    ops.call("optimize", lambda: 0,
             check=lambda _: checks.front_problems(path, "II.a"))
    ops.finish()
    return ops


def test_clean_front_passes(tmp_path):
    path = tmp_path / "front.csv"
    _write_front(path, np.zeros((2, 18)), [[0.90, 0.12], [0.85, 0.11]])
    ops = _front_op(path)
    assert (ops.attempted, ops.failed) == (1, 0)


def test_planted_dominated_row_fails_the_operation(tmp_path):
    path = tmp_path / "front.csv"
    # Row 1 has lower cp and higher cd than row 0: dominated.
    _write_front(path, np.zeros((2, 18)), [[0.90, 0.12], [0.85, 0.13]])
    ops = _front_op(path)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "dominated" in ops.errors[0]


def test_out_of_bounds_row_fails_the_operation(tmp_path):
    path = tmp_path / "front.csv"
    X = np.zeros((2, 18))
    X[1, 3] = 0.3  # II.a bounds are [-0.25, 0.25]
    _write_front(path, X, [[0.90, 0.12], [0.85, 0.11]])
    ops = _front_op(path)
    assert ops.failed == 1
    assert "outside" in ops.errors[0]


def test_non_zero_exit_fails_the_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(tmp_path / "log.txt", "w") as log:
        ops = checks.Ops(log)
        ops.cli(["evaluate", "--in", "missing.csv"], check=lambda: [])
    ops.finish()
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "exit code 3" in ops.errors[0]


def test_single_objective_best_must_beat_reference_cp(tmp_path):
    path = tmp_path / "best.csv"
    _write_front(path, np.zeros((1, 18)), [[0.80, 0.12]])
    assert checks.single_best_problems(path, "II.a")


def test_zero_offsets_map_to_the_reference():
    assert checks.zero_offset_problems("II.a") == []
    assert checks.zero_offset_problems("I.b") == []


def test_hypervolume_counts_only_the_region_beyond_the_reference():
    F = np.array([[-0.9, 0.10], [-0.85, 0.09], [-0.95, 0.20], [-0.88, 0.11]])
    ref = (-0.8, 0.12)
    # Brute force on a fine grid of the box [-1, -0.8] x [0, 0.12].
    g1, g2 = np.meshgrid(np.linspace(-1, -0.8, 801)[:-1] + 0.000125,
                         np.linspace(0, 0.12, 481)[:-1] + 0.000125)
    covered = np.zeros_like(g1, dtype=bool)
    for f1, f2 in F:
        covered |= (g1 >= f1) & (g2 >= f2)
    brute = covered.mean() * 0.2 * 0.12
    assert checks.hypervolume(F, ref) == pytest.approx(brute, rel=1e-3)


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

def _emitted_layer_metrics():
    empty = layers.derive({"spans": {}, "counters": {}})
    untraced = {"walls": [1.0], "stages": {}, "quality": {}}
    traced = {"walls": [1.1], "layers": empty}
    return run.layer_metrics(untraced, traced, untraced)


def test_every_metric_name_is_well_formed():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + list(_emitted_layer_metrics()) + list(run.E2E))
    assert all(NAME_RE.fullmatch(n) for n in names)


def test_every_listed_metric_is_emitted_with_its_unit():
    measured = {"walls": [2.0, 1.0, 3.0], "peak_rss_mb": 10.0}
    e2e = run.e2e_metrics(measured, [{"setup_s": 0.3}, {"setup_s": 0.1},
                                     {"setup_s": 0.2}])
    assert e2e == {"setup_s": 0.2, "wall_s": 2.0, "peak_rss_mb": 10.0}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    emitted = _emitted_layer_metrics()
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(emitted)
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]


def test_traced_workload_records_every_layer_it_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(workload.SIZES, "pipeline", {
        "scenario": "II.a", "samples": 60, "generations": 3, "pop_size": 12,
        "lof_k": 10})
    out = tmp_path / "result.json"
    assert workload.main(["--workload", "pipeline", "--seed", "3", "--trace",
                          "--workdir", str(tmp_path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    m = result["layers"]
    assert m["geometry.synthesize.calls"] >= 60
    assert m["geometry.basis_matrix.calls"] >= 8 * 60
    assert m["cli.evaluate_samples.rows"] >= 60
    assert m["surrogate.MlpModel.gradients.calls"] > 0
    assert m["surrogate.MlpModel.predict.rows"] > 0
    assert m["opt_multi.evals"] == 12 * (3 + 1)
    assert m["dataset.lof_keep_ratio"] > 0
    assert m["decision.topsis.s"] > 0 and m["report.svg_scatter.s"] > 0
    # The tracer is gone once the workload ends.
    from drafttube import geometry
    assert not hasattr(geometry.basis_matrix, "__wrapped__")
