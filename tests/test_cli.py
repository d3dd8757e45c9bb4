import argparse
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from drafttube import cli, doe, evaluator, geometry, surrogate
from drafttube.cli import (
    DataError,
    UsageError,
    config_hash,
    load_config,
    main,
    read_lineage,
)
from drafttube.dataset import MinMaxScaler

pytestmark = pytest.mark.usefixtures("workdir")

SMALL_CFG = """\
# pipeline smoke configuration
scenario = II.a
seed = 3
samples = 80
generations = 6
pop_size = 16
lof_k = 10
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    (tmp_path / "run.cfg").write_text(SMALL_CFG)
    return tmp_path


DATA_HEADER = ",".join(f"x{j}" for j in range(1, 19)) + ",cp,cd\n"
DATA_ROW = ",".join(["0.0"] * 18) + ",0.8,0.1\n"


def _lineage(stage):
    return f"# drafttube stage={stage} scenario=II.a seed=3 config=0123456789ab\n"


def _set_x1(path, row, value):
    """Overwrite x1 of the 1-based data row ``row`` (after lineage, header)."""
    lines = open(path).read().splitlines(keepends=True)
    parts = lines[row + 1].split(",")
    lines[row + 1] = ",".join([value] + parts[1:])
    open(path, "w").writelines(lines)


class TestConfig:
    def test_file_parsing_with_comments(self):
        cfg = load_config("run.cfg")
        assert cfg["scenario"] == "II.a"
        assert cfg["samples"] == 80

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("granularity = 3\n")
        with pytest.raises(UsageError):
            load_config("bad.cfg")

    def test_bad_value_rejected(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("samples = many\n")
        with pytest.raises(UsageError):
            load_config("bad.cfg")

    def test_hash_stable_and_sensitive(self):
        base = {k: d for k, (_, d) in cli.CONFIG_KEYS.items()}
        other = dict(base, seed=99)
        assert config_hash(base) == config_hash(dict(base))
        assert config_hash(base) != config_hash(other)

    def test_hash_ignores_worker_count(self):
        base = {k: d for k, (_, d) in cli.CONFIG_KEYS.items()}
        assert config_hash(base) == config_hash(dict(base, workers=8))

    def test_seed_from_environment(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "41")
        assert main(["sample", "--samples", "30", "--out", "s.csv"]) == 0
        assert read_lineage("s.csv")["seed"] == "41"

    def test_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "41")
        assert main(["sample", "--samples", "30", "--seed", "5",
                     "--out", "s.csv"]) == 0
        assert read_lineage("s.csv")["seed"] == "5"


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["sample", "--config", "missing.cfg"]) == 2

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_negative_seed_is_2(self, capsys, monkeypatch, source):
        argv = ["sample", "--samples", "30"]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "file":
            open("neg.cfg", "w").write("seed = -1\n")
            argv += ["--config", "neg.cfg"]
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, "-2")
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not os.path.exists("samples.csv")

    def test_config_that_is_not_utf8_is_2_and_named(self, capsys):
        open("binary.cfg", "wb").write(b"\xffseed = 3\n")
        assert main(["sample", "--config", "binary.cfg"]) == 2
        assert "binary.cfg" in capsys.readouterr().err

    def test_missing_artifact_is_3(self):
        assert main(["train", "--in", "missing.csv"]) == 3

    def test_unwritable_out_is_3_and_named(self, capsys):
        os.mkdir("adir")
        assert main(["sample", "--config", "run.cfg", "--out", "adir"]) == 3
        assert "adir" in capsys.readouterr().err

    def test_scenario_mismatch_is_3(self):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg",
                     "--scenario", "I.a"]) == 3

    @pytest.mark.parametrize("value,where", [("0.9", "row 3"),
                                             ("nan", "samples.csv:5")])
    def test_bad_sample_row_is_3_and_named(self, capsys, value, where):
        assert main(["sample", "--config", "run.cfg"]) == 0
        _set_x1("samples.csv", 3, value)
        assert main(["evaluate", "--config", "run.cfg"]) == 3
        assert where in capsys.readouterr().err

    def test_failing_oracle_row_keeps_its_type_and_is_named(self):
        lb, ub = np.full(14, -5.0), np.full(14, 5.0)
        X = np.zeros((3, 14))
        X[1] = np.r_[np.full(7, -2.0), np.full(7, 2.0)]
        with pytest.raises(geometry.GeometryError,
                           match="^row 2: roof crosses the floor"):
            cli.evaluate_samples(X, lb, ub)

    def test_oracle_geometry_failure_is_4_and_names_the_row(self, capsys,
                                                            monkeypatch):
        ref = geometry.load_reference()
        cp = ref.width.control_points - (0.0, 2.0)
        narrow = dataclasses.replace(ref, width=geometry.BSplineCurve(
            ref.width.k, cp, ref.width.knots))
        monkeypatch.setattr(geometry, "load_reference", lambda: narrow)
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 4
        assert "row 1: non-positive duct width" in capsys.readouterr().err

    def test_non_finite_objective_is_3_and_names_the_row(self, capsys,
                                                         monkeypatch):
        inf_gain = dataclasses.replace(evaluator.OracleConstants.load(),
                                       diffusion_gain=np.inf)
        monkeypatch.setattr(evaluator.OracleConstants, "load",
                            lambda: inf_gain)
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 3
        assert "row 1: objectives must be finite" in capsys.readouterr().err

    def test_out_of_bounds_front_row_is_3_and_named(self, capsys):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        text = open("dataset.csv").read()
        open("front.csv", "w").write(
            text.replace("stage=evaluate", "stage=optimize", 1))
        _set_x1("front.csv", 2, "0.9")
        assert main(["decide", "--config", "run.cfg"]) == 3
        assert "row 2" in capsys.readouterr().err

    def test_moead_pop_size_below_three_is_2(self, capsys):
        # DE/rand/1 needs three distinct donors; the MOEAs without it run
        # with any population of at least one.
        for stage in ("sample", "evaluate", "train"):
            assert main([stage, "--config", "run.cfg"]) == 0
        for pop in ("1", "2"):
            assert main(["optimize", "--config", "run.cfg", "--optimizer",
                         "moead", "--pop-size", pop]) == 2
            assert "pop_size" in capsys.readouterr().err
        for name, pop in (("moead", "3"), ("nsga2", "1"), ("spea2", "1")):
            assert main(["optimize", "--config", "run.cfg", "--optimizer",
                         name, "--pop-size", pop, "--generations", "2",
                         "--out", f"{name}.csv"]) == 0

    @pytest.mark.parametrize("flag,value", [("--epochs", "0"),
                                            ("--patience", "-1")])
    def test_bad_tune_budget_is_2_and_named(self, capsys, flag, value):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        assert main(["tune", "--config", "run.cfg", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_tune_without_a_finite_trial_is_4_and_keeps_the_log(self, capsys):
        # cp alternates between two values, so some fold's held-out cp is
        # constant and the one trial scores -inf.
        with open("run.cfg", "a") as fh:
            fh.write("samples = 14\n")
        assert main(["sample", "--config", "run.cfg"]) == 0
        rows = open("samples.csv").read().splitlines()[2:]
        open("ext.csv", "w").write(DATA_HEADER + "".join(
            f"{x},{0.8 + 0.1 * (i % 2):g},{0.1 + 0.01 * i:g}\n"
            for i, x in enumerate(rows)))
        assert main(["evaluate", "--config", "run.cfg",
                     "--external", "ext.csv"]) == 0
        assert main(["tune", "--config", "run.cfg", "--lof-k", "3",
                     "--lof-threshold", "100", "--trials", "1", "--epochs",
                     "2", "--patience", "1"]) == 4
        assert "no trial of 1 scored a finite" in capsys.readouterr().err
        assert open("tuning.csv").read().splitlines()[2].startswith("0,-inf,")

    @pytest.mark.parametrize("damage", ["truncated", "dropped-layer",
                                        "short-x-scaler", "meta-list",
                                        "lineage-number", "nan-bias",
                                        "flat-x-scaler", "null-x-scaler",
                                        "null-y-scaler"])
    def test_malformed_model_is_3_and_named(self, capsys, damage):
        model = surrogate.MlpModel(18, surrogate.TUNED_SCENARIO_II)
        model.x_scaler = MinMaxScaler(np.zeros(18), np.ones(18))
        model.y_scaler = MinMaxScaler(np.zeros(2), np.ones(2))
        model.meta = {"lineage": {"scenario": "II.a"}}
        surrogate.save_model(model, "model.json")
        magic, body = open("model.json").read().split("\n", 1)
        if damage == "truncated":
            body = body[:len(body) // 2]
        else:
            doc = json.loads(body)
            if damage == "dropped-layer":
                del doc["weights"][1]
            elif damage == "meta-list":
                doc["meta"] = []
            elif damage == "lineage-number":
                doc["meta"] = {"lineage": 5}
            elif damage == "nan-bias":
                doc["biases"][0][0] = float("nan")
            elif damage == "flat-x-scaler":
                doc["x_scaler"]["maxs"][4] = doc["x_scaler"]["mins"][4]
            elif damage == "null-x-scaler":
                doc["x_scaler"] = None
            elif damage == "null-y-scaler":
                doc["y_scaler"] = None
            else:
                del doc["x_scaler"]["mins"][-1]
            body = json.dumps(doc)
        open("model.json", "w").write(magic + "\n" + body)
        assert main(["optimize", "--config", "run.cfg"]) == 3
        assert "model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,key", [
        (["decide", "--weight-cp", "nan"], "weight_cp must be finite"),
        (["decide", "--weight-cp", "inf"], "weight_cp must be finite"),
        (["decide", "--weight-cd=-inf"], "weight_cd must be finite"),
        (["decide", "--weight-cp", "1e308", "--weight-cd", "1e308"],
         "finite positive sum"),
        (["train", "--lof-threshold", "nan"], "lof_threshold must be finite"),
        (["train", "--lof-threshold", "inf"], "lof_threshold must be finite"),
        (["train", "--lof-threshold", "-1"], "lof_threshold must be > 0"),
        (["train", "--lof-threshold", "0"], "lof_threshold must be > 0")])
    def test_bad_float_setting_is_2_and_named(self, capsys, argv, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--config", "run.cfg"]) == 2
        assert key in capsys.readouterr().err

    def test_non_finite_weight_in_config_file_is_2(self, capsys):
        with open("run.cfg", "a") as fh:
            fh.write("weight_cd = nan\n")
        assert main(["decide", "--config", "run.cfg"]) == 2
        assert "weight_cd must be finite" in capsys.readouterr().err

    def test_lof_k_beyond_the_rows_is_3_and_named(self, capsys):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        assert main(["train", "--config", "run.cfg", "--lof-k", "200"]) == 3
        err = capsys.readouterr().err
        assert "dataset.csv" in err
        assert "k_neighbors = 200" in err and "n = 80 rows" in err

    def test_diverging_gci_is_3(self):
        assert main(["gci", "0.5", "1.0", "1.5"]) == 3

    @pytest.mark.parametrize("argv,name", [
        (["nan", "1", "1.5"], "eps_cm"), (["1.575", "0.563", "inf"], "r"),
        (["1.575", "0.563", "1.5", "--fs", "nan"], "F_s")])
    def test_non_finite_gci_is_3_and_named(self, capsys, argv, name):
        assert main(["gci", *argv]) == 3
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_report_of_another_scenario_is_3(self, capsys):
        open("front.csv", "w").write(_lineage("optimize") + DATA_HEADER
                                     + DATA_ROW)
        assert main(["report", "front.csv", "--config", "run.cfg",
                     "--scenario", "I.a"]) == 3
        assert "scenario mismatch" in capsys.readouterr().err
        assert not os.path.exists("report.svg")
        assert main(["report", "front.csv", "--config", "run.cfg"]) == 0

    @pytest.mark.parametrize("files,argv,where", [
        ({"ext.csv": DATA_HEADER},
         ["evaluate", "--external", "ext.csv", "--out", "x.csv"],
         "ext.csv: no data rows"),
        ({"dataset.csv": _lineage("evaluate") + DATA_HEADER}, ["train"],
         "dataset.csv: no data rows"),
        ({"front.csv": _lineage("optimize") + DATA_HEADER}, ["decide"],
         "front.csv: no data rows"),
        ({"front.csv": _lineage("optimize") + DATA_HEADER + DATA_ROW,
          "decision.csv": _lineage("decide") + "rank,alternative,closeness,"
          + DATA_HEADER},
         ["report", "front.csv", "--decision", "decision.csv"],
         "decision.csv: no data rows"),
        ({"front.csv": _lineage("optimize") + DATA_HEADER + DATA_ROW,
          "decision.csv": _lineage("decide")
          + "rank,alternative,closeness\n1,0,0.5\n"},
         ["report", "front.csv", "--decision", "decision.csv"],
         "decision.csv:2: unexpected header"),
        ({"run_trace.csv": _lineage("optimize")
          + "generation,best_objective\n1,0.8\n2\n"},
         ["report", "run_trace.csv", "--kind", "trace", "--out", "t.svg"],
         "run_trace.csv:4: expected 2 columns"),
        ({"ext.csv": b"\xff" + DATA_HEADER.encode()},
         ["evaluate", "--external", "ext.csv", "--out", "x.csv"],
         "ext.csv: 'utf-8' codec can't decode byte 0xff"),
        ({"dataset.csv": b"\xff" + DATA_HEADER.encode()}, ["train"],
         "dataset.csv: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["external-header-only", "train-header-only", "decide-header-only",
            "decision-without-rows", "decision-without-cp-cd",
            "malformed-trace-row", "external-not-utf8", "train-not-utf8"])
    def test_bad_table_is_3_and_named(self, capsys, files, argv, where):
        for name, text in files.items():
            open(name, "wb" if isinstance(text, bytes) else "w").write(text)
        assert main(argv + ["--config", "run.cfg"]) == 3
        assert where in capsys.readouterr().err


class TestLineage:
    def test_every_stage_stamps_its_artifact(self):
        assert main(["sample", "--config", "run.cfg"]) == 0
        lin = read_lineage("samples.csv")
        assert lin["stage"] == "sample"
        assert lin["scenario"] == "II.a"
        assert lin["seed"] == "3"
        assert len(lin["config"]) == 12

    def test_artifact_without_lineage_is_rejected(self, tmp_path):
        (tmp_path / "naked.csv").write_text("x1\n0.0\n")
        with pytest.raises(DataError):
            read_lineage("naked.csv")

    def test_tune_budget_is_in_the_lineage(self):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        firsts = []
        for epochs in ("2", "3"):
            out = f"tuning{epochs}.csv"
            assert main(["tune", "--config", "run.cfg", "--trials", "1",
                         "--epochs", epochs, "--patience", "1",
                         "--out", out]) == 0
            firsts.append(open(out).readline())
            lin = read_lineage(out)
            assert (lin["epochs"], lin["patience"]) == (epochs, "1")
        assert firsts[0] != firsts[1]

    def test_report_refuses_mixed_lineage(self):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        # Forge a second front from a different seed.
        assert main(["sample", "--config", "run.cfg", "--seed", "9",
                     "--out", "other.csv"]) == 0
        assert main(["report", "dataset.csv", "other.csv",
                     "--out", "r.svg"]) == 3


class TestPipeline:
    def test_full_small_run(self):
        for argv in (["sample", "--config", "run.cfg"],
                     ["evaluate", "--config", "run.cfg"],
                     ["train", "--config", "run.cfg"],
                     ["optimize", "--config", "run.cfg"],
                     ["decide", "--config", "run.cfg"],
                     ["report", "front.csv", "--config", "run.cfg",
                      "--decision", "decision.csv"]):
            assert main(argv) == 0, argv
        lin = read_lineage("decision.csv")
        assert lin["stage"] == "decide"
        with open("decision.csv") as fh:
            fh.readline()
            header = fh.readline().strip().split(",")
            first = fh.readline().strip().split(",")
        assert header[:3] == ["rank", "alternative", "closeness"]
        assert header[-2:] == ["cp", "cd"]
        assert first[0] == "1"
        assert 0.0 <= float(first[2]) <= 1.0
        svg = open("report.svg").read()
        assert svg.startswith("<!-- drafttube stage=report")
        assert "<svg" in svg

    def test_decide_without_rescore_ranks_the_predictions(self):
        for stage in ("sample", "evaluate", "train", "optimize"):
            assert main([stage, "--config", "run.cfg"]) == 0
        assert main(["decide", "--config", "run.cfg", "--no-rescore",
                     "--out", "decision_pred.csv"]) == 0
        assert main(["decide", "--config", "run.cfg"]) == 0
        front = np.atleast_2d(np.genfromtxt("front.csv", delimiter=",",
                                            skip_header=2))
        lb, ub = geometry.scenario_bounds("II.a")
        for path in ("decision_pred.csv", "decision.csv"):
            pick = np.atleast_2d(np.genfromtxt(path, delimiter=",",
                                               skip_header=2))[0]
            x, cp_cd = pick[3:-2], pick[-2:]
            row = front[int(pick[1])]
            np.testing.assert_array_equal(x, row[:-2])
            if path == "decision_pred.csv":
                np.testing.assert_array_equal(cp_cd, row[-2:])
            else:
                oracle = cli.evaluate_samples(x[None], lb, ub)[0]
                np.testing.assert_array_equal(cp_cd, oracle)
                assert not np.array_equal(cp_cd, row[-2:])

    def test_single_objective_run_writes_trace(self):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        assert main(["train", "--config", "run.cfg"]) == 0
        assert main(["optimize", "--config", "run.cfg",
                     "--optimizer", "pso", "--generations", "5"]) == 0
        X = np.genfromtxt("front.csv", delimiter=",", skip_header=2)
        assert X.shape == (20,)  # one best design row: 18 vars + cp + cd
        trace = np.genfromtxt("front_trace.csv", delimiter=",", skip_header=2)
        assert trace.shape[1] == 2
        assert np.all(np.diff(trace[:, 1]) >= 0.0)  # maximizing recovery
        assert main(["report", "front_trace.csv", "--kind", "trace",
                     "--config", "run.cfg", "--out", "trace.svg"]) == 0

    def test_single_objective_cp_equals_last_trace_value(self):
        for stage in ("sample", "evaluate", "train"):
            assert main([stage, "--config", "run.cfg"]) == 0
        for name in ("pso", "fwa", "lshade"):
            assert main(["optimize", "--config", "run.cfg", "--optimizer",
                         name, "--out", f"best_{name}.csv"]) == 0
            best = open(f"best_{name}.csv").read().splitlines()[2]
            last = open(f"best_{name}_trace.csv").read().splitlines()[-1]
            # Compared as text: the file's cp is the trace's final value.
            assert best.split(",")[-2] == last.split(",")[1], name

    def test_external_results_bypass_the_oracle(self):
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg"]) == 0
        # Strip lineage to simulate an externally produced results file.
        with open("dataset.csv") as fh:
            lines = fh.readlines()
        with open("external.csv", "w") as fh:
            fh.writelines(lines[1:])
        assert main(["evaluate", "--config", "run.cfg",
                     "--external", "external.csv", "--out", "ext.csv"]) == 0
        a = open("dataset.csv").readlines()[1:]
        b = open("ext.csv").readlines()[1:]
        assert a == b

    def test_external_results_must_respect_bounds(self):
        header = ",".join(f"x{j}" for j in range(1, 19)) + ",cp,cd\n"
        row = ",".join(["0.4"] * 18) + ",0.8,0.1\n"
        open("loose.csv", "w").write(header + row)
        assert main(["evaluate", "--config", "run.cfg",
                     "--external", "loose.csv", "--out", "x.csv"]) == 3

    def test_gci_table_output(self, capsys):
        assert main(["gci", "1.575", "0.563", "1.5", "--out", "gci.csv"]) == 0
        out = capsys.readouterr().out
        assert "GCI_cm_pct" in out
        rows = dict(line.split(",") for line in
                    open("gci.csv").read().splitlines()[2:])
        assert float(rows["p"]) == pytest.approx(2.553, rel=0.01)


class TestDeterminism:
    def test_stage_reruns_are_byte_identical(self):
        blobs = []
        for _ in range(2):
            assert main(["sample", "--config", "run.cfg"]) == 0
            assert main(["evaluate", "--config", "run.cfg"]) == 0
            blobs.append((open("samples.csv", "rb").read(),
                          open("dataset.csv", "rb").read()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("scenario", ["I.b", "II.a"])
    def test_oracle_rows_ignore_basis_cache_and_row_order(self, scenario):
        lb, ub = geometry.scenario_bounds(scenario)
        X = doe.lhs(doe.DoePlan(12, lb, ub, seed=5))
        geometry._memo_basis_matrix.cache_clear()
        cold = cli.evaluate_samples(X, lb, ub)
        warm = cli.evaluate_samples(X, lb, ub)
        geometry._memo_basis_matrix.cache_clear()
        reversed_back = cli.evaluate_samples(X[::-1], lb, ub)[::-1]
        assert cold.tobytes() == warm.tobytes() == reversed_back.tobytes()

    def test_retired_workers_key_changes_nothing(self, tmp_path):
        (tmp_path / "workers.cfg").write_text(SMALL_CFG + "workers = 3\n")
        assert main(["sample", "--config", "run.cfg"]) == 0
        assert main(["evaluate", "--config", "run.cfg",
                     "--out", "plain.csv"]) == 0
        assert main(["evaluate", "--config", "workers.cfg",
                     "--out", "workers.csv"]) == 0
        # Byte identity covers the lineage line and its config digest.
        assert open("plain.csv", "rb").read() == \
            open("workers.csv", "rb").read()


def _cfg(**flags):
    """The effective config of run.cfg under ``flags``, as a command sees it."""
    return cli.effective_config(argparse.Namespace(config="run.cfg", **flags))


def _decision_rows(path):
    return evaluator.read_table(path, lambda h: h[:2] == ["rank",
                                                          "alternative"])[1]


class TestStageParity:
    """Each array stage returns, bit for bit, what its command writes."""

    @pytest.fixture(autouse=True)
    def trained(self, workdir):
        for stage in ("sample", "evaluate", "train"):
            assert main([stage, "--config", "run.cfg"]) == 0

    def test_train(self):
        X, Y = evaluator.ingest_csv("dataset.csv")
        cfg = _cfg()
        surrogate.save_model(cli.train_surrogate(cli.prepare(X, Y, cfg), cfg),
                             "lib.json")
        assert open("lib.json", "rb").read() == open("model.json", "rb").read()

    @pytest.mark.parametrize("name", cli.SO_OPTIMIZERS + cli.MO_OPTIMIZERS)
    def test_optimize(self, name, capsys):
        assert main(["optimize", "--config", "run.cfg", "--optimizer", name,
                     "--out", "out.csv"]) == 0
        out = capsys.readouterr().out
        X, Y, trace, n_evals = cli.optimize(surrogate.load_model("model.json"),
                                            _cfg(optimizer=name))
        written = evaluator.ingest_csv("out.csv")
        assert written[0].tobytes() == X.tobytes()
        assert written[1].tobytes() == Y.tobytes()
        if name in cli.MO_OPTIMIZERS:
            assert trace is None and n_evals is None
            return
        rows = evaluator.read_table("out_trace.csv",
                                    lambda h: h == cli.TRACE_HEADER)[1]
        assert rows[:, 1].tobytes() == trace.tobytes()
        assert f"after {n_evals} evaluations" in out

    @pytest.mark.parametrize("rescore", [True, False])
    def test_decide(self, rescore):
        assert main(["optimize", "--config", "run.cfg"]) == 0
        assert main(["decide", "--config", "run.cfg", "--weight-cp", "3"]
                    + ([] if rescore else ["--no-rescore"])) == 0
        X, Y = evaluator.ingest_csv("front.csv")
        if rescore:
            Y = cli.evaluate_samples(X, *geometry.scenario_bounds("II.a"))
        result = cli.decide(Y, _cfg(weight_cp=3.0))
        rows = _decision_rows("decision.csv")
        assert rows[:, 1].tolist() == result.ranking.tolist()
        assert rows[:, 2].tobytes() == result.closeness[result.ranking].tobytes()
        assert rows[:, -2:].tobytes() == Y[result.ranking].tobytes()

    def test_in_process_chain_reproduces_the_cli_decision(self):
        for stage in ("optimize", "decide"):
            assert main([stage, "--config", "run.cfg"]) == 0
        cfg = _cfg()
        lb, ub = geometry.scenario_bounds(cfg["scenario"])
        X = doe.lhs(doe.DoePlan(cfg["samples"], lb, ub, seed=cfg["seed"]))
        data = cli.prepare(X, cli.evaluate_samples(X, lb, ub), cfg)
        front, _, _, _ = cli.optimize(cli.train_surrogate(data, cfg), cfg)
        Y = cli.evaluate_samples(front, lb, ub)
        result = cli.decide(Y, cfg)
        r = result.ranking
        expected = np.column_stack([np.arange(1, len(r) + 1), r,
                                    result.closeness[r], front[r], Y[r]])
        assert _decision_rows("decision.csv").tobytes() == expected.tobytes()
