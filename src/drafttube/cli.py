"""Command-line pipeline orchestrator.

Subcommands cover each pipeline stage (sample, evaluate, train, tune,
optimize, decide, report, gci). A plain-text key=value config file supplies
stage parameters; command-line flags override file values. Every artifact
embeds a lineage comment (stage, scenario, seed, config hash) so downstream
stages can verify they operate on matching upstream artifacts.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import doe, evaluator, geometry, opt_multi, opt_single, report, surrogate
from .decision import DecisionError, DecisionMatrix, TopsisResult, topsis
from .evaluator import EvaluationError
from .geometry import GeometryError
from .surrogate import SurrogateError

__all__ = ["main", "UsageError", "DataError", "load_config", "config_hash",
           "read_lineage", "REFERENCE_OBJECTIVES"]

# Calibrated reference-design objectives (Cp, Cd) under the synthetic oracle.
REFERENCE_OBJECTIVES = (0.819, 0.131)

SEED_ENV_VAR = "DRAFTTUBE_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    """Bad flags, config keys or values (exit 2)."""


class DataError(Exception):
    """Missing/invalid upstream artifact or lineage mismatch (exit 3)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# key -> (coercion, default)
CONFIG_KEYS = {
    "scenario": (str, "II.a"),
    "seed": (int, 0),
    "samples": (int, 5000),
    "trials": (int, 20),
    "optimizer": (str, "nsga2"),
    "generations": (int, 500),
    "pop_size": (int, 200),
    "weight_cp": (float, 0.5),
    "weight_cd": (float, 0.5),
    "lof_k": (int, 20),
    "lof_threshold": (float, 1.5),
    "train_ratio": (float, 0.8),
}

SO_OPTIMIZERS = ("pso", "fwa", "lshade")
MO_OPTIMIZERS = ("nsga2", "spea2", "moead")


def load_config(path) -> dict:
    """Parse a key=value config file; '#' comments and blank lines skipped."""
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "workers":  # retired; older config files still carry it
            continue
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key][0](raw)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}"
                             ) from None
    return values


def effective_config(args) -> dict:
    """Defaults, then config file, then flag overrides; validated."""
    cfg = {k: d for k, (_, d) in CONFIG_KEYS.items()}
    if os.environ.get(SEED_ENV_VAR):
        try:
            cfg["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer") from None
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    try:
        geometry.scenario_bounds(cfg["scenario"])
    except GeometryError as exc:
        raise UsageError(str(exc)) from None
    if cfg["optimizer"] not in SO_OPTIMIZERS + MO_OPTIMIZERS:
        raise UsageError(f"unknown optimizer {cfg['optimizer']!r}")
    if cfg["seed"] < 0:
        raise UsageError("seed must be >= 0")
    for key in ("samples", "trials", "generations", "pop_size", "lof_k"):
        if cfg[key] < 1:
            raise UsageError(f"{key} must be >= 1")
    if cfg["optimizer"] == "moead" and cfg["pop_size"] < 3:
        # DE/rand/1 draws three distinct donors from the population.
        raise UsageError("pop_size must be >= 3 for moead")
    if not 0.5 <= cfg["train_ratio"] <= 0.95:
        raise UsageError("train_ratio must be in [0.5, 0.95]")
    for key in ("weight_cp", "weight_cd", "lof_threshold"):
        if not np.isfinite(cfg[key]):
            raise UsageError(f"{key} must be finite")
    if cfg["lof_threshold"] <= 0:
        raise UsageError("lof_threshold must be > 0")
    if cfg["weight_cp"] < 0 or cfg["weight_cd"] < 0 \
            or not 0 < cfg["weight_cp"] + cfg["weight_cd"] < np.inf:
        raise UsageError("weights must be non-negative with a finite "
                         "positive sum")
    return cfg


def config_hash(cfg: dict) -> str:
    """Short stable digest of the effective configuration."""
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(CONFIG_KEYS))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------

def lineage(stage: str, cfg: dict) -> dict:
    """The lineage record a ``stage`` artifact made under ``cfg`` carries."""
    return {"stage": stage, "scenario": cfg["scenario"], "seed": cfg["seed"],
            "config": config_hash(cfg)}


def lineage_comment(stage: str, cfg: dict) -> str:
    return "drafttube " + " ".join(f"{k}={v}" for k, v
                                   in lineage(stage, cfg).items())


def read_lineage(path) -> dict:
    """Parse the lineage comment from an artifact's first line."""
    try:
        with open(path) as fh:
            first = fh.readline().strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    for prefix, suffix in (("# ", ""), ("<!-- ", " -->")):
        if first.startswith(prefix + "drafttube "):
            body = first[len(prefix):]
            if suffix and body.endswith(suffix):
                body = body[:-len(suffix)]
            fields = {}
            for token in body.split()[1:]:
                key, _, val = token.partition("=")
                fields[key] = val
            return fields
    raise DataError(f"{path}: no lineage comment on the first line")


def check_lineage(path, cfg: dict, expect_stage: str | None = None,
                  lin: dict | None = None) -> dict:
    """The lineage ``lin``, or else the artifact's first line, checked against
    the run's scenario and, unless ``expect_stage`` is None, the stage."""
    lin = read_lineage(path) if lin is None else lin
    if expect_stage is not None and lin.get("stage") != expect_stage:
        raise DataError(f"{path}: expected a {expect_stage!r} artifact, "
                        f"got stage {lin.get('stage')!r}")
    if lin.get("scenario") != cfg["scenario"]:
        raise DataError(f"{path}: scenario mismatch: artifact is "
                        f"{lin.get('scenario')!r}, run is {cfg['scenario']!r}")
    return lin


def check_design_rows(path, X: np.ndarray, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Return the scenario bounds after checking X's width and bounds.

    The first row outside the bounds is named by its 1-based data-row index.
    """
    lb, ub = geometry.scenario_bounds(cfg["scenario"])
    if X.shape[1] != len(lb):
        raise DataError(f"{path}: {X.shape[1]} variables do not match "
                        f"scenario {cfg['scenario']} ({len(lb)})")
    outside = np.any((X < lb - 1e-12) | (X > ub + 1e-12), axis=1)
    if outside.any():
        raise DataError(f"{path}: row {int(np.argmax(outside)) + 1} violates "
                        f"the {cfg['scenario']} bounds")
    return lb, ub


# ---------------------------------------------------------------------------
# Pipeline stages: array functions of the effective config
# ---------------------------------------------------------------------------

def evaluate_samples(X: np.ndarray, lb, ub) -> np.ndarray:
    """Map sample rows through the synthetic oracle, preserving order."""
    reference = geometry.load_reference()
    constants = evaluator.OracleConstants.load()
    Y = np.empty((len(X), 2))
    for i, row in enumerate(X):
        design = geometry.synthesize(reference,
                                     geometry.DesignVector(row, lb, ub))
        obj = evaluator.synthetic_cfd(design, constants)
        Y[i] = obj.cp, obj.cd
    return Y


def minimized(Y: np.ndarray) -> np.ndarray:
    """(cp, cd) rows <-> the minimized objectives (-cp, cd); exact both ways."""
    return Y * (-1.0, 1.0)


def prepare(X: np.ndarray, Y: np.ndarray, cfg: dict) -> ds.Dataset:
    """Evaluated rows after LOF filtering, the split and the scaling."""
    return ds.Dataset.prepare(X, Y, ratio=cfg["train_ratio"], seed=cfg["seed"],
                              k_neighbors=cfg["lof_k"],
                              lof_threshold=cfg["lof_threshold"])


def _fit_split(data: ds.Dataset, cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """The training rows Adam fits and those early stopping watches."""
    return ds.split(len(data.train_idx), ratio=0.85, seed=cfg["seed"] + 1)


def train_surrogate(data: ds.Dataset, cfg: dict) -> surrogate.MlpModel:
    """The scenario's tuned MLP trained on ``data``; ``model.meta`` holds the
    lineage, the stopping epochs and the held-out metrics."""
    mlp_cfg = (surrogate.TUNED_SCENARIO_I if cfg["scenario"].startswith("I.")
               else surrogate.TUNED_SCENARIO_II)
    model = surrogate.MlpModel(data.X.shape[1], mlp_cfg, seed=cfg["seed"])
    X_tr, Y_tr = data.X_train, data.Y_train
    tr, va = _fit_split(data, cfg)
    history = surrogate.train(model, X_tr[tr], Y_tr[tr], X_tr[va], Y_tr[va],
                              seed=cfg["seed"])
    model.x_scaler, model.y_scaler = data.x_scaler, data.y_scaler
    rep = surrogate.metrics(data.Y[data.test_idx],
                            model.predict(data.X[data.test_idx]))
    model.meta = {
        "lineage": lineage("train", cfg),
        "best_epoch": history.best_epoch,
        "stopped_epoch": history.stopped_epoch,
        "test_mape_pct": [float(v) for v in rep.mape],
        "test_rrmse_pct": [float(v) for v in rep.rrmse],
        "test_r2": [float(v) for v in rep.r2],
    }
    return model


def optimize(model: surrogate.MlpModel, cfg: dict):
    """(X, Y, trace, n_evals): the configured optimizer's designs and their
    predicted (cp, cd) rows, and for a single-objective run the best cp per
    generation and the count of evaluated rows (None for a front)."""
    lb, ub = geometry.scenario_bounds(cfg["scenario"])
    single = cfg["optimizer"] in SO_OPTIMIZERS
    run = getattr(opt_single if single else opt_multi, f"run_{cfg['optimizer']}")
    if not single:
        archive = run(opt_multi.MoProblem(
            lambda x: minimized(model.predict(x)), lb, ub,
            generations=cfg["generations"], seed=cfg["seed"],
            pop_size=cfg["pop_size"]))
        return archive.points(), minimized(archive.front()), None, None
    # Single objective: maximize predicted pressure recovery.
    result = run(opt_single.SoProblem(
        lambda X: minimized(model.predict(X))[:, 0], lb, ub,
        budget=cfg["generations"], seed=cfg["seed"]))
    best = minimized(model.predict(result.best_x))
    # The cp the search saw: a one-row predict may differ in the last bits
    # from the same row predicted within its population.
    best[0] = result.best_f
    trace = minimized(result.trace[:, None])[:, 0]  # best -cp per generation, as cp
    return (result.best_x[None, :], minimized(best)[None, :], trace,
            result.n_evals)


def decide(Y: np.ndarray, cfg: dict) -> TopsisResult:
    """TOPSIS ranking of (cp, cd) rows under the configured weights."""
    w = np.array([cfg["weight_cp"], cfg["weight_cd"]])
    return topsis(DecisionMatrix(Y, w / w.sum(), np.array([True, False])))


# ---------------------------------------------------------------------------
# Subcommands: read, check lineage, call the stage, write, print
# ---------------------------------------------------------------------------

def cmd_sample(args, cfg) -> int:
    lb, ub = geometry.scenario_bounds(cfg["scenario"])
    X = doe.lhs(doe.DoePlan(cfg["samples"], lb, ub, seed=cfg["seed"]))
    doe.write_samples_csv(args.out, X, lineage_comment("sample", cfg))
    print(f"wrote {len(X)} samples x {X.shape[1]} variables to {args.out}")
    return EXIT_OK


def cmd_evaluate(args, cfg) -> int:
    if args.external:
        X, Y = evaluator.ingest_csv(args.external)
        check_design_rows(args.external, X, cfg)
        source = f"external file {args.external}"
    else:
        check_lineage(args.infile, cfg, "sample")
        X = doe.read_samples_csv(args.infile)
        Y = evaluate_samples(X, *check_design_rows(args.infile, X, cfg))
        source = "synthetic oracle"
    evaluator.write_dataset_csv(args.out, X, Y,
                                lineage_comment("evaluate", cfg))
    print(f"wrote {len(X)} evaluated designs ({source}) to {args.out}")
    return EXIT_OK


def _read_dataset(path, cfg) -> ds.Dataset:
    check_lineage(path, cfg, "evaluate")
    X, Y = evaluator.ingest_csv(path)
    check_design_rows(path, X, cfg)
    try:
        return prepare(X, Y, cfg)
    except ds.DatasetError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_train(args, cfg) -> int:
    data = _read_dataset(args.infile, cfg)
    model = train_surrogate(data, cfg)
    surrogate.save_model(model, args.out)
    m = model.meta
    print(f"trained on {len(_fit_split(data, cfg)[0])} rows, stopped at epoch "
          f"{m['stopped_epoch']} (best {m['best_epoch']})")
    for i, name in enumerate(("cp", "cd")):
        print(f"held-out {name}: R2={m['test_r2'][i]:.4f} "
              f"MAPE={m['test_mape_pct'][i]:.3f}% rRMSE={m['test_rrmse_pct'][i]:.3f}%")
    print(f"wrote model to {args.out}")
    return EXIT_OK


def cmd_tune(args, cfg) -> int:
    if args.epochs < 1:
        raise UsageError("--epochs must be >= 1")
    if args.patience < 0:
        raise UsageError("--patience must be >= 0")
    data = _read_dataset(args.infile, cfg)
    best_cfg, best_score, log = surrogate.tune(
        data.X_train, data.Y_train, trials=cfg["trials"], seed=cfg["seed"],
        epochs=args.epochs, patience=args.patience)
    evaluator.write_table(
        args.out, lineage_comment("tune", cfg)
        + f" epochs={args.epochs} patience={args.patience}",
        ["trial", "score_r2", "hidden_layers", "dropout", "learning_rate",
         "activation", "initializer"],
        ([i, score, "x".join(map(str, c.hidden_layers)),
          "x".join(f"{d:g}" for d in c.dropout), f"{c.learning_rate:g}",
          c.activation, c.initializer] for i, (c, score) in enumerate(log)))
    if best_cfg is None:
        raise SurrogateError(f"no trial of {cfg['trials']} scored a finite "
                             "cross-validated R2")
    print(f"best of {cfg['trials']} trials: mean CV R2 = {best_score:.4f}")
    print(f"  layers={best_cfg.hidden_layers} act={best_cfg.activation} "
          f"init={best_cfg.initializer} lr={best_cfg.learning_rate:g} "
          f"dropout={best_cfg.dropout}")
    print(f"wrote trial log to {args.out}")
    return EXIT_OK


def _load_model_checked(path, cfg) -> surrogate.MlpModel:
    try:
        model = surrogate.load_model(path)
    except SurrogateError as exc:
        raise DataError(str(exc)) from None
    check_lineage(path, cfg, lin=model.meta.get("lineage", {}))
    return model


TRACE_HEADER = ["generation", "best_objective"]


def cmd_optimize(args, cfg) -> int:
    model = _load_model_checked(args.model, cfg)
    lb, _ = geometry.scenario_bounds(cfg["scenario"])
    if model.n_inputs != len(lb):
        raise DataError(f"{args.model}: model has {model.n_inputs} inputs, "
                        f"scenario {cfg['scenario']} has {len(lb)}")
    X, Y, trace, n_evals = optimize(model, cfg)
    name = cfg["optimizer"]
    evaluator.write_dataset_csv(args.out, X, Y, lineage_comment("optimize", cfg)
                                + f" optimizer={name}")
    if trace is None:
        print(f"{name}: archived front of {len(X)} designs, "
              f"cp in [{Y[:, 0].min():.4f}, {Y[:, 0].max():.4f}], "
              f"cd in [{Y[:, 1].min():.4f}, {Y[:, 1].max():.4f}]")
        print(f"wrote front to {args.out}")
        return EXIT_OK
    trace_path = args.trace_out or f"{Path(args.out).with_suffix('')}_trace.csv"
    evaluator.write_table(trace_path, lineage_comment("optimize", cfg),
                          TRACE_HEADER, enumerate(trace, 1))
    print(f"{name}: best predicted cp={Y[0, 0]:.4f} cd={Y[0, 1]:.4f} "
          f"after {n_evals} evaluations")
    print(f"wrote best design to {args.out}, trace to {trace_path}")
    return EXIT_OK


def cmd_decide(args, cfg) -> int:
    check_lineage(args.infile, cfg, "optimize")
    X, Y = evaluator.ingest_csv(args.infile)
    lb, ub = check_design_rows(args.infile, X, cfg)
    if args.rescore:
        # Validate the surrogate front against the ground-truth evaluator.
        Y = evaluate_samples(X, lb, ub)
    result = decide(Y, cfg)
    evaluator.write_table(
        args.out, lineage_comment("decide", cfg),
        ["rank", "alternative", "closeness"] + evaluator.x_columns(X.shape[1])
        + ["cp", "cd"],
        ([rank, idx, result.closeness[idx], *X[idx], *Y[idx]]
         for rank, idx in enumerate(result.ranking, 1)))
    best = result.best
    ref_cp, ref_cd = REFERENCE_OBJECTIVES
    print(f"selected alternative {best}: cp={Y[best, 0]:.4f} "
          f"(reference {ref_cp}), cd={Y[best, 1]:.4f} (reference {ref_cd})")
    print(f"wrote ranking to {args.out}")
    return EXIT_OK


def cmd_report(args, cfg) -> int:
    paths = args.inputs + ([args.decision] if args.decision else [])
    first = check_lineage(paths[0], cfg)
    for path in paths[1:]:
        lin = check_lineage(path, cfg)
        for key in ("seed", "config"):
            if lin.get(key) != first.get(key):
                raise DataError(
                    f"lineage mismatch: {paths[0]} has "
                    f"{key}={first.get(key)!r} but {path} has "
                    f"{key}={lin.get(key)!r}")
    if args.kind == "trace":
        series = {Path(p).stem: evaluator.read_table(
                      p, lambda h: h == TRACE_HEADER)[1]
                  for p in args.inputs}
        svg = report.svg_polylines(series, "generation", "objective",
                                   "Convergence", log_y=args.log)
    else:
        series = {Path(p).stem: evaluator.ingest_csv(p)[1]
                  for p in args.inputs}
        highlight = {"reference": REFERENCE_OBJECTIVES}
        if args.decision:
            header, ranked = evaluator.read_table(
                args.decision, lambda h: "cp" in h and "cd" in h)
            highlight["selected"] = (float(ranked[0, header.index("cp")]),
                                     float(ranked[0, header.index("cd")]))
        svg = report.svg_scatter(series, "pressure recovery Cp",
                                 "drag coefficient Cd", "Pareto fronts",
                                 highlight=highlight)
    with open(args.out, "w") as fh:
        fh.write(f"<!-- {lineage_comment('report', cfg)} -->\n")
        fh.write(svg)
    print(f"wrote {args.kind} plot to {args.out}")
    return EXIT_OK


def cmd_gci(args, cfg) -> int:
    rep = evaluator.gci(args.eps_cm, args.eps_mf, args.r, F_s=args.fs,
                        trend=args.trend)
    width = max(len(n) for n, _ in rep.as_rows())
    for name, value in rep.as_rows():
        print(f"{name:<{width + 2}}{value:.6g}")
    if args.out:
        evaluator.write_table(args.out, lineage_comment("gci", cfg),
                              ["quantity", "value"], rep.as_rows())
        print(f"wrote table to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--scenario", choices=("I.a", "I.b", "II.a", "II.b"),
                        help="optimization scenario")
    common.add_argument("--seed", type=int,
                        help=f"global seed (default from ${SEED_ENV_VAR})")
    # Dataset preparation shared by train and tune.
    prep = argparse.ArgumentParser(add_help=False)
    prep.add_argument("--lof-k", dest="lof_k", type=int)
    prep.add_argument("--lof-threshold", dest="lof_threshold", type=float)
    prep.add_argument("--train-ratio", dest="train_ratio", type=float)

    parser = argparse.ArgumentParser(
        prog="drafttube",
        description="Surrogate-assisted draft-tube shape optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common],
                       help="Latin hypercube sample of the offset space")
    p.add_argument("--samples", type=int, help="number of samples")
    p.add_argument("--out", default="samples.csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate samples with the synthetic oracle")
    p.add_argument("--in", dest="infile", default="samples.csv")
    p.add_argument("--external", help="pre-evaluated x1..xm,cp,cd CSV "
                                      "(bypasses the oracle)")
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", parents=[common, prep],
                       help="train the tuned surrogate on a dataset")
    p.add_argument("--in", dest="infile", default="dataset.csv")
    p.add_argument("--out", default="model.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", parents=[common, prep],
                       help="random-search hyperparameter tuning")
    p.add_argument("--in", dest="infile", default="dataset.csv")
    p.add_argument("--trials", type=int)
    p.add_argument("--epochs", type=int, default=64,
                   help="epoch cap per tuning trial")
    p.add_argument("--patience", type=int, default=8)
    p.add_argument("--out", default="tuning.csv")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("optimize", parents=[common],
                       help="optimize the surrogate objectives")
    p.add_argument("--model", default="model.json")
    p.add_argument("--optimizer", choices=SO_OPTIMIZERS + MO_OPTIMIZERS)
    p.add_argument("--generations", type=int)
    p.add_argument("--pop-size", dest="pop_size", type=int)
    p.add_argument("--trace-out", help="convergence trace path "
                                       "(single-objective runs)")
    p.add_argument("--out", default="front.csv")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("decide", parents=[common],
                       help="rank a Pareto front and select one design")
    p.add_argument("--in", dest="infile", default="front.csv")
    p.add_argument("--weight-cp", dest="weight_cp", type=float)
    p.add_argument("--weight-cd", dest="weight_cd", type=float)
    p.add_argument("--no-rescore", dest="rescore", action="store_false",
                   help="rank surrogate predictions instead of re-evaluating "
                        "the front with the oracle")
    p.add_argument("--out", default="decision.csv")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("report", parents=[common],
                       help="render fronts or traces as an SVG plot")
    p.add_argument("inputs", nargs="+", help="front.csv or trace.csv files")
    p.add_argument("--kind", choices=("front", "trace"), default="front")
    p.add_argument("--decision", help="decision.csv whose top design to mark")
    p.add_argument("--log", action="store_true", help="log-scale trace values")
    p.add_argument("--out", default="report.svg")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gci", parents=[common],
                       help="three-grid convergence index")
    p.add_argument("eps_cm", type=float,
                   help="coarse-medium relative difference, percent")
    p.add_argument("eps_mf", type=float,
                   help="medium-fine relative difference, percent")
    p.add_argument("r", type=float, help="grid refinement ratio")
    p.add_argument("--fs", type=float, default=1.25, help="safety factor")
    p.add_argument("--trend", choices=("decreasing", "increasing", "shared"),
                   default="decreasing",
                   help="monotone convergence trend under refinement "
                        "('shared' = both epsilons share one normalization)")
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=cmd_gci)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, EvaluationError, ds.DatasetError, DecisionError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SurrogateError, GeometryError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
