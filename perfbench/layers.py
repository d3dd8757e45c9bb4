"""Per-layer spans for the traced run and the metrics derived from them.

``install`` wraps the public functions of each drafttube module from outside;
``derive`` turns the tracer's aggregate into the named per-layer metrics.
A metric whose layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import resource

from drafttube import (cli, dataset, decision, doe, evaluator, geometry,
                       opt_multi, opt_single, report, surrogate)

CLI_STAGES = ("sample", "evaluate", "train", "optimize", "decide", "report")
MOEAS = ("nsga2", "spea2", "moead")
SOEAS = ("pso", "fwa", "lshade")
MO_OPERATORS = ("sbx", "polynomial_mutation", "nondominated_sort",
                "crowding_distance", "spea2_fitness", "tchebycheff")


def maxrss_mb() -> float:
    """This process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer) -> None:
    """Wrap every traced entry point; ``tracer.restore()`` undoes it."""
    count = tracer.count

    def plain(owner, attr, name=None, **hooks):
        """Span ``<module>.<attr>`` or ``<module>.<Class>.<attr>``."""
        if inspect.ismodule(owner):
            prefix = owner.__name__.rsplit(".", 1)[-1]
        else:
            prefix = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
        tracer.patch(owner, attr, name or f"{prefix}.{attr}",
                     alias_prefix="drafttube", **hooks)

    for attr in ("synthesize", "basis_matrix", "areas", "station_profiles"):
        plain(geometry, attr)
    plain(evaluator, "synthetic_cfd")
    plain(evaluator, "ingest_csv")
    plain(evaluator, "write_dataset_csv", after=lambda ctx, args, out: count(
        "evaluator.write_dataset_csv.bytes", os.path.getsize(args[0])))
    plain(cli, "evaluate_samples", after=lambda ctx, args, out: count(
        "cli.evaluate_samples.rows", len(args[0])))
    for stage in CLI_STAGES:
        plain(cli, f"cmd_{stage}", name=f"cli.{stage}")

    plain(dataset, "lof_scores",
          before=lambda args, kwargs: (args, kwargs, maxrss_mb()),
          after=lambda ctx, args, out: count(
              "dataset.lof_scores.rss_delta_mb", maxrss_mb() - ctx))

    def kept(ctx, args, mask):
        count("dataset.lof.rows_in", len(mask))
        count("dataset.lof.rows_kept", int(mask.sum()))
    plain(dataset, "lof_filter", after=kept)
    plain(dataset.Dataset, "prepare")

    def trained(ctx, args, history):
        count("surrogate.train.epochs", history.stopped_epoch)
        count("surrogate.train.best_epochs", history.best_epoch)
    plain(surrogate, "train", after=trained)
    plain(surrogate.MlpModel, "gradients")
    plain(surrogate.MlpModel, "forward")
    plain(surrogate.MlpModel, "predict", after=lambda ctx, args, out: count(
        "surrogate.MlpModel.predict.rows", 1 if out.ndim == 1 else len(out)))

    def count_evals(args, kwargs):
        problem = args[0]
        objectives = problem.objectives

        def counted(x):
            count("opt_multi.evals")
            return objectives(x)
        problem = dataclasses.replace(problem, objectives=counted)
        return (problem,) + args[1:], kwargs, problem.generations

    for name in MOEAS:
        def archived(gens, args, archive, name=name):
            count(f"opt_multi.run_{name}.generations", gens)
            count("opt_multi.archived", len(archive))
        plain(opt_multi, f"run_{name}", before=count_evals, after=archived)
    for attr in MO_OPERATORS:
        plain(opt_multi, attr)
    plain(opt_multi.ParetoArchive, "add_many")

    for name in SOEAS:
        def searched(ctx, args, result, name=name):
            count(f"opt_single.run_{name}.generations", args[0].budget)
            count(f"opt_single.run_{name}.evals", result.n_evals)
        plain(opt_single, f"run_{name}", after=searched)

    plain(doe, "lhs")
    plain(decision, "topsis")
    plain(report, "svg_scatter")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derive(snapshot: dict) -> dict:
    """Per-layer metric values, by name, from a tracer snapshot."""
    spans, counters = snapshot["spans"], snapshot["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def c(name):
        return counters.get(name, 0.0)

    m = {
        "geometry.synthesize.calls": calls("geometry.synthesize"),
        "geometry.synthesize.self_s": own("geometry.synthesize"),
        "geometry.synthesize.us_per_call": 1e6 * _ratio(
            total("geometry.synthesize"), calls("geometry.synthesize")),
        "geometry.basis_matrix.calls": calls("geometry.basis_matrix"),
        "geometry.basis_matrix.self_s": own("geometry.basis_matrix"),
        "geometry.areas.self_s": own("geometry.areas"),
        "geometry.station_profiles.self_s": own("geometry.station_profiles"),
        "cli.evaluate_samples.rows": c("cli.evaluate_samples.rows"),
        "cli.evaluate_samples.us_per_design": 1e6 * _ratio(
            total("cli.evaluate_samples"), c("cli.evaluate_samples.rows")),
        "evaluator.synthetic_cfd.calls": calls("evaluator.synthetic_cfd"),
        "evaluator.synthetic_cfd.self_s": own("evaluator.synthetic_cfd"),
        "evaluator.ingest_csv.s": total("evaluator.ingest_csv"),
        "evaluator.write_dataset_csv.s": total("evaluator.write_dataset_csv"),
        "evaluator.write_dataset_csv.bytes": c("evaluator.write_dataset_csv.bytes"),
        "dataset.lof_scores.s": total("dataset.lof_scores"),
        "dataset.lof_scores.rss_delta_mb": c("dataset.lof_scores.rss_delta_mb"),
        "dataset.lof_keep_ratio": _ratio(c("dataset.lof.rows_kept"),
                                         c("dataset.lof.rows_in")),
        "dataset.Dataset.prepare.s": total("dataset.Dataset.prepare"),
        "surrogate.train.s": total("surrogate.train"),
        "surrogate.train.epochs": c("surrogate.train.epochs"),
        "surrogate.train.s_per_epoch": _ratio(total("surrogate.train"),
                                              c("surrogate.train.epochs")),
        "surrogate.train.self_us_per_step": 1e6 * _ratio(
            own("surrogate.train"), calls("surrogate.MlpModel.gradients")),
        "surrogate.MlpModel.gradients.calls": calls("surrogate.MlpModel.gradients"),
        "surrogate.MlpModel.gradients.self_s": own("surrogate.MlpModel.gradients"),
        "surrogate.best_epoch_ratio": _ratio(c("surrogate.train.best_epochs"),
                                             c("surrogate.train.epochs")),
        "surrogate.MlpModel.predict.calls": calls("surrogate.MlpModel.predict"),
        "surrogate.MlpModel.predict.rows": c("surrogate.MlpModel.predict.rows"),
        "surrogate.MlpModel.predict.rows_per_call": _ratio(
            c("surrogate.MlpModel.predict.rows"), calls("surrogate.MlpModel.predict")),
        "surrogate.MlpModel.predict.us_per_row": 1e6 * _ratio(
            total("surrogate.MlpModel.predict"), c("surrogate.MlpModel.predict.rows")),
        "opt_multi.evals": c("opt_multi.evals"),
        "opt_multi.archive_yield": _ratio(c("opt_multi.archived"),
                                          c("opt_multi.evals")),
        "opt_multi.ParetoArchive.add_many.self_s": own("opt_multi.ParetoArchive.add_many"),
        "doe.lhs.s": total("doe.lhs"),
        "decision.topsis.s": total("decision.topsis"),
        "report.svg_scatter.s": total("report.svg_scatter"),
    }
    for name in MOEAS:
        m[f"opt_multi.run_{name}.ms_per_gen"] = 1e3 * _ratio(
            total(f"opt_multi.run_{name}"), c(f"opt_multi.run_{name}.generations"))
    for attr in MO_OPERATORS:
        m[f"opt_multi.{attr}.self_s"] = own(f"opt_multi.{attr}")
    for name in SOEAS:
        m[f"opt_single.run_{name}.ms_per_gen"] = 1e3 * _ratio(
            total(f"opt_single.run_{name}"), c(f"opt_single.run_{name}.generations"))
        m[f"opt_single.run_{name}.evals"] = c(f"opt_single.run_{name}.evals")
    for stage in CLI_STAGES:
        m[f"cli.{stage}.self_s"] = own(f"cli.{stage}")
    return m
