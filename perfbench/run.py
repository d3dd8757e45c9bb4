"""drafttube benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition of the workload runs
in a fresh Python process (``perfbench.workload``) with a hermetic
environment; this process only spawns, waits and aggregates. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("pipeline", "optimizers", "screening")
SETUPS = 3          # set-up is timed in this many fresh processes per run
BLAS_THREADS = 1    # pinned, and at or below nproc on any machine
RUN_TIMEOUT_S = 175.0  # every process of one run must end within this

E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STAGES = ("evaluate", "train", "optimize", "decide", "prepare")
QUALITY = ("front_hv", "front_cd_mape_pct", "heldout_r2_min", "selected_cp",
           "selected_cd")


class BenchError(RuntimeError):
    """A repetition could not run to the end; no result is printed."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    tail = name.rsplit(".", 1)[-1]
    if "us_per" in tail:
        return "us"
    if "ms_per" in tail:
        return "ms"
    if tail.startswith("s_per"):
        return "s"
    if tail in ("calls", "rows", "evals", "epochs"):
        return "count"
    if tail == "bytes":
        return "bytes"
    if tail.endswith("_mb"):
        return "MB"
    if tail.endswith("_pct"):
        return "%"
    if tail == "s" or tail.endswith("_s"):
        return "s"
    return "1"


def hermetic_env() -> dict:
    """The environment every workload process gets.

    The seed comes only from the generated config, BLAS threads are pinned,
    and the program is imported from this checkout's sources.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRAFTTUBE_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, scratch, env, deadline, seconds=0.0, trace=False,
          setup_only=False) -> dict:
    """Run the workload in a fresh process and return its JSON result."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    out = workdir / "result.json"
    cmd = [sys.executable, "-m", "perfbench.workload", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(workdir), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    shutil.rmtree(workdir)
    for err in result["errors"]:
        print(f"# failed operation ({workload} seed {seed}): {err}")
    return result


def stage_and_quality(result: dict) -> dict:
    """Untraced stage times and output quality; 0 where a workload has none."""
    m = {f"{s}_s": result["stages"].get(s, 0.0) for s in STAGES}
    m.update({q: result.get("quality", {}).get(q, 0.0) for q in QUALITY})
    return m


def e2e_metrics(measured: dict, setups: list) -> dict:
    """Median round time, median set-up time and the measured process's peak."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(measured["walls"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def layer_metrics(before: dict, traced: dict, after: dict) -> dict:
    """Traced layer aggregates plus the untraced stage times and quality.

    The traced round runs between two untraced ones, and its overhead is
    taken against their mean, so a machine that drifts steadily in speed
    does not show up as tracing cost.
    """
    m = dict(traced["layers"])
    untraced_s = (before["walls"][0] + after["walls"][0]) / 2.0
    m["trace_overhead_pct"] = 100.0 * (traced["walls"][0] / untraced_s - 1.0)
    m.update(stage_and_quality(before))
    return m


def measure(workload, seed, seconds, trace, scratch):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = hermetic_env()
    # Compile the program's bytecode once so no timed import pays for it.
    subprocess.run([sys.executable, "-c", "import drafttube.cli"], cwd=ROOT,
                   env=env, check=True, timeout=RUN_TIMEOUT_S)
    if trace:
        runs = [spawn(workload, seed, scratch, env, deadline, trace=traced)
                for traced in (False, True, False)]
        metrics = layer_metrics(*runs)
        units = {name: unit_of(name) for name in metrics}
    else:
        measured = spawn(workload, seed, scratch, env, deadline, seconds=seconds)
        probes = [spawn(workload, seed, scratch, env, deadline, setup_only=True)
                  for _ in range(SETUPS - 1)]
        runs = [measured] + probes
        metrics = e2e_metrics(measured, runs)
        units = E2E
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="drafttube benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "drafttube" / "__init__.py").is_file():
        print(f"error: no drafttube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    print(f"# env: {BLAS_THREADS} BLAS thread(s), nproc={os.cpu_count()}, "
          f"python {sys.version.split()[0]}, workload {args.workload}, "
          f"seed {args.seed}")
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), scratch)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (ROOT / ".perfbench_tmp").rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
