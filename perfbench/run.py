"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper --seed 7 --seconds 30 --trace 0

Each run starts ``perfbench/workloads.py`` in a fresh child process (one
at a time, numpy/BLAS pinned to one thread) and prints, as the last
stdout line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of one
untraced run.  ``--trace 1`` runs the workload untraced and then traced,
reports the per-layer metrics of the traced run plus the tracing
overhead between the two, and writes the span table to
``.perfbench/trace-<workload>-seed<N>.json``.

``attempted`` and ``failed`` count output checks: a pinned digest where
the seed has one, plus invariants checked on every seed.  A failed check
makes ``correct`` false but never suppresses the other figures.

``--seconds`` is accepted as the harness's run length; every workload is
a fixed amount of simulated work (so its digest can be pinned), sized to
take about that long on a two-core machine.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("paper", "paper-chaos-resume", "fleet-100k-chaos")
#: Wall budget for all children of one invocation.
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _run_child(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One workload run in a fresh process; its scratch dir is removed after."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--scratch", scratch,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} ran past the {DEADLINE_S:.0f} s budget")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {workload} child printed no result")
    return json.loads(lines[-1])


def _end_to_end(child: dict) -> dict:
    t = child["timings"]
    return {
        "setup_s": t["setup_s"],
        "wall_s": t["wall_s"],
        "us_per_host_day": t["window_s"] * 1e6 / child["window_host_days"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def _per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer values; layers that did no work are absent (read as 0)."""
    values = dict(traced["layers"])
    values.update(traced["counts"])
    values.update(traced["layer_counts"])
    values["state.resume_s"] = untraced["timings"].get("resume_s", 0.0)
    # The traced run's own benchmark work (sizing full envelopes for
    # state.delta_ratio) is not tracing cost.
    traced_wall = traced["timings"]["wall_s"] - traced["timings"]["bench_s"]
    values["trace.overhead_frac"] = traced_wall / untraced["timings"]["wall_s"] - 1.0
    values["trace.coverage"] = traced["coverage"]
    return values


def _write_trace(child: dict) -> None:
    path = os.path.join(OUT_DIR, f"trace-{child['workload']}-seed{child['seed']}.json")
    with open(path, "w") as fh:
        json.dump(child["spans"], fh, indent=1, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perfbench: no src/repro here; run from the root of a checkout")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    untraced = _run_child(args.workload, args.seed, False, deadline)
    children = [untraced]
    if args.trace:
        traced = _run_child(args.workload, args.seed, True, deadline)
        children.append(traced)
        _write_trace(traced)
        values = _per_layer(untraced, traced)
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = _end_to_end(untraced)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    for child in children:
        raw = ", ".join(f"{k} {v:.4g}" for k, v in sorted(child["raw_timings"].items()))
        print(
            f"perfbench: {args.workload} seed {args.seed}: raw wall seconds {raw}; "
            f"speed factor {child['speed_factor']:.3f}",
            file=sys.stderr,
        )
    checks = [check for child in children for check in child["checks"]]
    for check in checks:
        if not check["ok"]:
            print(
                f"perfbench: check {check['name']} failed {check['detail']}",
                file=sys.stderr,
            )
    failed = sum(1 for check in checks if not check["ok"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(checks),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
