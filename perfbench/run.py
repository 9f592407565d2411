"""plasmaskin benchmark: one workload, one seed, one result line.

Run from the root of a checkout (plasmaskin's sources under ``src/``):

    python3 perfbench/run.py --workload sweep_resonance --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` times the workload with nothing installed and reports the
end-to-end metrics: ``setup_s`` (median of several fresh interpreters
reaching the ready state), ``items_per_s`` (goodput: items that completed
and passed their checks, per second) and ``peak_rss_mb`` of the workload
process.  ``--trace 1`` runs the workload under the span tracer instead
and reports the per-layer metrics; it then runs the same steps untraced
and requires bit-identical outputs.

Each workload runs in its own process with BLAS/OpenMP pinned to one
thread.  The lines before the last carry the details: the machine record,
``failed_frac`` with the count of each failure kind, and the check notes.
The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Its ``failed`` counts
the items that raised, came back ``error`` or failed a check; items
plasmaskin declined as ``near_boundary`` are in ``failed_frac`` and not in
``items_per_s``, but are not failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_resonance", "sweep_wide", "profile_resonance", "verify_panel")
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
SPANS_DIR = ".perfbench"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def _child(args, env, deadline) -> dict:
    """Run child.py to completion; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("time limit reached before the workload ran")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          env=env, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(env, runs: int, deadline) -> list[dict]:
    """Fresh interpreters timed from spawn to the ready state."""
    probes = []
    for _ in range(runs):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        probes.append(_child(["--probe", repr(t0)], env, deadline))
    return probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up run, for tests")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "plasmaskin" / "__init__.py").is_file():
        print(f"error: no plasmaskin sources under {root / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        child_args.append("--smoke")
    spans_path = None
    if args.trace:
        (root / SPANS_DIR).mkdir(exist_ok=True)
        spans_path = root / SPANS_DIR / f"spans-{args.workload}-{args.seed}.npz"
        child_args += ["--spans", str(spans_path)]

    try:
        setup = [] if args.trace else measure_setup(
            env, 1 if args.smoke else SETUP_RUNS, deadline)
        res = _child(child_args, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    machine = dict(res["machine"], nproc=os.cpu_count(), seed=args.seed,
                   workload=args.workload, seconds=args.seconds,
                   trace=args.trace)
    failed_frac = (res["failed"] + res["declined"]) / res["attempted"]
    detail = {
        "machine": machine,
        "failed_frac": failed_frac,
        "declined": res["declined"],
        "failure_kinds": res["failure_kinds"],
        "notes": res["notes"],
        "wall_items_per_s": res["wall_items_per_s"],
        "steps": res["steps"],
        "step_s": res["step_s"],
        "step_adjusted_s": res["step_adjusted_s"],
        "step_good": res["step_good"],
    }
    if args.trace:
        metrics = res["layer_metrics"]
        for key in ("transparency", "missing_bindings", "spans", "span_errors",
                    "baseline"):
            detail[key] = res[key]
        detail["spans_file"] = str(spans_path.relative_to(root))
    else:
        detail["setup_runs"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setup),
                        "unit": "s"},
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print("detail " + json.dumps(detail))
    kinds = ", ".join(f"{k}: {n}" for k, n in sorted(res["failure_kinds"].items()))
    print(f"failed_frac {failed_frac:.6g} "
          f"({res['failed'] + res['declined']}/{res['attempted']})"
          + (f"; {kinds}" if kinds else "")
          + (f"; failed operations: {res['failed']}" if res["declined"] else ""))
    if args.trace and res["missing_bindings"]:
        print("absent (binding missing): " + ", ".join(res["missing_bindings"]))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
