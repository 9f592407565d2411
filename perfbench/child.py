"""One workload in one process: warm up, run the timed loop, check outputs.

Started by ``run.py`` with plasmaskin on ``PYTHONPATH`` and BLAS/OpenMP
pinned to one thread.  Prints one JSON object on its last stdout line.

``--probe T`` instead measures set-up: the time from T, when the parent
spawned this interpreter, until ``import plasmaskin`` and one warm-up
evaluation have finished, as wall time and adjusted for machine load.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter


def warm_up():
    """Import plasmaskin and evaluate one impedance: the ready state."""
    from plasmaskin import dispersion, solution, spectrum
    p = dispersion.make_params(0.5, 1e-3, 1e-3)
    spectrum.analyze(p)
    solution.impedance(p)


def _items(outcomes) -> int:
    return sum(o.step.items for o in outcomes)


def _good(outcomes) -> int:
    return sum(f is None for o in outcomes for f in o.failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", type=float, default=None, metavar="SPAWNED_AT",
                    help="CLOCK_MONOTONIC time at which the parent spawned us")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None, help="write traced spans here")
    args = ap.parse_args(argv)

    if args.probe is not None:
        import clock
        with clock.LoadClock() as load:
            warm_up()
            ready = time.clock_gettime(time.CLOCK_MONOTONIC)
            end = time.perf_counter()
        # args.probe is the parent's CLOCK_MONOTONIC time at spawn.
        wall, adj = load.interval(end - (ready - args.probe), end)
        print(json.dumps({"setup_s": adj, "wall_s": wall}))
        return 0

    import numpy as np
    import scipy

    import clock
    import tracer as tr
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    result = {"machine": {"python": sys.version.split()[0],
                          "numpy": np.__version__, "scipy": scipy.__version__}}

    with clock.LoadClock() as load:
        if args.trace:
            tracer = tr.Tracer()
            missing = tracer.install()
            try:
                outcomes, timing = wl.run_timed(workload.steps(), load,
                                                args.seconds)
            finally:
                tracer.uninstall()
            # Same steps again, untraced: the outputs must match bit for
            # bit, and the two rates give the tracing overhead.
            untraced, untraced_timing = wl.run_timed(
                workload.steps(), load, count=len(outcomes))
            mismatched = sum(
                (a.blob, a.extra, a.failures) != (b.blob, b.extra, b.failures)
                for a, b in zip(outcomes, untraced))
        else:
            outcomes, timing = wl.run_timed(workload.steps(), load,
                                            args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct, notes = workload.check(outcomes)
    attempted = _items(outcomes)
    good = _good(outcomes)
    kinds = Counter(f for o in outcomes for f in o.failures if f is not None)
    declined = kinds[wl.DECLINED]
    result.update(
        correct=bool(correct), attempted=attempted,
        failed=attempted - good - declined, declined=declined,
        failure_kinds=dict(kinds), steps=len(outcomes),
        items_per_s=good / timing.adjusted_s(),
        wall_items_per_s=good / timing.wall_s(),
        peak_rss_mb=peak_rss_mb, notes=notes,
        step_s=timing.wall, step_adjusted_s=timing.adjusted,
        step_good=[sum(f is None for f in o.failures) for o in outcomes])

    if args.trace:
        spans = tr.Spans.from_tracer(tracer)
        time_scale = timing.adjusted_s() / timing.wall_s()
        if args.spans:
            tracer.save(args.spans)
        outputs = {
            "output_bytes": sum(len(o.blob) for o in outcomes),
            "statuses": workload.statuses(outcomes),
            "traced_items_per_s": good / timing.adjusted_s(),
            # Identical outputs pass identical checks: the same goodput.
            "untraced_items_per_s": good / untraced_timing.adjusted_s(),
        }
        result.update(
            correct=result["correct"] and mismatched == 0,
            transparency={"steps_compared": len(untraced),
                          "mismatched": mismatched},
            missing_bindings=missing,
            spans=int(spans.name.size),
            span_errors=dict(spans.error_counts()),
            layer_metrics=tr.layer_metrics(spans, attempted, missing, outputs,
                                           time_scale=time_scale),
            baseline=tr.baseline_summary(spans, missing, time_scale))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
