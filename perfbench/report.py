"""Every workload, untraced and traced, in one command.

    python3 perfbench/report.py --seed 1 [--seconds 12]

Runs ``run.py`` for each workload with ``--trace 0`` and ``--trace 1`` (one
process after another) and prints, as Markdown:

* the machine record;
* the end-to-end metrics of each workload with their units, with
  ``failed_frac`` and the count of each failure kind, and whether every
  output check passed;
* the tracing overhead (traced vs untraced ``items_per_s``) and whether
  the traced outputs were bit-identical to the untraced ones;
* every per-layer metric of each workload;
* the ROADMAP Baseline table, regenerated from the traced spans.

Exits 1 if any run failed or any check did not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_one(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"run.py exited {proc.returncode}"}
    detail = next(json.loads(ln[len("detail "):]) for ln in lines
                  if ln.startswith("detail "))
    return {"detail": detail, "result": json.loads(lines[-1])}


def _fmt(v) -> str:
    if v is None:
        return "absent"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _table(header, rows) -> str:
    out = ["| " + " | ".join(header) + " |",
           "|" + "---|" * len(header)]
    out += ["| " + " | ".join(_fmt(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


def end_to_end(untraced) -> str:
    rows = []
    for w, r in untraced.items():
        if "error" in r:
            rows.append([w, r["error"]] + [""] * 6)
            continue
        m, d = r["result"]["metrics"], r["detail"]
        kinds = "; ".join(f"{k}: {n}" for k, n in sorted(d["failure_kinds"].items()))
        rows.append([w, m["setup_s"]["value"], m["items_per_s"]["value"],
                     d["wall_items_per_s"], d["failed_frac"],
                     m["peak_rss_mb"]["value"], r["result"]["correct"],
                     kinds or "none"])
    return _table(["workload", "setup_s (s)", "items_per_s (1/s)",
                   "wall items/s (1/s)", "failed_frac", "peak_rss_mb (MB)",
                   "checks pass", "failures by kind"], rows)


def overhead(traced) -> str:
    rows = []
    for w, r in traced.items():
        if "error" in r:
            rows.append([w, r["error"], "", "", ""])
            continue
        m, t = r["result"]["metrics"], r["detail"]["transparency"]
        on = m["trace.items_per_s"]["value"]
        off = m["trace.untraced_items_per_s"]["value"]
        rows.append([w, on, off, off / on if on else None,
                     f"{t['steps_compared'] - t['mismatched']}/"
                     f"{t['steps_compared']} steps identical"])
    return _table(["workload", "traced items/s", "untraced items/s",
                   "overhead (x)", "outputs"], rows)


def per_layer(traced) -> str:
    ok = {w: r for w, r in traced.items() if "error" not in r}
    if not ok:
        return "no traced run succeeded"
    names = list(next(iter(ok.values()))["result"]["metrics"])
    rows = []
    for name in names:
        unit = next(iter(ok.values()))["result"]["metrics"][name]["unit"]
        rows.append([name, unit] + [r["result"]["metrics"][name]["value"]
                                    for r in ok.values()])
    return _table(["metric", "unit", *ok], rows)


def baseline(traced) -> str:
    """One row per Baseline stage: its range over every traced workload."""
    ok = {w: r for w, r in traced.items() if "error" not in r}
    if not ok:
        return "no traced run succeeded"
    rows = []
    for row, first in next(iter(ok.values()))["detail"]["baseline"].items():
        parts, lo, hi, n = [], None, None, 0
        for w, r in ok.items():
            st = r["detail"]["baseline"][row]["stats"]
            if st is None:
                parts.append(f"{w}: absent")
            elif st["n"]:
                lo = st["min"] if lo is None else min(lo, st["min"])
                hi = st["max"] if hi is None else max(hi, st["max"])
                n += st["n"]
                parts.append(f"{w}: median {st['median']:.4g}")
        cost = f"{lo:.4g}–{hi:.4g} {first['unit']}" if n else "not reached"
        rows.append([row, cost, n, "; ".join(parts)])
    return _table(["stage", "range (traced)", "calls", "per workload"], rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)

    untraced = {w: run_one(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: run_one(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    first = next((r for r in untraced.values() if "detail" in r), None)
    if first is not None:
        machine = {k: v for k, v in first["detail"]["machine"].items()
                   if k not in ("workload", "trace")}
        print("machine: " + json.dumps(machine))
    print("\n## End-to-end (tracing off)\n")
    print(end_to_end(untraced))
    print("\n## Tracing overhead and transparency\n")
    print(overhead(traced))
    missing = sorted({m for r in traced.values() if "detail" in r
                      for m in r["detail"]["missing_bindings"]})
    if missing:
        print("\nabsent (binding missing): " + ", ".join(missing))
    print("\n## Per-layer metrics (traced run)\n")
    print(per_layer(traced))
    print("\n## Baseline table (traced run; times load-adjusted and "
          "including tracing overhead)\n")
    print(baseline(traced))
    runs = list(untraced.values()) + list(traced.values())
    good = all("result" in r and r["result"]["correct"] for r in runs)
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
