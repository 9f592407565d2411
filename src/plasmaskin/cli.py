"""Command-line front end: parameter sweeps, profile dumps, self checks.

Commands
--------
sweep      impedance modulus/argument over a gamma grid -> CSV/JSON
profile    field profile e(x) on a log-spaced depth grid -> CSV
selfcheck  identity suite + oracle agreement on a parameter panel -> JSON

Exit codes: 0 success, 1 computational failure, 2 usage error.
Rows of a sweep never abort the run: points that fail carry a status tag
and empty numeric fields, and in JSON output the cause in ``detail``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import solution as _solution
from . import spectrum as _spectrum
from .dispersion import make_params
from .errors import BoundaryProximityError, DomainError, PlasmaSkinError
from .numerics import _is_int
from .oracle import fourier_impedance
from .solution import compute_coefficients, field_e, field_h, impedance

CSV_HEADER = "gamma,re_Z0,im_Z0,abs_Z0,arg_Z0,n_zeros,eta0_re,eta0_im,status"
_COLUMNS = CSV_HEADER.split(",")
DEFAULT_PANEL_GAMMAS = (0.1, 0.5, 0.9, 1.0, 1.3)
_SPECULARITY_MUS = np.array([0.3, 1.0, 2.2]) * [[1.0], [-1.0]]  # rows: +mu, -mu
# Sweep rows per shared J quadrature and line of continued zeros: J costs
# 1.02 ms a row alone, 0.17 ms in blocks of 9 and 0.15 ms in blocks of 16;
# find_zeros on the first row costs 0.18 ms, continuation 0.02 ms a row.
_SWEEP_BLOCK = 16


@dataclass(frozen=True, slots=True)
class SweepSpec:
    gamma_start: float
    gamma_end: float
    n_points: int
    scale: str = "linear"
    epsilon: float = 1e-3
    v_c: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.gamma_start < self.gamma_end < math.inf):
            raise DomainError("need finite 0 < gamma_start < gamma_end")
        if not _is_int(self.n_points) or self.n_points < 2:
            raise DomainError("n_points must be an integer >= 2")
        if self.scale not in ("linear", "log"):
            raise DomainError("scale must be 'linear' or 'log'")
        if not (0 < self.epsilon < math.inf and 0 < self.v_c < math.inf):
            raise DomainError("epsilon and v_c must be positive and finite")
        if any(isinstance(v, bool) for v in
               (self.gamma_start, self.gamma_end, self.epsilon, self.v_c)):
            raise DomainError("sweep parameters must not be bools")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.gamma_start, self.gamma_end, self.n_points)
        return np.linspace(self.gamma_start, self.gamma_end, self.n_points)


@dataclass(slots=True)
class SweepRow:
    gamma: float
    re_Z0: float | None = None
    im_Z0: float | None = None
    n_zeros: int | None = None
    eta0_re: float | None = None
    eta0_im: float | None = None
    status: str = "ok"
    detail: str | None = None   # cause of a failed row; JSON output only

    # |Z0| and arg Z0 are derived from Z0, not stored: fewer floats a row.
    @property
    def abs_Z0(self) -> float | None:
        return None if self.re_Z0 is None else math.hypot(self.re_Z0, self.im_Z0)

    @property
    def arg_Z0(self) -> float | None:   # principal: in (-pi, pi]
        a = None if self.re_Z0 is None else math.atan2(self.im_Z0, self.re_Z0)
        return math.pi if a == -math.pi else a


def _failed_row(gamma: float, exc: Exception) -> SweepRow:
    if isinstance(exc, BoundaryProximityError):
        return SweepRow(gamma=gamma, status="near_boundary", detail=str(exc))
    return SweepRow(gamma=gamma, status="error",
                    detail=f"{type(exc).__name__}: {exc}")


def _sweep_row(p, info, J: complex) -> SweepRow:
    z0 = impedance(p, J=J).Z0
    eta0 = info.zeros[0]
    return SweepRow(gamma=p.gamma, re_Z0=z0.real, im_Z0=z0.imag,
                    n_zeros=info.n_zeros, eta0_re=eta0.real,
                    eta0_im=eta0.imag, status="ok")


def _sweep_block(tasks) -> list[SweepRow]:
    """Rows for consecutive grid points, sharing one J quadrature.

    The block's spectra are analyzed as one line (``analyze_line``); the
    points that pass get J from one ``compute_J_many`` call.  If that
    call raises, J is recomputed point by point, so that each row keeps
    its own status and cause.
    """
    rows, ps, ready = [None] * len(tasks), [], []
    for i, (gamma, epsilon, v_c) in enumerate(tasks):
        try:
            ps.append((i, make_params(gamma, epsilon, v_c)))
        except Exception as exc:  # keep the sweep going; record the failure
            rows[i] = _failed_row(gamma, exc)
    for (i, p), info in zip(ps, _spectrum.analyze_line([p for _, p in ps])):
        if isinstance(info, Exception):
            rows[i] = _failed_row(p.gamma, info)
        else:
            ready.append((i, p, info))
    try:
        Js = _solution.compute_J_many([p for _, p, _ in ready]) if ready else ()
    except Exception:  # recomputed point by point below
        Js = None
    for k, (i, p, info) in enumerate(ready):
        try:
            J = _solution.compute_J(p) if Js is None else complex(Js[k])
            rows[i] = _sweep_row(p, info, J)
        except Exception as exc:
            rows[i] = _failed_row(p.gamma, exc)
    return rows


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> list[SweepRow]:
    """One row per gamma grid point, in ascending gamma order.

    The grid is split into fixed blocks of consecutive points
    (``_SWEEP_BLOCK``), each computed with one shared J quadrature, so
    Z0 agrees with single-point ``impedance`` to the quadrature
    tolerance, not bit for bit.  Blocks run concurrently in a process
    pool (they share only immutable inputs); the rows do not depend on
    ``max_workers``.  Failures become status-tagged rows.
    """
    tasks = [(float(g), spec.epsilon, spec.v_c) for g in spec.grid()]
    blocks = [tasks[i:i + _SWEEP_BLOCK]
              for i in range(0, len(tasks), _SWEEP_BLOCK)]
    if max_workers is None:
        max_workers = min(8, os.cpu_count() or 1)
    if max_workers <= 1 or len(blocks) < 2:
        return [row for b in blocks for row in _sweep_block(b)]
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as ex:
            return [row for rows in ex.map(_sweep_block, blocks) for row in rows]
    except (OSError, PermissionError):
        return [row for b in blocks for row in _sweep_block(b)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def write_rows_csv(rows, stream) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(_COLUMNS)
    for r in rows:
        w.writerow([_fmt(getattr(r, c)) for c in _COLUMNS[:-1]] + [r.status])


def write_rows_json(rows, stream) -> None:
    json.dump([{c: getattr(r, c) for c in _COLUMNS + ["detail"]} for r in rows],
              stream, indent=1)
    stream.write("\n")


def dump_profile(p, x_max: float, n: int, stream) -> None:
    """CSV of x, Re e, Im e, |e| on a log-spaced grid from 0 to x_max."""
    if not (0.0 < x_max < math.inf):
        raise DomainError("x_max must be positive and finite")
    if not _is_int(n) or n < 2:
        raise DomainError("need an integer of at least two grid points")
    if n == 2:
        xs = np.array([0.0, x_max])
    else:
        xs = np.concatenate([[0.0],
                             np.geomspace(x_max * 1e-4, x_max, n - 1)])
    coeffs = compute_coefficients(p)
    prof = field_e(xs, coeffs, p)
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["x", "re_e", "im_e", "abs_e"])
    for x, e in zip(prof.x_grid, prof.e_values):
        w.writerow([_fmt(float(x)), _fmt(e.real), _fmt(e.imag), _fmt(abs(e))])


def _check_point(gamma: float, epsilon: float, v_c: float) -> dict:
    entry = {"gamma": gamma, "epsilon": epsilon, "v_c": v_c}
    try:
        p = make_params(gamma, epsilon, v_c)
        info = _spectrum.analyze(p)
        coeffs = compute_coefficients(p, spectrum_info=info)
        res = _solution.identity_residuals(coeffs, p)
        e0 = field_e(np.array([0.0]), coeffs, p).e_values[0]
        hp, hm = field_h(0.0, _SPECULARITY_MUS, coeffs, p)
        spec_res = np.max(np.abs(hp - hm) / np.maximum(1.0, np.abs(hp)))
        za = impedance(p, J=coeffs.J).Z
        zf = fourier_impedance(p)
        checks = {
            "field_normalization": {"value": float(res["field_normalization"]),
                                    "tol": 1e-6},
            "coefficient_constant": {"value": float(res["coefficient_constant"]),
                                     "tol": 1e-6},
            "resolvent": {"value": float(res["resolvent"]), "tol": 1e-8},
            "surface_field": {"value": float(abs(e0 - 1.0)), "tol": 1e-6},
            "specularity": {"value": float(spec_res), "tol": 1e-5},
            "oracle_agreement": {"value": float(abs(za - zf) / abs(za)),
                                 "tol": 1e-6},
        }
        for c in checks.values():
            c["pass"] = bool(c["value"] < c["tol"])
        entry["checks"] = checks
        entry["status"] = "pass" if all(c["pass"] for c in checks.values()) else "fail"
    except BoundaryProximityError as exc:
        entry["status"] = "near_boundary"
        entry["detail"] = str(exc)
    except Exception as exc:  # keep the report going; record the failure
        entry["status"] = "error"
        entry["detail"] = f"{type(exc).__name__}: {exc}"
    return entry


def run_selfcheck(points) -> dict:
    """Identity/oracle report over a panel of (gamma, epsilon, v_c) points.

    Near-boundary points are reported and skipped; they do not count as
    failures.  The report says whether every evaluated point passed.
    """
    points = list(points)
    if not points:
        raise DomainError("selfcheck needs at least one parameter point")
    report = {"points": [_check_point(*pt) for pt in points]}
    evaluated = [e for e in report["points"] if e["status"] in ("pass", "fail")]
    report["all_pass"] = bool(evaluated) and all(
        e["status"] == "pass" for e in evaluated)
    report["n_skipped"] = sum(
        1 for e in report["points"] if e["status"] not in ("pass", "fail"))
    return report


def _load_panel(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
            raise DomainError(f"panel {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise DomainError(f"panel {path} must hold a JSON list of points")
    try:
        return [(float(d["gamma"]), float(d["epsilon"]), float(d["v_c"]))
                for d in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"panel {path}: each point needs numeric gamma, "
                          f"epsilon and v_c ({type(exc).__name__}: {exc})") from exc


@contextlib.contextmanager
def _output(path):
    """The --out stream: stdout for None or "-", else the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plasmaskin",
        description="Skin-effect boundary problem in a Maxwellian plasma: "
                    "impedance sweeps, field profiles, and self checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="impedance over a gamma grid")
    sw.add_argument("--gamma-start", type=float, default=0.01)
    sw.add_argument("--gamma-end", type=float, default=2.0)
    sw.add_argument("--points", type=int, default=401)
    sw.add_argument("--scale", choices=("linear", "log"), default="linear")
    sw.add_argument("--epsilon", type=float, default=1e-3)
    sw.add_argument("--vc", type=float, default=1e-3)
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--workers", type=int, default=None)

    pr = sub.add_parser("profile", help="field profile e(x)")
    pr.add_argument("--gamma", type=float, required=True)
    pr.add_argument("--epsilon", type=float, default=1e-3)
    pr.add_argument("--vc", type=float, default=1e-3)
    pr.add_argument("--xmax", type=float, default=20.0)
    pr.add_argument("--points", type=int, default=200)
    pr.add_argument("--out", default=None)

    sc = sub.add_parser("selfcheck", help="identity and oracle checks")
    sc.add_argument("--panel", default=None,
                    help="JSON list of {gamma, epsilon, v_c} points")
    sc.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            spec = SweepSpec(gamma_start=args.gamma_start,
                             gamma_end=args.gamma_end, n_points=args.points,
                             scale=args.scale, epsilon=args.epsilon,
                             v_c=args.vc)
            rows = run_sweep(spec, max_workers=args.workers)
            with _output(args.out) as stream:
                if args.format == "csv":
                    write_rows_csv(rows, stream)
                else:
                    write_rows_json(rows, stream)
            return 0

        if args.command == "profile":
            p = make_params(args.gamma, args.epsilon, args.vc)
            # Computed before --out is opened, so a failure leaves it as it was.
            buf = io.StringIO()
            dump_profile(p, args.xmax, args.points, buf)
            with _output(args.out) as stream:
                stream.write(buf.getvalue())
            return 0

        if args.command == "selfcheck":
            if args.panel is not None:
                points = _load_panel(args.panel)
            else:
                points = [(g, 1e-3, 1e-3) for g in DEFAULT_PANEL_GAMMAS]
            if not points:
                print("error: empty parameter panel", file=sys.stderr)
                return 2
            report = run_selfcheck(points)
            with _output(args.out) as stream:
                json.dump(report, stream, indent=1)
                stream.write("\n")
            return 0 if report["all_pass"] else 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except PlasmaSkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
