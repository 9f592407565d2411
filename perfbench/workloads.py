"""The four workloads: seeded inputs, one step at a time, and output checks.

A workload turns a seed into an endless, deterministic sequence of steps.
Each step is one call (or two) of plasmaskin's public API and covers one or
more items: sweep rows, profile depths or panel points.  ``run_timed``
drives the steps as a closed loop -- the next starts when the previous one
returned -- until the time is up.  ``check`` runs afterwards, outside the
timed region, and gives each failed item a kind:

* ``status:<tag>``    -- a sweep row or selfcheck point came back not ``ok``,
* ``exc:<Class>: <message>`` -- the call raised,
* ``check:<name>``    -- the output failed the named check.

``status:near_boundary`` is plasmaskin's documented refusal of a point
(``BoundaryProximityError``).  Such an item is not goodput and counts in
``failed_frac``, but it is a *declined* item, not a failed operation: the
result line's ``failed`` leaves it out (see ``DECLINED``).

Every workload is stratified: each round draws one input per stratum of
its domain, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from clock import LoadClock
from plasmaskin import cli, dispersion, oracle, solution

EPS_PANEL = 1e-3      # epsilon = v_c of the paper's resonance panel
FD_DEPTH = 2e-3       # depth of the finite-difference comparison node
DECLINED = "status:near_boundary"


@dataclass
class Step:
    """One call of the public API, with the inputs it was given."""

    items: int
    run: object          # () -> (CLI output, other output, data, statuses)
    inputs: dict


@dataclass
class Outcome:
    step: Step
    blob: bytes = b""    # what the CLI function wrote
    extra: bytes = b""   # every other output, byte for byte
    data: object = None
    failures: list = field(default_factory=list)   # kind or None per item


def execute(step: Step) -> Outcome:
    try:
        blob, extra, data, statuses = step.run()
    except Exception as exc:  # an item that raised is a failed item, not a crash
        kind = f"exc:{type(exc).__name__}: {exc}"
        return Outcome(step, failures=[kind] * step.items)
    failures = [None if s == "ok" else f"status:{s}" for s in statuses]
    return Outcome(step, blob, extra, data, failures)


@dataclass
class Timing:
    """Per-step wall and load-adjusted seconds (see clock.py)."""

    wall: list = field(default_factory=list)
    adjusted: list = field(default_factory=list)

    def wall_s(self) -> float:
        return sum(self.wall)

    def adjusted_s(self) -> float:
        return sum(self.adjusted)


def run_timed(steps, load: LoadClock, seconds: float | None = None,
              count: int | None = None):
    """Closed loop: run steps back to back, timing each one.

    Stops after ``count`` steps, or once the steps took ``seconds`` of
    load-adjusted time -- so a loaded machine runs the same steps, only
    slower -- or twice that in wall time.  At least one step runs.
    """
    outcomes, timing = [], Timing()
    for step in steps:
        if count is not None:
            done = len(outcomes) >= count
        else:
            done = (timing.adjusted_s() >= seconds
                    or timing.wall_s() >= 2.0 * seconds)
        if outcomes and done:
            break
        t0 = time.perf_counter()
        outcomes.append(execute(step))
        wall, adj = load.interval(t0, time.perf_counter())
        timing.wall.append(wall)
        timing.adjusted.append(adj)
    return outcomes, timing


def _stratified(rng, k: int) -> np.ndarray:
    """k points in [0, 1), one uniformly in each of k equal strata.

    The strata come in bit-reversed order (0, 4, 2, 6, 1, ... for k = 8),
    so a run that stops part-way through a round has still sampled the
    whole range evenly.
    """
    bits = max(1, (k - 1).bit_length())
    order = sorted(range(k), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return (np.array(order) + rng.random(k)) / k


def _sweep_step(spec) -> Step:
    def run():
        rows = cli.run_sweep(spec, max_workers=1)
        buf = io.StringIO()
        cli.write_rows_csv(rows, buf)
        return buf.getvalue().encode(), b"", rows, [r.status for r in rows]
    return Step(spec.n_points, run, {"spec": spec})


def _impedance_scale(gamma: float, epsilon: float) -> float:
    # Z = R*Z0 with R = 2*pi*sqrt(2*epsilon*gamma)/c and c = 1 (README).
    return 2.0 * math.pi * math.sqrt(2.0 * epsilon * gamma)


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def _rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def steps(self):
        raise NotImplementedError

    def check(self, outcomes) -> tuple[bool, dict]:
        """Fill in check failures; return (correct, notes)."""
        raise NotImplementedError

    def statuses(self, outcomes) -> dict:
        return {}


def _flat(outcomes):
    """(row, spec, (outcome, index)) for every sweep row that came back."""
    for o in outcomes:
        if o.data is None:
            continue
        for i, row in enumerate(o.data):
            yield row, o.step.inputs["spec"], (o, i)


def _fail(ref, kind):
    o, i = ref
    if o.failures[i] is None:
        o.failures[i] = kind


def _check_fourier(rows_with_spec, rng, n: int) -> int:
    """Compare Z0 of up to n seeded ok rows with fourier_impedance (1e-6)."""
    ok = [(r, spec, i) for r, spec, i in rows_with_spec if r.status == "ok"]
    if not ok:
        return 0
    picks = rng.choice(len(ok), size=min(n, len(ok)), replace=False)
    for j in sorted(picks):
        row, spec, i = ok[j]
        p = dispersion.make_params(row.gamma, spec.epsilon, spec.v_c)
        z0_ref = oracle.fourier_impedance(p) / _impedance_scale(row.gamma,
                                                                spec.epsilon)
        z0 = complex(row.re_Z0, row.im_Z0)
        if not abs(z0 - z0_ref) / abs(z0) < 1e-6:
            _fail(i, "check:fourier")
    return len(picks)


class _Sweep(Workload):
    fourier_checks = 12

    def statuses(self, outcomes) -> dict:
        counts = {}
        for row, _, _ in _flat(outcomes):
            counts[row.status] = counts.get(row.status, 0) + 1
        return counts

    def _fourier(self, rows) -> int:
        return _check_fourier(rows, self._rng(1),
                              4 if self.smoke else self.fourier_checks)


class SweepResonance(_Sweep):
    """The resonance figure: a 401-point linear sweep over about [0.9, 1.1]."""

    name = "sweep_resonance"
    points = 401
    chunks = 50         # run_sweep calls per pass, so a run can stop mid-pass

    def steps(self):
        rng = self._rng(0)
        for pass_no in itertools.count():
            lo, hi = 0.9 + 0.01 * (rng.random(2) - 0.5) + (0.0, 0.2)
            grid = np.linspace(lo, hi, self.points)
            for idx in np.array_split(np.arange(self.points), self.chunks):
                spec = cli.SweepSpec(gamma_start=float(grid[idx[0]]),
                                     gamma_end=float(grid[idx[-1]]),
                                     n_points=idx.size, scale="linear",
                                     epsilon=EPS_PANEL, v_c=EPS_PANEL)
                step = _sweep_step(spec)
                step.inputs["pass"] = pass_no
                yield step

    def check(self, outcomes):
        rows = list(_flat(outcomes))
        notes = {"peak_checked_passes": 0}
        by_pass = {}
        for row, spec, ref in rows:
            by_pass.setdefault(ref[0].step.inputs["pass"], []).append((row, ref))
        for pass_rows in by_pass.values():
            ok = [(r, ref) for r, ref in pass_rows if r.status == "ok"]
            gammas = [r.gamma for r, _ in pass_rows]
            # The peak is only defined once the pass has run past it.
            if not ok or min(gammas) > 0.95 or max(gammas) < 1.05:
                continue
            notes["peak_checked_passes"] += 1
            peak, ref = max(ok, key=lambda t: t[0].abs_Z0)
            if not abs(peak.gamma - 1.0) < 0.05:
                _fail(ref, "check:peak")
        notes["fourier_checked"] = self._fourier(rows)
        correct = all(f is None for o in outcomes for f in o.failures)
        return correct, notes


class SweepWide(_Sweep):
    """Short log sweeps at (epsilon, v_c) pairs spread over the whole domain."""

    name = "sweep_wide"
    pairs = 8           # pairs per round, one per stratum of each axis
    points = 6
    log_eps = (-4.0, -1.0)
    log_vc = (-3.0, math.log10(0.5))
    log_gamma = (-2.0, math.log10(2.0))

    def steps(self):
        rng = self._rng(0)
        while True:
            # Latin hypercube over (log epsilon, log v_c).
            ue = _stratified(rng, self.pairs)[rng.permutation(self.pairs)]
            uv = _stratified(rng, self.pairs)[rng.permutation(self.pairs)]
            for a, b in zip(ue, uv):
                eps = 10.0 ** (self.log_eps[0] + a * np.ptp(self.log_eps))
                v_c = 10.0 ** (self.log_vc[0] + b * np.ptp(self.log_vc))
                width = rng.uniform(0.15, 0.3)
                lg0 = rng.uniform(self.log_gamma[0], self.log_gamma[1] - width)
                spec = cli.SweepSpec(gamma_start=10.0 ** lg0,
                                     gamma_end=10.0 ** (lg0 + width),
                                     n_points=self.points, scale="log",
                                     epsilon=float(eps), v_c=float(v_c))
                yield _sweep_step(spec)

    def check(self, outcomes):
        rows = list(_flat(outcomes))
        for row, _, ref in rows:
            if row.status == "ok" and row.n_zeros not in (2, 4):
                _fail(ref, "check:n_zeros")
        notes = {"fourier_checked": self._fourier(rows)}
        # Rows tagged near_boundary/error are the program's documented
        # answer: not goodput, but not incorrect output either.
        correct = all(f is None or f.startswith("status:")
                      for o in outcomes for f in o.failures)
        return correct, notes


class ProfileResonance(Workload):
    """dump_profile near the resonance, on the CLI's log depth grid."""

    name = "profile_resonance"
    # A profile's cost jumps by up to 1.7x between gammas 0.01 apart (the
    # adaptive panel counts are that sensitive), so the strata are narrow:
    # a run does about as many profiles as there are strata.
    strata = 16
    gamma = (0.9, 1.3)
    x_max = 20.0
    # Depths compared with fd_profile: the two shallowest of the 12-point
    # grid.  Above gamma = 1 the finite-difference solution drifts from
    # e(x) roughly linearly in x (its far boundary reflects the
    # propagating wave), so deeper depths test the oracle, not plasmaskin.
    shallow_depth = 5.1e-3

    @property
    def depths(self):
        return 4 if self.smoke else 12

    def steps(self):
        rng = self._rng(0)
        while True:
            for u in _stratified(rng, self.strata):
                g = float(self.gamma[0] + u * np.ptp(self.gamma))
                yield self._step(g)

    def _step(self, g):
        def run():
            p = dispersion.make_params(g, EPS_PANEL, EPS_PANEL)
            buf = io.StringIO()
            cli.dump_profile(p, self.x_max, self.depths, buf)
            return buf.getvalue().encode(), b"", None, ["ok"] * self.depths
        return Step(self.depths, run, {"gamma": g})

    def check(self, outcomes):
        notes = {"fd_compared": 0}
        for o in outcomes:
            if not o.blob:
                continue
            rows = list(csv.reader(io.StringIO(o.blob.decode())))[1:]
            x = np.array([float(r[0]) for r in rows])
            e = np.array([complex(float(r[1]), float(r[2])) for r in rows])
            if not (x[0] == 0.0 and abs(e[0] - 1.0) < 1e-6):
                _fail((o, 0), "check:surface")
            p = dispersion.make_params(o.step.inputs["gamma"], EPS_PANEL, EPS_PANEL)
            fd = oracle.fd_profile(p)
            near = fd.x_grid <= 0.5
            ref = CubicSpline(fd.x_grid[near], fd.e_values[near])
            tol = max(1e-3, 3.0 * fd.error_estimate)   # acceptance criterion 4
            for i in np.nonzero((x > 0.0) & (x <= self.shallow_depth))[0]:
                notes["fd_compared"] += 1
                if not abs(e[i] - ref(x[i])) <= tol:
                    _fail((o, i), "check:fd_profile")
        correct = all(f is None for o in outcomes for f in o.failures)
        return correct, notes


class VerifyPanel(Workload):
    """run_selfcheck on one panel point, then fd_profile at the same point."""

    name = "verify_panel"
    strata = 8
    log_gamma = (-2.0, math.log10(2.0))
    fd_checks = 12

    def steps(self):
        rng = self._rng(0)
        while True:
            for u in _stratified(rng, self.strata):
                g = float(10.0 ** (self.log_gamma[0] + u * np.ptp(self.log_gamma)))
                yield self._step(g)

    @staticmethod
    def _step(g):
        def run():
            report = cli.run_selfcheck([(g, EPS_PANEL, EPS_PANEL)])
            text = json.dumps(report, indent=1)
            p = dispersion.make_params(g, EPS_PANEL, EPS_PANEL)
            fd = oracle.fd_profile(p)
            extra = (fd.x_grid.tobytes() + fd.e_values.tobytes()
                     + repr(fd.error_estimate).encode())
            point = report["points"][0]
            status = point["status"]
            if status == "pass" and report["all_pass"]:
                status = "ok"
            elif status == "fail":
                failed = sorted(k for k, c in point["checks"].items()
                                if not c["pass"])
                status = "fail:" + ",".join(failed)
            return text.encode(), extra, fd, [status]
        return Step(1, run, {"gamma": g})

    def check(self, outcomes):
        done = [o for o in outcomes if o.data is not None]
        n = min(4 if self.smoke else self.fd_checks, len(done))
        picks = self._rng(1).choice(len(done), size=n, replace=False)
        for i in sorted(picks):
            o, fd = done[i], done[i].data
            p = dispersion.make_params(o.step.inputs["gamma"], EPS_PANEL, EPS_PANEL)
            k = int(np.argmin(np.abs(fd.x_grid - FD_DEPTH)))
            coeffs = solution.compute_coefficients(p)
            e = solution.field_e(fd.x_grid[k:k + 1], coeffs, p).e_values[0]
            if not abs(e - fd.e_values[k]) <= max(1e-3, 3.0 * fd.error_estimate):
                _fail((o, 0), "check:fd_profile")
        correct = all(f is None for o in outcomes for f in o.failures)
        return correct, {"fd_checked": n}


WORKLOADS = {w.name: w for w in (SweepResonance, SweepWide, ProfileResonance,
                                 VerifyPanel)}
