"""Generic numerical kernels: adaptive quadrature, principal values,
complex Newton refinement, and winding numbers along closed paths.

The quadrature core is an adaptive Gauss-Kronrod 7-15 rule operating on
complex-valued integrands.  Integrands must accept an ndarray of
abscissae and return an ndarray of values; every routine here is
deterministic (bit-identical output for identical input) and free of
global state.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContourZeroError,
    DomainError,
    NewtonError,
    QuadratureError,
    WindingError,
)

# Kronrod-15 abscissae on [-1, 1] and the embedded Gauss-7 rule.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299785, 0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_TINY = np.finfo(float).tiny    # tolerance floor: keeps err/tol finite
_MAX_PASSES = 48                # winding refinement passes before giving up


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature."""

    rel_tol: float = 1e-11
    abs_tol: float = 0.0
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise DomainError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be non-negative")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class PathSegment:
    """Straight segment of an integration/winding path."""

    start: complex
    end: complex
    samples: int = 8

    def __post_init__(self):
        if self.samples < 2:
            raise DomainError("samples must be >= 2")


DEFAULT_QUAD = QuadratureSpec()


def _panel(f, a: float, b: float):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.asarray(f(c + h * _XGK), dtype=np.complex128)
    if fv.ndim == 0:   # a constant integrand
        fv = np.broadcast_to(fv, _XGK.shape)
    ik = h * np.dot(_WGK, fv)
    ig = h * np.dot(_WG, fv[_GAUSS_IDX])
    return ik, abs(ik - ig)


def _fsum(values):
    """Correctly rounded sum of per-panel values, component by component."""
    rows = np.array(values)
    cols = rows.reshape(len(values), -1).T
    total = np.array([complex(math.fsum(c.real), math.fsum(c.imag))
                      for c in cols]).reshape(rows.shape[1:])
    return total if np.iscomplexobj(rows) else total.real


def integrate_finite(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD,
                     breakpoints=(), *, offset=0.0) -> complex | np.ndarray:
    """Adaptive integral of a complex-valued f over the finite [a, b].

    ``f`` maps an array of abscissae to one value each (shape (k,)), or
    to one row each with a column per output component (shape (k, m)); a
    vector integrand returns an array of m integrals, all refined on one
    shared panel set.  Each component has converged once its error bound
    is at most max(rel_tol*|offset + integral|, abs_tol): ``offset``
    (scalar or one value per component) is the amount the caller adds to
    the integral, so the tolerance is relative to the quantity returned.
    The panel with the largest error relative to its component's
    tolerance is split next, and the budget is ``max_subdivisions`` per
    component.

    The estimate and error bound are running totals; before returning
    they are re-summed exactly (``math.fsum``) and the test repeated.
    ``breakpoints`` seeds the initial subdivision (useful for known
    near-singular spots).  Raises :class:`QuadratureError` carrying the
    best estimate and its bound when the budget is exhausted.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not b > a:
        raise DomainError("need finite a < b")
    pts = [a, b]
    for x in breakpoints:
        x = float(x)
        if a < x < b:
            pts.append(x)
    pts = sorted(set(pts))

    panels = [(lo, hi) + _panel(f, lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
    total = sum(p[2] for p in panels)
    toterr = sum(p[3] for p in panels)
    vector = np.ndim(total) > 0
    floor = max(spec.abs_tol, _TINY)

    def tolerance(total):
        return np.maximum(spec.rel_tol * abs(offset + total), floor)

    # A panel's key is its largest error relative to key_tol, the
    # component tolerances; the heap is re-keyed whenever one of them
    # drifts by more than a factor of 2.  A scalar integrand's order is
    # by error alone.
    key_tol = tolerance(total) if vector else 1.0

    def key(err):
        return -float(np.max(err / key_tol)) if vector else -float(err)

    counter = itertools.count()
    heap = [(key(err), next(counter), lo, hi, ik, err)
            for lo, hi, ik, err in panels]
    heapq.heapify(heap)

    budget = spec.max_subdivisions * np.size(total)
    nsplit = 0
    while True:
        tol = tolerance(total)
        if np.all(toterr <= tol) or nsplit >= budget:
            total = _fsum([item[4] for item in heap])
            toterr = _fsum([item[5] for item in heap])
            if np.all(toterr <= tolerance(total)):
                return total if vector else complex(total)
            if nsplit >= budget:
                raise QuadratureError(
                    f"quadrature did not converge after {nsplit} subdivisions "
                    f"(error bound {np.max(toterr):.3e})",
                    estimate=total if vector else complex(total),
                    error_bound=toterr if vector else float(toterr))
        if vector and np.any((tol < 0.5 * key_tol) | (tol > 2.0 * key_tol)):
            key_tol = tol
            heap = [(key(item[5]),) + item[1:] for item in heap]
            heapq.heapify(heap)
        _, _, lo, hi, ik, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                "interval collapsed below machine resolution",
                estimate=total, error_bound=toterr)
        total = total - ik
        toterr = toterr - err
        for seg in ((lo, mid), (mid, hi)):
            ik, err = _panel(f, *seg)
            total = total + ik
            toterr = toterr + err
            heapq.heappush(heap, (key(err), next(counter), seg[0], seg[1], ik, err))
        nsplit += 1


def integrate_semi_infinite(f, spec: QuadratureSpec = DEFAULT_QUAD, *,
                            scale: float = 1.0, breakpoints=(),
                            offset=0.0) -> complex | np.ndarray:
    """Adaptive integral of f over [0, oo).

    The half line is mapped by tau = scale*u/(1-u) to u in [0, 1), so
    that algebraically decaying tails (typically 1/tau**2 here) are
    integrated accurately; ``scale`` recentres the map on the integrand's
    natural scale.  ``breakpoints`` are tau positions that seed the
    subdivision (e.g. known sharp features).  Vector integrands and
    ``offset`` are passed on to :func:`integrate_finite`.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError("scale must be positive and finite")

    def g(u):
        u = np.asarray(u)
        tau = scale * u / (1.0 - u)
        return (np.asarray(f(tau)).T * (scale / (1.0 - u) ** 2)).T

    bps = [t / (scale + t) for t in map(float, breakpoints) if 0 < t < math.inf]
    return integrate_finite(g, 0.0, 1.0, spec, breakpoints=bps, offset=offset)


def integrate_principal_value(g, pole: float, a: float, b: float,
                              spec: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Principal value of int_a^b g(x)/(x - pole) dx by singularity subtraction.

    The caller supplies the smooth numerator g; the identity used is

        PV int g/(x-p) = int (g(x)-g(p))/(x-p) dx + g(p)*log((b-p)/(p-a)).
    """
    if not (a < pole < b):
        raise DomainError("pole must lie strictly inside (a, b)")
    gp = complex(np.asarray(g(np.array([pole])), dtype=np.complex128)[0])
    dx = 1e-7 * (b - a)
    gprime = (np.asarray(g(np.array([pole + dx])))[0]
              - np.asarray(g(np.array([pole - dx])))[0]) / (2.0 * dx)

    def reg(x):
        x = np.asarray(x)
        d = x - pole
        vals = np.asarray(g(x), dtype=np.complex128)
        out = np.empty_like(vals)
        tiny = np.abs(d) < 1e-300
        safe = ~tiny
        out[safe] = (vals[safe] - gp) / d[safe]
        out[tiny] = gprime
        return out

    reg_part = integrate_finite(reg, a, b, spec, breakpoints=(pole,))
    return reg_part + gp * math.log((b - pole) / (pole - a))


def newton_refine(f, fprime, z0: complex, tol: float, max_iter: int = 60) -> complex:
    """Newton iteration for a simple zero of an analytic f near z0.

    Stops once |f(z)| < tol; raises :class:`NewtonError` (with the
    iterate trace) on divergence or exhausted iterations.
    """
    z = complex(z0)
    iterates = [z]
    for _ in range(max_iter):
        fz = complex(f(z))
        if abs(fz) < tol:
            return z
        dz = complex(fprime(z))
        if dz == 0:
            raise NewtonError("derivative vanished", iterates)
        z = z - fz / dz
        iterates.append(z)
        if (not (math.isfinite(z.real) and math.isfinite(z.imag))
                or abs(z) > 1e9 * (1.0 + abs(z0))):
            raise NewtonError("iteration diverged", iterates)
    if abs(complex(f(z))) < tol:
        return z
    raise NewtonError(f"no convergence within {max_iter} iterations", iterates)


class _PathSamples(NamedTuple):
    """A closed polyline's initial winding samples, as read-only arrays.

    ``starts`` and ``spans`` hold one entry per edge; ``edge``, ``t`` and
    ``points`` one per sample, the sample being
    ``starts[edge] + t*spans[edge]``.
    """

    starts: np.ndarray
    spans: np.ndarray
    edge: np.ndarray
    t: np.ndarray
    points: np.ndarray


def _sample_path(path) -> _PathSamples:
    """Check that a sequence of PathSegments closes; sample each edge.

    Edge k contributes samples t = 0, 1/n_k, ..., (n_k - 1)/n_k; its
    t = 1 end is the next edge's first sample.
    """
    rows = [(s.start, s.end, s.samples) for s in path]
    if not rows:
        raise DomainError("path is empty")
    starts, ends, counts = zip(*rows)
    # Each edge's start, its end and the next edge's start.
    v = np.array([starts, ends, starts[1:] + starts[:1]], dtype=complex)
    if (np.abs(v[1] - v[2]) > 1e-12 * max(np.abs(v[:2]).max(), 1.0)).any():
        raise DomainError("path is not closed")
    starts, spans = v[0], v[1] - v[0]
    counts = np.array(counts)
    edge = np.arange(counts.size).repeat(counts)
    first = counts.cumsum() - counts
    t = (np.arange(edge.size) - first[edge]) / counts[edge]
    samples = _PathSamples(starts, spans, edge, t, starts[edge] + t * spans[edge])
    for a in samples:
        a.flags.writeable = False
    return samples


def winding_number(f, path, *, min_modulus: float = 0.0) -> int:
    """Winding number of f along a closed polyline of PathSegments.

    The phase is tracked by nearest-branch continuation; sampling is
    refined (midpoint insertion) until every consecutive phase step is
    below pi/2.  f is called once on all initial samples, then once per
    refinement pass on all new midpoints.  Raises :class:`ContourZeroError`
    at the first point in path order where |f| falls to ``min_modulus``
    or below, and :class:`WindingError` if refinement stalls.  ``path``
    may also be the result of ``_sample_path``, so that a fixed contour
    is checked and sampled only once.
    """
    path = path if isinstance(path, _PathSamples) else _sample_path(path)

    def evaluate(pts):
        vals = np.asarray(f(pts), dtype=np.complex128)
        _check_floor(vals, pts, min_modulus)
        return vals

    edge, t = path.edge, path.t
    vals = evaluate(path.points)

    for _ in range(_MAX_PASSES):
        steps = np.diff(np.angle(np.append(vals, vals[:1])))
        steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.nonzero(np.abs(steps) >= 0.5 * math.pi)[0]
        if bad.size == 0:
            w = float(np.sum(steps)) / (2.0 * math.pi)
            k = round(w)
            if abs(w - k) > 1e-6:
                raise WindingError(
                    f"phase sum {w!r} is not an integer multiple of 2*pi")
            return int(k)

        # A step ends at the next sample of its own edge, else at t = 1.
        t_end = np.append(t[1:], 1.0)
        t_end[np.append(edge[1:] != edge[:-1], True)] = 1.0
        lo, hi = t[bad], t_end[bad]
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise WindingError("refinement collapsed below resolution")
        new_edge = edge[bad]
        new_vals = evaluate(path.starts[new_edge] + mid * path.spans[new_edge])
        edge = np.insert(edge, bad + 1, new_edge)
        t = np.insert(t, bad + 1, mid)
        vals = np.insert(vals, bad + 1, new_vals)

    raise WindingError(f"phase not resolved after {_MAX_PASSES} refinement passes")


def _check_floor(vals, pts, min_modulus):
    mods = np.abs(vals)
    if np.any(~np.isfinite(mods)):
        i = int(np.nonzero(~np.isfinite(mods))[0][0])
        raise ContourZeroError(f"non-finite value on contour at {pts[i]}",
                               point=complex(pts[i]))
    if min_modulus > 0.0:
        small = mods <= min_modulus
        if small.any():
            i = int(np.nonzero(small)[0][0])
            raise ContourZeroError(
                f"|f| = {mods[i]:.3e} at {pts[i]} is at or below the floor "
                f"{min_modulus:.1e}", point=complex(pts[i]))


def rectangle_path(x0: float, x1: float, y0: float, y1: float,
                   samples_per_side: int = 16):
    """Counterclockwise rectangular path [x0,x1] x [y0,y1]."""
    if not (x1 > x0 and y1 > y0):
        raise DomainError("rectangle is degenerate")
    a = complex(x0, y0)
    b = complex(x1, y0)
    c = complex(x1, y1)
    d = complex(x0, y1)
    n = max(2, samples_per_side)
    return [PathSegment(a, b, n), PathSegment(b, c, n),
            PathSegment(c, d, n), PathSegment(d, a, n)]
