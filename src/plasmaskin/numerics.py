"""Generic numerical kernels: adaptive quadrature, principal values,
complex Newton refinement, and winding numbers along closed polygons.

The quadrature core is an adaptive Gauss-Kronrod 7-15 rule operating on
complex-valued integrands.  It refines in rounds: each round bisects
every panel the round needs and evaluates all their nodes in one
integrand call, after the batched interface of S. G. Johnson's
``cubature`` (``hcubature_v``); the panels live in flat arrays.
Integrands must accept an ndarray of abscissae and return an ndarray of
values; every routine here is deterministic (bit-identical output for
identical input) and free of global state.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

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
# Rows: the Kronrod weights, and their difference from the Gauss weights
# (the Gauss nodes are the odd Kronrod ones).
_RULE = np.stack([_WGK, _WGK - np.insert(_WG, np.arange(8), 0.0)])
_TINY = np.finfo(float).tiny    # tolerance floor: keeps err/tol finite
_MAX_PASSES = 48                # winding refinement passes before giving up
_CALL_VALUES = 1 << 20          # nodes x components one quadrature call may see


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for adaptive quadrature."""

    rel_tol: float = 1e-11
    abs_tol: float = 0.0
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise DomainError("rel_tol must be positive and finite")
        if not (0.0 <= self.abs_tol < math.inf):
            raise DomainError("abs_tol must be non-negative and finite")
        if not _is_int(self.max_subdivisions) or self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be an integer >= 1")


DEFAULT_QUAD = QuadratureSpec()


def _gauss_kronrod(f, lo, hi):
    """Kronrod-15 estimates and |K15 - G7| error bounds of panels [lo, hi].

    f is called once, on the 15 nodes of every panel in node-major order.
    Returns the estimates and bounds, each of shape (panels, m) with
    m = 1 for a scalar integrand, and whether the integrand is a vector.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi) + _XGK[:, None] * h).ravel()
    fv = np.asarray(f(x), dtype=np.complex128)
    if fv.ndim == 0:   # a constant integrand
        fv = np.full(x.size, fv)
    r = np.dot(_RULE, np.ascontiguousarray(fv).view(float).reshape(15, -1))
    r = (r.reshape(2, h.size, -1) * h[:, None]).view(complex)
    return r[0], np.abs(r[1]), fv.ndim > 1


def _fsum(a):
    """Correctly rounded column sums of a real (panels, m) array."""
    return np.array([math.fsum(c.tolist()) for c in a.T])


def _fewest_covering(err, order, excess, rows):
    """The shortest prefix of ``order`` whose rows of ``err`` sum to at
    least ``excess`` in every column, or all of ``order``; the rows are
    summed ``rows`` at a time."""
    for s in range(0, order.size, rows):
        cum = np.add.accumulate(err[order[s:s + rows]])
        # The partial sums grow down the rows: the short ones lead.
        short = np.count_nonzero(np.logical_or.reduce(cum < excess, 1))
        if short < len(cum):
            return order[:s + short + 1]
        excess = excess - cum[-1]
    return order


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

    Refinement runs in rounds.  A round orders the panels by the largest
    of their errors relative to the component tolerances (a stable sort),
    bisects the fewest of them whose errors cover every component's
    excess over its tolerance, and evaluates all the new nodes with one
    call of ``f``: a left half takes its parent's slot in the panel
    arrays, a right half is appended.  No call sees more than
    ``_CALL_VALUES`` nodes x components (the first call, on one panel,
    shows m); a round that needs more makes several calls.  The budget
    is ``max_subdivisions`` bisections per component.

    Each round sums the panels afresh; before returning, the estimate
    and error bound are re-summed exactly (``math.fsum``) and the test
    repeated.  ``breakpoints`` seeds the initial subdivision (useful for
    known near-singular spots).  Raises :class:`QuadratureError` carrying
    the best estimate and its bound when the budget is exhausted or an
    error bound is not finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not b > a:
        raise DomainError("need finite a < b")
    pts = np.array(sorted({a, b, *(x for x in map(float, breakpoints)
                                   if a < x < b)}))
    lo, hi = pts[:-1].copy(), pts[1:].copy()
    n = lo.size

    e, r, vector = _gauss_kronrod(f, lo[:1], hi[:1])
    m = e.shape[1]
    per_call = max(1, _CALL_VALUES // (15 * m))
    rows = max(1, _CALL_VALUES // m)
    est, err = np.empty((n, m), dtype=complex), np.empty((n, m))
    est[:1], err[:1] = e, r

    def evaluate(idx):
        """Kronrod estimates and error bounds of the panels idx, in place."""
        for s in range(0, idx.size, per_call):
            i = idx[s:s + per_call]
            est[i], err[i], _ = _gauss_kronrod(f, lo[i], hi[i])

    def fail(message):
        return QuadratureError(
            message, estimate=total if vector else complex(total[0]),
            error_bound=toterr if vector else float(toterr[0]))

    evaluate(np.arange(1, n))
    floor = max(spec.abs_tol, _TINY)
    budget = spec.max_subdivisions * m
    nsplit = 0
    while True:
        total, toterr = np.add.reduce(est), np.add.reduce(err)
        if not np.isfinite(toterr).all():
            raise fail(f"error bound is not finite after {nsplit} subdivisions")
        tol = np.maximum(spec.rel_tol * abs(offset + total), floor)
        excess = toterr - tol
        if (excess <= 0.0).all() or nsplit >= budget:
            total, toterr = _fsum(est.view(float)).view(complex), _fsum(err)
            tol = np.maximum(spec.rel_tol * abs(offset + total), floor)
            if (toterr <= tol).all():
                return total if vector else complex(total[0])
            if nsplit >= budget:
                raise fail(f"quadrature did not converge after {nsplit} "
                           f"subdivisions (error bound {toterr.max():.3e})")
            excess = toterr - tol
        # Keys and partial sums take ``rows`` panels at a time, so that no
        # temporary holds more than _CALL_VALUES values either.
        key = np.concatenate([np.maximum.reduce(err[s:s + rows] / tol, 1)
                              for s in range(0, n, rows)])
        order = (-key).argsort(kind="stable")[:budget - nsplit]
        sel = _fewest_covering(err, order, excess, rows)
        left, right = lo[sel], hi[sel]
        mid = 0.5 * (left + right)
        if ((mid <= left) | (mid >= right)).any():
            raise fail("interval collapsed below machine resolution")
        # Left halves keep their parent's slot, right halves are appended.
        # The arrays grow in place (realloc): no second full copy is held.
        k = sel.size
        lo.resize(n + k, refcheck=False)
        hi.resize(n + k, refcheck=False)
        est.resize((n + k, m), refcheck=False)
        err.resize((n + k, m), refcheck=False)
        lo[n:], hi[n:] = mid, right
        hi[sel] = mid
        evaluate(np.concatenate([sel, np.arange(n, n + k)]))
        n += k
        nsplit += k


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
    dx = 1e-7 * (b - a)
    at = np.asarray(g(np.array([pole, pole + dx, pole - dx])))
    gp = complex(at[0])
    gprime = (at[1] - at[2]) / (2.0 * dx)

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


def newton_refine(f, fprime, z0: complex, max_iter: int = 80) -> complex:
    """Newton iteration for a simple zero of an analytic f near z0.

    Converged once |f(z)| < 1e-14*s, with s = max(1, |f'(z)|*|z|).  After
    ``max_iter`` steps, z is accepted if |f(z)| < 1e-13*s.  Otherwise, and
    on a non-finite f', a zero f' at an unconverged point or a non-finite
    iterate, raises :class:`NewtonError` with the iterate trace.  Errors
    raised by f or fprime propagate; a ``max_iter`` that is not an
    integer >= 0 raises :class:`DomainError`.
    """
    if not _is_int(max_iter) or max_iter < 0:
        raise DomainError("max_iter must be an integer >= 0")
    z = complex(z0)
    iterates = [z]
    for k in range(max_iter + 1):
        fz, dz = complex(f(z)), complex(fprime(z))
        if not cmath.isfinite(dz):
            raise NewtonError(f"derivative is {dz} at {z}", iterates)
        s = max(1.0, abs(dz) * abs(z))
        if abs(fz) < 1e-14 * s:
            return z
        if k == max_iter:
            break
        if dz == 0:
            raise NewtonError(f"derivative is {dz} at {z}", iterates)
        z = z - fz / dz
        iterates.append(z)
        if not cmath.isfinite(z):
            raise NewtonError("iterate is not finite", iterates)
    if abs(fz) < 1e-13 * s:
        return z
    raise NewtonError(f"no convergence within {max_iter} iterations", iterates)


def winding_number(f, points, *, min_modulus: float = 0.0) -> int:
    """Winding number of f along a closed polygon given by its samples.

    ``points`` is a 1-d array of at least three finite complex points in
    path order; the path runs straight from each point to the next and
    from the last back to the first.  The phase is tracked by
    nearest-branch continuation; every step whose phase change is at
    least pi/2 gets its midpoint inserted, until no such step is left.
    f is called once on all initial points, then once per refinement
    pass on all new midpoints.  Raises :class:`ContourZeroError` at the
    first point in path order where |f| falls to ``min_modulus`` or
    below, :class:`WindingError` if refinement stalls, and
    :class:`DomainError` for malformed ``points``.
    """
    try:
        pts = np.asarray(points, dtype=complex)
        ok = pts.ndim == 1 and pts.size >= 3 and np.isfinite(pts).all()
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError("points must be a 1-d array of at least three "
                          "finite complex numbers")

    vals = _values_off_floor(f, pts, min_modulus)
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

        lo, hi = pts[bad], pts[(bad + 1) % pts.size]
        mid = 0.5 * (lo + hi)
        if np.any((mid == lo) | (mid == hi)):
            raise WindingError("refinement collapsed below resolution")
        vals = np.insert(vals, bad + 1, _values_off_floor(f, mid, min_modulus))
        pts = np.insert(pts, bad + 1, mid)

    raise WindingError(f"phase not resolved after {_MAX_PASSES} refinement passes")


def _values_off_floor(f, pts, min_modulus):
    """f at pts; ContourZeroError at the first non-finite or floored value."""
    vals = np.asarray(f(pts), dtype=np.complex128)
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
    return vals


def rectangle_path(x0: float, x1: float, y0: float, y1: float,
                   samples_per_side: int = 16) -> np.ndarray:
    """Winding samples of the counterclockwise rectangle [x0,x1] x [y0,y1].

    Each side, from the corner (x0, y0) on, contributes
    max(2, samples_per_side) equally spaced points starting at its first
    corner, for :func:`winding_number`.
    """
    if not (x1 > x0 and y1 > y0):
        raise DomainError("rectangle is degenerate")
    corners = np.array([complex(x0, y0), complex(x1, y0),
                        complex(x1, y1), complex(x0, y1)])
    n = max(2, samples_per_side)
    t = np.arange(n) / n
    return (corners[:, None] + t * (np.roll(corners, -1) - corners)[:, None]).ravel()
