"""Discrete spectrum of the dispersion function.

The zeros of lam(z) off the real axis come in +-eta pairs; their total
number N is either 2 or 4 and classifies the parameter point (DMinus
for N = 2, DPlus for N = 4).  N is obtained from the argument principle
applied to the region outside a thin rectangle hugging the cut: because
lam grows like (b-a)*z**2 at infinity,

    N = 2 + (winding of lam along the thin rectangle taken clockwise)
      = 2 - w_ccw.

The rectangle only needs to cover the part of the cut where lam is
evaluated with a jump: beyond FAR_FIELD_RADIUS the moment series is
used, which is analytic across the axis (the true jump there is below
exp(-225)), so the strip ends just past that radius and zeros hugging
the far axis are counted and located like any other.

Individual zeros are then isolated by recursive rectangle subdivision
of the upper half plane (counts from counterclockwise windings) and
polished by Newton iteration with the closed-form derivative; the lower
zeros are the mirrors -eta.  Of each pair the member satisfying the
decay condition Re(z0/eta) > 0 is stored.

Everything is pure computation; results are returned sorted (|eta|
ascending) and are deterministic.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .dispersion import (
    PlasmaParams,
    lam,
    lam_many,
    lam_prime,
    zero_scale_estimate,
)
from .errors import (
    BoundaryProximityError,
    ContourZeroError,
    DomainError,
    NewtonError,
    PlasmaSkinError,
)
from .numerics import winding_number
from .specfun import FAR_FIELD_RADIUS

EPS_CONTOUR = 1e-3          # distance of the counting contour from the cut
BOUNDARY_FLOOR = 1e-8       # |lam| floor on the contour before declaring
                            # spectral-boundary proximity
SIMPLE_ZERO_FLOOR = 1e-10   # |lam'| floor below which a zero is treated as
                            # (near-)double, i.e. boundary proximity


class Region(enum.Enum):
    D_PLUS = "DPlus"
    D_MINUS = "DMinus"


@dataclass(frozen=True)
class SpectrumInfo:
    """Zero count, region tag, and the decaying half of the zero set."""

    n_zeros: int
    region: Region
    zeros: tuple
    lambda_prime_at_zeros: tuple


def _graded_axis(core: float, step: float, ratio: float, L: float):
    """Symmetric grid on [-L, L]: uniform core plus geometric tails."""
    xs = list(np.arange(0.0, min(core, L), step))
    x = xs[-1] + step if xs else step
    while x < L:
        xs.append(x)
        x *= ratio
    xs.append(L)
    xs = np.array(xs)
    return np.concatenate([-xs[::-1], xs[1:]])


@functools.lru_cache(maxsize=16)
def _strip_points(L: float, eps: float) -> np.ndarray:
    """Winding samples of the counterclockwise thin rectangle
    [-L, L] x [-eps, eps] around the cut: every vertex and every edge
    midpoint, in path order.  Built once per (L, eps); read-only."""
    xs = _graded_axis(12.0, 0.25, 1.25, L)
    verts = [complex(x, -eps) for x in xs]
    verts += [complex(L, 0.0), complex(L, eps)]
    verts += [complex(x, eps) for x in xs[::-1]]
    verts += [complex(-L, 0.0)]
    v = np.array(verts)
    pts = (v[:, None] + np.array([0.0, 0.5]) * (np.roll(v, -1) - v)[:, None]).ravel()
    pts.flags.writeable = False
    return pts


def strip_winding(f, L: float, eps: float, *, min_modulus: float = 0.0) -> int:
    """Counterclockwise winding of f along the thin cut-hugging rectangle."""
    return winding_number(f, _strip_points(L, eps), min_modulus=min_modulus)


def _strip_half_length(contour_scale: float) -> float:
    """Half length of the counting strip: just past the far-field radius.

    Raises :class:`DomainError` unless ``contour_scale`` is positive and
    finite."""
    if not (contour_scale > 0.0 and math.isfinite(contour_scale)):
        raise DomainError("contour_scale must be positive and finite")
    return (FAR_FIELD_RADIUS + 1.0) * max(1.0, contour_scale)


def count_zeros(p: PlasmaParams, *, contour_scale: float = 1.0) -> int:
    """Total number of dispersion-function zeros off the cut.

    Uses the clockwise strip winding plus the quadratic growth at
    infinity; raises :class:`BoundaryProximityError` when |lam| falls
    below the floor anywhere on the contour (a zero is approaching the
    continuous spectrum) and :class:`PlasmaSkinError` if the count is
    not in {2, 4}.
    """
    L = _strip_half_length(contour_scale)
    eps = EPS_CONTOUR * contour_scale

    def f(z):
        return lam_many(z, p)

    try:
        w_ccw = strip_winding(f, L, eps, min_modulus=BOUNDARY_FLOOR)
    except ContourZeroError as exc:
        mu = exc.point.real if exc.point is not None else None
        raise BoundaryProximityError(
            f"spectral boundary proximity: |lam| at or below {BOUNDARY_FLOOR:.0e} "
            f"on the counting contour near mu = {mu}", mu=mu) from exc
    n = 2 - w_ccw
    if n in (2, 4):
        return n
    if n <= 0:
        # A zero pair hides between the contour and the cut: the point
        # is (numerically) on the wrong side of the spectral boundary.
        raise BoundaryProximityError(
            f"zero count came out {n}: a discrete zero lies within the "
            f"contour offset {eps:g} of the continuous spectrum")
    raise PlasmaSkinError(f"unexpected zero count N = {n}")


def _rect_winding(p, x0, x1, y0, y1, *, samples=24):
    path = numerics.rectangle_path(x0, x1, y0, y1, samples_per_side=samples)
    return winding_number(lambda z: lam_many(z, p), path, min_modulus=1e-290)


def _inside(z, rect, slack=0.0):
    x0, x1, y0, y1 = rect
    mx = slack * (x1 - x0)
    my = slack * (y1 - y0)
    return (x0 - mx <= z.real <= x1 + mx) and (y0 - my <= z.imag <= y1 + my)


def _subdivide(p, rect, count, depth=0):
    if count == 0:
        return []
    x0, x1, y0, y1 = rect
    if count == 1:
        z0 = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        try:
            root = numerics.newton_refine(lambda z: lam(z, p),
                                          lambda z: lam_prime(z, p), z0)
        except (NewtonError, DomainError):
            root = None  # no polish from the centre; split further
        if root is not None and _inside(root, rect, slack=1e-9):
            return [root]
    if depth > 60:
        raise PlasmaSkinError("zero-search subdivision exhausted")
    wide = (x1 - x0) >= (y1 - y0)
    for frac in (0.5, 0.53, 0.47, 0.59, 0.41):
        if wide:
            xm = x0 + frac * (x1 - x0)
            r1, r2 = (x0, xm, y0, y1), (xm, x1, y0, y1)
        else:
            ym = y0 + frac * (y1 - y0)
            r1, r2 = (x0, x1, y0, ym), (x0, x1, ym, y1)
        try:
            c1 = _rect_winding(p, *r1)
            c2 = _rect_winding(p, *r2)
        except ContourZeroError:
            continue  # split line grazed a zero; try another fraction
        if c1 + c2 != count:
            continue  # inconsistent counts, refine with a different split
        return (_subdivide(p, r1, c1, depth + 1)
                + _subdivide(p, r2, c2, depth + 1))
    raise PlasmaSkinError("could not split search rectangle cleanly")


def find_zeros(p: PlasmaParams, n: int, *,
               contour_scale: float = 1.0) -> SpectrumInfo:
    """Locate the decaying half of the n zeros and their derivatives.

    ``n`` must come from :func:`count_zeros`.  The upper half plane is
    searched by winding-guided rectangle subdivision with Newton
    polishing; the lower zeros are the mirrors.  The search region is
    everything above the counting strip: the rectangle Im z > eps plus,
    when that holds too few zeros, the thin bands 0 < Im z <= eps beyond
    the strip's ends.  ``contour_scale`` scales the strip as in
    :func:`count_zeros` and the search half-width by max(1, contour_scale).
    For each +-eta pair the member with Re(z0/eta) > 0 is stored, sorted
    by |eta|.
    """
    if n not in (2, 4):
        raise DomainError(f"zero count must be 2 or 4, got {n}")
    half = n // 2
    X = _strip_half_length(contour_scale)
    eps = EPS_CONTOUR * contour_scale
    R = max(10.0, 2.0 * zero_scale_estimate(p)) * max(1.0, contour_scale)

    uppers = None
    for _ in range(5):
        rects = [(-R, R, eps, R)]
        try:
            counts = [_rect_winding(p, *rects[0], samples=48)]
            if counts[0] < half and R > X:
                # The rest hug the axis beyond the counting strip's ends.
                rects += [(X, R, 0.0, eps), (-R, -X, 0.0, eps)]
                counts += [_rect_winding(p, *r, samples=48) for r in rects[1:]]
        except ContourZeroError:
            R *= 1.37
            continue
        if sum(counts) == half:
            uppers = [z for r, m in zip(rects, counts)
                      for z in _subdivide(p, r, m)]
            break
        R *= 2.5
    if uppers is None or len(uppers) != half:
        raise BoundaryProximityError(
            "could not isolate the expected number of zeros in the upper "
            "half plane; parameters may sit near the spectral boundary")

    candidates = []
    for r in uppers:
        candidates.extend([r, -r])
    stored = [z for z in candidates if (p.z0 / z).real > 0.0]
    if len(stored) != half:
        raise BoundaryProximityError(
            "decay-condition selection is ambiguous for the located zeros")
    stored.sort(key=abs)

    derivs = []
    for z in stored:
        d = lam_prime(z, p)
        if abs(d) < SIMPLE_ZERO_FLOOR:
            raise BoundaryProximityError(
                f"zero at {z} is nearly double (|lam'| = {abs(d):.2e}); "
                "treating as spectral-boundary proximity")
        resid = abs(lam(z, p))
        if resid > 1e-12 * max(1.0, abs(d) * abs(z)):
            raise PlasmaSkinError(
                f"zero at {z} failed the residual contract (|lam| = {resid:.2e})")
        derivs.append(d)

    region = Region.D_PLUS if n == 4 else Region.D_MINUS
    return SpectrumInfo(n_zeros=n, region=region, zeros=tuple(stored),
                        lambda_prime_at_zeros=tuple(derivs))


def analyze(p: PlasmaParams, *, contour_scale: float = 1.0) -> SpectrumInfo:
    """count_zeros followed by find_zeros."""
    return find_zeros(p, count_zeros(p, contour_scale=contour_scale),
                      contour_scale=contour_scale)
