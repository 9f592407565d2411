"""Complex special functions underlying the plasma dispersion kernel.

Everything in this module reduces to the Hilbert transform of a unit
Gaussian,

    t(z) = pi**-0.5 * PV int_-oo^oo exp(-u**2) / (u - z) du,

which is analytic off the real axis and is taken as a principal value on
it.  Off the axis it is evaluated through the Faddeeva function w(z)
(``scipy.special.wofz``, relative accuracy ~1e-13 over the plane):

    t(z) =  i*sqrt(pi)*w(z)    for Im z > 0,
    t(z) = -i*sqrt(pi)*w(-z)   for Im z < 0  (Schwarz reflection).

On the real axis the principal value collapses to the Dawson integral,
t(x) = -2*D(x), and on the imaginary axis to the scaled complementary
error function, t(i*y) = i*sqrt(pi)*sign(y)*erfcx(|y|); the latter route
keeps imaginary-axis results exactly real where they should be.  The
Plemelj jump t(x + i0) - t(x - i0) = 2i*sqrt(pi)*exp(-x**2) ties the
three branches together and is verified in the test suite.

All functions are pure; there is no module state, so concurrent use is
safe.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)


def _require_finite(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    return z


# Half-integer moment coefficients (2k-1)!!/2**k of the large-z expansion
# lambda0(z) = -sum_k c_k z**(-2k).  Fourteen terms hold ~1e-14 relative
# accuracy at the |z| = 15 crossover; below it the Faddeeva composition
# is used (the composition loses ~z**2*eps to cancellation, so a single
# method cannot cover the whole plane at 1e-12).
FAR_FIELD_RADIUS = 15.0
_MOMENTS = []
_dfact = 1.0
for _k in range(1, 15):
    _dfact *= (2 * _k - 1) / 2.0
    _MOMENTS.append(_dfact)
_MOMENTS_REV = tuple(reversed(_MOMENTS))
# Coefficients 2*(k-1)*c_k, k = 14 down to 2, of the derivative
# combination's series (see _lambda0_deriv_comb_far).
_DERIV_COMB_REV = tuple(2.0 * (k - 1) * _MOMENTS[k - 1]
                        for k in range(len(_MOMENTS), 1, -1))


def _zsq_lambda0_far(z):
    """z**2*lambda0(z) = -(c1 + c2*u + ...) with u = 1/z**2.

    Moment series, valid for |z| >= FAR_FIELD_RADIUS in every direction:
    the Gaussian boundary term of the cut only matters within O(1) of
    the real axis, where |Re z| >= 15 already kills it.  Elementwise on
    ndarrays.
    """
    u = 1.0 / (z * z)
    acc = 0.0
    for c in _MOMENTS_REV:
        acc = acc * u + c
    return -acc


def _lambda0_deriv_comb_far(z):
    """2*z*lambda0(z) + z**2*lambda0'(z) by the moment series.

    The 1/z leading terms of the two pieces cancel analytically; the
    combined series (u/z)*(2*c2 + 4*c3*u + ...) is evaluated directly so
    no cancellation occurs in floating point.
    """
    u = 1.0 / (z * z)
    acc = 0.0
    for c in _DERIV_COMB_REV:
        acc = acc * u + c
    return acc * u / z


def gauss_hilbert(z: complex) -> complex:
    """Hilbert transform of the unit Gaussian at ``z``.

    Returns pi**-0.5 * int exp(-u**2)/(u - z) du over the real line,
    analytic off the axis; for real ``z`` the principal value.
    """
    z = _require_finite(z)
    if z == 0.0:
        return 0j    # the array kernel gives -0.0 here
    return complex(gauss_hilbert_array(np.array([z]))[0])


def gauss_hilbert_array(z: np.ndarray) -> np.ndarray:
    """Gaussian Hilbert transform, elementwise on an ndarray (no validation)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    up = z.imag > 0.0
    dn = z.imag < 0.0
    ax = ~(up | dn)
    if up.any():
        out[up] = 1j * SQRT_PI * _sp.wofz(z[up])
    if dn.any():
        out[dn] = -1j * SQRT_PI * _sp.wofz(-z[dn])
    if ax.any():
        out[ax] = -2.0 * _sp.dawsn(z[ax].real)
    return out


def lambda0(z: complex) -> complex:
    """Dispersion function of the free Maxwellian velocity distribution.

    lambda0(z) = 1 + z*t(z) with t the Gaussian Hilbert transform; equals
    pi**-0.5 * int u*exp(-u**2)/(u - z) du.  Even in z, real on the
    imaginary axis (where it reduces to 1 - sqrt(pi)*|y|*erfcx(|y|)).
    Beyond FAR_FIELD_RADIUS the moment series replaces the Faddeeva
    composition, which would cancel catastrophically there.
    """
    z = _require_finite(z)
    if abs(z) >= FAR_FIELD_RADIUS:
        u = 1.0 / (z * z)
        return complex(_zsq_lambda0_far(z) * u)
    if z.real == 0.0:
        y = abs(z.imag)
        return complex(1.0 - SQRT_PI * y * float(_sp.erfcx(y)), 0.0)
    return 1.0 + z * gauss_hilbert(z)


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x**2)*erfc(x) for x >= 0."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"non-finite argument {x!r}")
    if x < 0.0:
        raise DomainError("erfcx is restricted to x >= 0 here")
    return float(_sp.erfcx(x))


def p_func(z: complex) -> complex:
    """Cubic-moment kernel -z**3 * t(z); even in z."""
    z = _require_finite(z)
    return -(z**3) * gauss_hilbert(z)
