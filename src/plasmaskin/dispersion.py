"""Plasma parameters and the dispersion function of the skin-effect problem.

The reduced inputs are

    gamma   = wave frequency / plasma frequency,
    epsilon = collision frequency / plasma frequency,
    v_c     = thermal-velocity-to-light-speed ratio (free positive input),

from which the complex constants of the boundary problem follow:

    z0 = 1 - i*gamma/epsilon          (so Re z0 = 1 exactly),
    Q'  = gamma*v_c/epsilon            (retardation parameter),
    alpha = gamma*v_c**2/epsilon**3    (anomaly parameter),
    b = Q'**2/z0**2 = gamma**2*v_c**2/(epsilon - i*gamma)**2,
    a = -i*alpha/z0**3 = -i*gamma*v_c**2/(epsilon - i*gamma)**3.

The dispersion function itself is

    lam(z) = 1 + (b - a)*z**2 + a*z**2*lambda0(z),

with lambda0 the free-Maxwellian dispersion function of specfun.  lam is
even, analytic off the real axis, and grows like (b-a)*z**2 at infinity.
On the cut its boundary values from above/below are

    lam_pm(x) = lam(x) +- i*sqrt(pi)*a*x**3*exp(-x**2),

with lam(x) the principal-value evaluation; the jump is the Plemelj
limit of the defining integral (checked against lam(x +- i*delta) in the
tests).

PlasmaParams is immutable and all functions are pure, so concurrent use
is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError
from .specfun import (
    FAR_FIELD_RADIUS,
    SQRT_PI,
    _lambda0_deriv_comb_far,
    _zsq_lambda0_far,
    gauss_hilbert,
    gauss_hilbert_array,
    lambda0,
)

_ASYMPTOTIC_RADIUS = 8.0


@dataclass(frozen=True)
class PlasmaParams:
    """Reduced plasma/field parameters plus derived complex constants."""

    gamma: float
    epsilon: float
    v_c: float
    z0: complex
    Q: float
    alpha: float
    a: complex
    b: complex


def make_params(gamma: float, epsilon: float, v_c: float) -> PlasmaParams:
    """Build PlasmaParams from the three reduced inputs (all > 0)."""
    for name, val in (("gamma", gamma), ("epsilon", epsilon), ("v_c", v_c)):
        if not (isinstance(val, (int, float)) and not isinstance(val, bool)
                and math.isfinite(val) and val > 0):
            raise DomainError(f"{name} must be a positive finite number, got {val!r}")
    gamma, epsilon, v_c = float(gamma), float(epsilon), float(v_c)
    w = complex(epsilon, -gamma)          # epsilon - i*gamma
    z0 = complex(1.0, -gamma / epsilon)   # w/epsilon with Re z0 = 1 exactly
    Q = gamma * v_c / epsilon
    alpha = gamma * v_c**2 / epsilon**3
    b = (gamma * v_c) ** 2 / w**2
    a = -1j * gamma * v_c**2 / w**3
    p = PlasmaParams(gamma=gamma, epsilon=epsilon, v_c=v_c,
                     z0=z0, Q=Q, alpha=alpha, a=a, b=b)
    # Construction identities; a failure here indicates a numeric defect.
    if abs(a * z0**3 + 1j * alpha) > 1e-13 * abs(alpha):
        raise DomainError("derived constants inconsistent: a*z0**3 != -i*alpha")
    if abs(b * z0**2 - Q**2) > 1e-13 * Q**2:
        raise DomainError("derived constants inconsistent: b*z0**2 != Q**2")
    return p


@dataclass(frozen=True)
class BoundaryValues:
    """Boundary values of the dispersion function on the cut at ``at``."""

    lambda_plus: complex
    lambda_minus: complex
    at: float

    @property
    def principal(self) -> complex:
        """Common principal-value part, (lambda_plus + lambda_minus)/2."""
        return 0.5 * (self.lambda_plus + self.lambda_minus)


def lam(z: complex, p: PlasmaParams) -> complex:
    """Dispersion function at a point off the real axis.

    Real arguments are rejected; use :func:`lam_boundary` for boundary
    values on the cut.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    if z.imag == 0.0:
        raise DomainError("z lies on the cut; use lam_boundary for boundary values")
    if abs(z) >= FAR_FIELD_RADIUS:
        return 1.0 + (p.b - p.a) * z * z + p.a * _zsq_lambda0_far(z)
    return 1.0 + (p.b - p.a) * z * z + p.a * z * z * lambda0(z)


def lam_many(z, p: PlasmaParams) -> np.ndarray:
    """Vectorized dispersion function (principal value on the axis)."""
    z = np.asarray(z, dtype=np.complex128)
    return 1.0 + (p.b - p.a) * z * z + p.a * _zsq_lambda0_many(z)


def _zsq_lambda0_many(z: np.ndarray) -> np.ndarray:
    """z**2*lambda0(z) on a complex ndarray: the p-independent term of lam."""
    zsq_lam0 = np.empty(z.shape, dtype=np.complex128)
    far = np.abs(z) >= FAR_FIELD_RADIUS
    near = ~far
    if near.any():
        zn = z[near]
        zsq_lam0[near] = zn * zn * (1.0 + zn * gauss_hilbert_array(zn))
    if far.any():
        zsq_lam0[far] = _zsq_lambda0_far(z[far])
    return zsq_lam0


def lam_boundary(mu: float, p: PlasmaParams) -> BoundaryValues:
    """Boundary values lam_pm(mu) from above/below the cut at real mu."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"non-finite argument {mu!r}")
    lp, lm = boundary_arrays(np.array([mu]), p)
    return BoundaryValues(lambda_plus=complex(lp[0]),
                          lambda_minus=complex(lm[0]), at=mu)


def boundary_arrays(mu, p: PlasmaParams):
    """Vectorized (lambda_plus, lambda_minus) on an array of real mu."""
    mu = np.asarray(mu, dtype=float)
    t_pv = -2.0 * _sp.dawsn(mu)
    principal = 1.0 + p.b * mu * mu + p.a * mu**3 * t_pv
    half_jump = 1j * SQRT_PI * p.a * mu**3 * np.exp(-mu * mu)
    return principal + half_jump, principal - half_jump


def lam_prime(z: complex, p: PlasmaParams) -> complex:
    """Closed-form derivative of the dispersion function off the axis.

    Uses t'(z) = -2*(1 + z*t(z)) = -2*lambda0(z), hence
    lambda0'(z) = t(z) - 2*z*lambda0(z); no finite differences.  In the
    far field the combination 2*z*lambda0 + z**2*lambda0' is taken from
    its cancellation-free moment series.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {z!r}")
    if z.imag == 0.0:
        raise DomainError("z lies on the cut")
    if abs(z) >= FAR_FIELD_RADIUS:
        comb = complex(_lambda0_deriv_comb_far(z))
    else:
        t = gauss_hilbert(z)
        lam0 = 1.0 + z * t
        lam0p = t - 2.0 * z * lam0
        comb = 2.0 * z * lam0 + z * z * lam0p
    return 2.0 * (p.b - p.a) * z + p.a * comb


def _tau2_lambda0(tau) -> np.ndarray:
    """tau**2*lambda0(i*tau) for real tau: the p-independent term of lam(i*tau).

    The erfcx specialization of lambda0 below the far-field radius, the
    moment series beyond it (where 1 - sqrt(pi)*tau*erfcx(tau) would
    cancel).  Real-valued; accepts scalars or arrays.
    """
    tau = np.asarray(tau, dtype=float)
    at = np.abs(tau)
    t2lam0 = np.empty(tau.shape)
    near = at < FAR_FIELD_RADIUS
    far = ~near
    if near.any():
        a_n = at[near]
        t2lam0[near] = a_n * a_n * (1.0 - SQRT_PI * a_n * _sp.erfcx(a_n))
    if far.any():
        # (i*tau)**2*lambda0(i*tau) is real: Horner in u = -1/tau**2.
        t2lam0[far] = _zsq_lambda0_far(1j * at[far]).real * (-1.0)
    return t2lam0


def lam_imag_axis(tau, p: PlasmaParams) -> np.ndarray:
    """Dispersion function on the imaginary axis, lam(i*tau) for real tau.

    The stable closed form 1 - (b-a)*tau**2 - a*tau**2*lambda0(i*tau),
    affine in (a, b) with the p-independent term of :func:`_tau2_lambda0`.
    Vectorized; accepts scalars or arrays.
    """
    tau = np.asarray(tau, dtype=float)
    return 1.0 - (p.b - p.a) * (tau * tau) - p.a * _tau2_lambda0(tau)


def lam_asymptotic(z: complex, p: PlasmaParams) -> complex:
    """Four-term large-|z| expansion of the dispersion function.

    lam(z) ~ (b-a)*z**2 + (1 - a/2) - 3a/(4 z**2) - 15a/(8 z**4); valid
    for |z| >= 8 (truncation error O(z**-6)).  Used for contour sizing
    and far-field checks.
    """
    z = complex(z)
    if abs(z) < _ASYMPTOTIC_RADIUS:
        raise DomainError(f"asymptotic form requires |z| >= {_ASYMPTOTIC_RADIUS}")
    z2 = z * z
    return ((p.b - p.a) * z2 + (1.0 - 0.5 * p.a)
            - 0.75 * p.a / z2 - 1.875 * p.a / (z2 * z2))


def zero_scale_estimate(p: PlasmaParams) -> float:
    """Modulus scale of the discrete zeros from the large-z expansion.

    Solves the two-term truncation (b-a)*z**2 + (1-a/2) = 0; the true
    zeros sit within an O(1) factor of this radius.  Used only to size
    search regions and integration scales.
    """
    return math.sqrt(abs((1.0 - 0.5 * p.a) / (p.b - p.a)))
