"""Assembly of the eigenfunction-expansion solution.

Given the discrete spectrum, the expansion coefficients follow in closed
form from the boundary-value structure of 1/lam:

    J    = (1/pi) int_0^oo dtau / lam(i*tau)      (imaginary-axis integral)
    C1   = e_s / (a*z0*J)
    B_k  = A_k * eta_k**2 * exp(-eta_k**2) = -sqrt(pi)*C1 / lam'(eta_k)

J of one point (:func:`compute_J`, and through it :func:`impedance` and
:func:`compute_coefficients`) needs no spectrum: a scan for the minima
of |lam(i*tau)| seeds its panels.  A sweep block's J
(:func:`compute_J_many`) comes from the block's spectra: the pole pairs
of 1/lam at the discrete zeros are subtracted from the integrand and
added back in closed form, so the remainder is smooth.

B_k (the amplitude folded with its Gaussian weight) is the stored
quantity: the raw A_k involve exp(+eta_k**2), which overflows the double
range whenever Re(eta_k**2) is large and negative-definite quantities
cancel only analytically.  The continuum coefficient is evaluated in the
cancellation-free product form

    A(eta) = -C1*a*eta / (lam_plus(eta)*lam_minus(eta)),

identical to C1*exp(eta**2)/(2*sqrt(pi)*i*eta**2) * (1/lam_plus -
1/lam_minus) because the boundary-value jump is 2i*sqrt(pi)*a*eta**3*
exp(-eta**2); in particular A(eta) -> 0 linearly as eta -> 0+.

The fields are the discrete sums plus continuum integrals; the surface
impedance in Gaussian units is

    Z = -8*pi*i*Q*J / (c*z0),   Z = R*Z0,   R = (2*pi/c)*sqrt(2*eps*gamma),

a sign/normalization fixed by the collision-dominated limit Z0 -> 1 - i
and equivalent to Z = 4*pi*i*(omega l/c^2) * e(0)/e'(0) with
e'(0) = -z0/(2*J).  Z0 never depends on the dimensional scale c.

Identity residuals (field normalization at the surface, the reciprocal
sum fixing C1, and the resolvent representation of 1/lam) are exposed as
numeric checks; they fail loudly if a zero was missed or a quadrature is
defective.
"""

from __future__ import annotations

import cmath
import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import spectrum as _spectrum
from .dispersion import (
    PlasmaParams,
    _tau2_lambda0,
    boundary_arrays,
    lam,
    lam_imag_axis,
    lam_many,
    zero_scale_estimate,
)
from .errors import (
    BoundaryProximityError,
    DegenerateImpedanceError,
    DomainError,
    SpectralDegeneracyError,
)
from .numerics import DEFAULT_QUAD, QuadratureSpec, integrate_semi_infinite
from .specfun import SQRT_PI
from .spectrum import SpectrumInfo

_LAM_FLOOR = 1e-12
_IDENTITY_QUAD = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=4000)
_FIELD_QUAD = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16, max_subdivisions=4000)


@dataclass(frozen=True)
class SolutionCoefficients:
    """Closed-form expansion coefficients for one parameter point."""

    J: complex
    C1: complex
    discrete_weights: tuple   # B_k = A_k*eta_k**2*exp(-eta_k**2)
    spectrum: SpectrumInfo
    e_s: float = 1.0
    c1_split_difference: float | None = None

    @property
    def A_discrete(self) -> tuple:
        """Raw discrete amplitudes A_k = B_k*exp(eta_k**2)/eta_k**2.

        For deep zeros |Re eta_k**2| exceeds the double exponent range,
        so A_k saturates to inf (or underflows to 0); every computation
        in this package uses the folded weights B_k instead.
        """
        return tuple(complex(math.inf, math.inf) if (eta * eta).real > 700.0
                     else bk * cmath.exp(eta * eta) / (eta * eta)
                     for bk, eta in zip(self.discrete_weights, self.spectrum.zeros))


@dataclass
class FieldProfile:
    """Sampled field values on a user grid."""

    x_grid: np.ndarray
    e_values: np.ndarray
    error_estimate: float | None = None


@dataclass(frozen=True)
class ImpedanceResult:
    """Surface impedance in Gaussian units plus its dimensionless form."""

    Z: complex
    R: float
    Z0: complex


def _reciprocal_on_axis(vals, tau, ps):
    """1/lam(i*tau) from lam's values at the nodes tau, one column per
    point of ps; raises :class:`SpectralDegeneracyError` naming the
    point's gamma where |lam| falls below the floor."""
    m = np.abs(vals)
    if m.size and np.min(m) < _LAM_FLOOR:
        i, row = divmod(int(np.argmin(m)), len(ps))
        raise SpectralDegeneracyError(
            f"dispersion function vanishes on the imaginary axis near "
            f"tau = {np.asarray(tau).ravel()[i]:.6g} at gamma = "
            f"{ps[row].gamma:.17g}")
    return 1.0 / vals


def _spike_breakpoints(p: PlasmaParams, scale: float) -> np.ndarray:
    """tau positions where |lam(i*tau)| has sharp minima (near-zeros),
    from a 600-point geometric scan around ``scale``."""
    taus = np.geomspace(1e-3 * scale, 1e3 * scale, 600)
    mods = np.abs(lam_imag_axis(taus, p))
    mid = mods[1:-1]
    return taus[1:-1][(mid < mods[:-2]) & (mid < mods[2:]) & (mid < 0.5)]


def _pole_pairs(spectra):
    """eta_k, r_k = 1/lam'(eta_k) and int_0^oo S_k(i*tau) dtau of each
    spectrum's pole pairs, as (points, 2) arrays; an N = 2 point's
    second pair has r = 0."""
    eta = np.ones((len(spectra), 2), complex)
    r = np.zeros((len(spectra), 2), complex)
    for j, info in enumerate(spectra):
        eta[j, :len(info.zeros)] = info.zeros
        r[j, :len(info.zeros)] = np.reciprocal(info.lambda_prime_at_zeros)
    return eta, r, -math.pi * r * eta / np.where(eta.real > 0.0, eta, -eta)


def _block_seeds(scale: float) -> np.ndarray:
    """tau seeds of a block's panels, on both scales of 1/lam(i*tau).

    The map seeds scale*k/(8 - k), k = 1..7 (u = k/8 of the map
    tau = scale*u/(1 - u)), cover the zeros' scale; lam0(i*tau) changes
    on the thermal scale tau ~ 1, which the map squeezes below u ~ 1/scale,
    so 2*4**k, k >= 0, seeds it up to the first map seed, scale/7.
    """
    k = np.arange(1.0, 8.0)
    thermal = 2.0 * 4.0 ** np.arange(int(math.log(scale, 4.0)) + 1)
    return np.concatenate([thermal[thermal < scale / 7.0], scale * k / (8.0 - k)])


def compute_J_many(ps, spectra, spec: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """J = (1/pi) int_0^oo dtau/lam(i*tau) for a block of points, from
    their spectra (one :class:`SpectrumInfo` per point).

    Each zero pair +-eta_k, with r_k = 1/lam'(eta_k), is a pole pair
    S_k(z) = 2*r_k*eta_k/(z**2 - eta_k**2) of 1/lam.  One vector
    quadrature on a shared panel set integrates the smooth remainder
    1/lam(i*tau) - sum_k S_k(i*tau), and the poles come back in closed
    form, int_0^oo S_k(i*tau) dtau = -pi*r_k*eta_k/c_k with c_k = +-eta_k,
    Re c_k > 0, as the quadrature offset: each J converges to
    ``spec.rel_tol`` of itself.  The identity holds for any eta and r, so
    an inexact zero costs panels, not accuracy.  The map of the half line
    runs on the median_low of the points' scales, and the panels are
    seeded on both scales of the remainder (:func:`_block_seeds`): at
    scale*k/(8 - k), k = 1..7, and at the thermal tau = 2*4**k below
    scale/7.  Each J agrees with :func:`compute_J` to the
    quadrature tolerance, not bit for bit.  A degenerate point raises
    :class:`SpectralDegeneracyError` naming its gamma.
    """
    ps, spectra = list(ps), list(spectra)
    if not ps or len(spectra) != len(ps):
        raise DomainError("need one spectrum for each of one or more points")
    a = np.array([p.a for p in ps])
    b_minus_a = np.array([p.b - p.a for p in ps])
    eta, r, closed = _pole_pairs(spectra)
    poles = np.sum(closed, axis=1)
    two_r_eta, eta2 = 2.0 * r * eta, eta * eta

    def remainder(tau):
        tau = np.asarray(tau, dtype=float)
        t2 = (tau * tau)[:, None]
        vals = 1.0 - t2 * b_minus_a - _tau2_lambda0(tau)[:, None] * a
        return (_reciprocal_on_axis(vals, tau, ps)
                + np.sum(two_r_eta / (t2[..., None] + eta2), axis=-1))

    scale = statistics.median_low([max(1.0, zero_scale_estimate(p)) for p in ps])
    val = integrate_semi_infinite(remainder, spec, scale=scale,
                                  breakpoints=_block_seeds(scale), offset=poles)
    return (val + poles) / math.pi


def compute_J(p: PlasmaParams, spec: QuadratureSpec = DEFAULT_QUAD, *,
              path: str = "erfcx") -> complex:
    """The imaginary-axis integral J = (1/pi) int_0^oo dtau/lam(i*tau).

    Needs no spectrum.  ``path`` selects the evaluation of lam on the
    axis: "erfcx" (stable closed form, default) or "complex" (the general
    off-axis formula at z = i*tau), kept as an independent cross-check
    route.  Either is one scalar quadrature on the point's own scale,
    seeded at the minima of a |lam(i*tau)| scan.
    """
    if path == "erfcx":
        return _one_point_J(
            lambda tau: _reciprocal_on_axis(lam_imag_axis(tau, p), tau, [p]),
            p, spec)
    if path != "complex":
        raise DomainError(f"unknown path {path!r}")
    return _one_point_J(
        lambda tau: 1.0 / lam_many(1j * np.asarray(tau, dtype=float), p),
        p, spec)


def _one_point_J(f, p: PlasmaParams, spec: QuadratureSpec) -> complex:
    """(1/pi) int_0^oo f(tau) dtau on the panels seeded for p alone."""
    scale = max(1.0, zero_scale_estimate(p))
    bps = _spike_breakpoints(p, scale)
    return integrate_semi_infinite(f, spec, scale=scale, breakpoints=bps) / math.pi


def compute_coefficients(p: PlasmaParams, *, spectrum_info: SpectrumInfo | None = None,
                         e_s: float = 1.0,
                         spec: QuadratureSpec = DEFAULT_QUAD) -> SolutionCoefficients:
    """J, C1 and the discrete weights B_k for one parameter point."""
    info = spectrum_info if spectrum_info is not None else _spectrum.analyze(p)
    J = compute_J(p, spec)
    C1 = e_s / (p.a * p.z0 * J)
    weights = tuple(-SQRT_PI * C1 / d for d in info.lambda_prime_at_zeros)
    split = None
    if info.n_zeros == 4:
        # The same constant must cancel the pole at both eta_0 and eta_1;
        # report the relative spread of the two reconstructions.
        vals = [-(1.0 / SQRT_PI) * bk * d
                for bk, d in zip(weights, info.lambda_prime_at_zeros)]
        split = abs(vals[0] - vals[1]) / abs(C1)
    return SolutionCoefficients(J=J, C1=C1, discrete_weights=weights,
                                spectrum=info, e_s=e_s, c1_split_difference=split)


def _continuum_coefficients(eta, coeffs: SolutionCoefficients, p: PlasmaParams):
    """A(eta) and the principal part of lam on an array of eta >= 0."""
    eta = np.asarray(eta, dtype=float)
    lp, lm = boundary_arrays(eta, p)
    near = np.abs(lp * lm) < _LAM_FLOOR
    if near.any():
        mu = float(eta[near][0])
        raise BoundaryProximityError(
            f"boundary values of lam vanish near eta = {mu}", mu=mu)
    return -coeffs.C1 * p.a * eta / (lp * lm), 0.5 * (lp + lm)


def continuum_coefficient(eta: float, coeffs: SolutionCoefficients,
                          p: PlasmaParams) -> complex:
    """Continuum-spectrum coefficient A(eta) for eta > 0.

    Evaluated in the product form -C1*a*eta/(lam_plus*lam_minus); the
    eta -> 0+ limit is 0 (linear in eta) and needs no special casing.
    A one-point wrapper of the array form that :func:`field_h` uses.
    """
    eta = float(eta)
    if not (eta > 0.0 and math.isfinite(eta)):
        raise DomainError("eta must be positive and finite")
    return complex(_continuum_coefficients([eta], coeffs, p)[0][0])


def _continuum_weight(eta, coeffs, p):
    """eta**2*exp(-eta**2)*A(eta), vectorized (the integrand weight)."""
    eta = np.asarray(eta, dtype=float)
    lp, lm = boundary_arrays(eta, p)
    return -coeffs.C1 * p.a * eta**3 * np.exp(-eta * eta) / (lp * lm)


def field_e(x_grid, coeffs: SolutionCoefficients, p: PlasmaParams,
            spec: QuadratureSpec = _FIELD_QUAD) -> FieldProfile:
    """Electric-field profile e(x) on a grid of depths x >= 0.

    The continuum integrals of all depths share one adaptive panel set
    (a vector integrand, one component per depth), and each converges
    to ``spec`` relative to e(x) itself: the discrete sum is passed as
    the quadrature offset, so the tolerance is rel_tol*|disc + cont|,
    not rel_tol times the continuum alone.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_grid must be a non-empty 1-d array")
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise DomainError("depths must be finite and >= 0")
    pref = p.a * p.z0 / SQRT_PI
    zeros = np.array(coeffs.spectrum.zeros, dtype=complex)
    weights = np.array(coeffs.discrete_weights, dtype=complex)
    disc = np.exp(-p.z0 * xs[:, None] / zeros) @ weights

    def integrand(eta):
        eta = np.asarray(eta, dtype=float)
        w = _continuum_weight(eta, coeffs, p)
        out = np.zeros((eta.size, xs.size), dtype=complex)
        pos = eta > 0.0
        out[pos] = w[pos, None] * np.exp(-p.z0 * xs / eta[pos, None])
        return out

    bps = (0.5 * xs[xs > 0.0]) ** (1.0 / 3.0)
    cont = integrate_semi_infinite(integrand, spec, scale=2.0,
                                   breakpoints=bps, offset=disc)
    return FieldProfile(x_grid=xs.copy(), e_values=pref * (disc + cont))


def field_h(x, mu, coeffs: SolutionCoefficients, p: PlasmaParams,
            spec: QuadratureSpec = _FIELD_QUAD):
    """Distribution-function amplitude h(x, mu) at (x, mu) pairs.

    ``x`` and ``mu`` broadcast to pairs; h comes back in their shape (a
    complex for two scalars).  h is the discrete sum, the continuum
    principal value across eta = mu and, for mu > 0 (at least 1e-300), the
    delta term lam(mu)*A(mu)*exp(-z0*x/mu).  All pairs share one vector
    quadrature; for mu > 0 the numerator's pole value is subtracted on
    [0, 2*mu], over which PV int d(eta)/(eta - mu) = 0.  The discrete sum
    plus the delta term is the quadrature offset, so each pair converges
    to ``spec`` relative to h.  A call raises if any one pair fails.
    """
    try:
        xs, mus = np.broadcast_arrays(np.asarray(x, float), np.asarray(mu, float))
    except ValueError as exc:
        raise DomainError(f"x and mu must broadcast as reals: {exc}") from exc
    shape, xs, mus = xs.shape, xs.ravel(), mus.ravel()
    if not (xs.size and np.isfinite(xs).all() and np.isfinite(mus).all()
            and (xs >= 0.0).all()):
        raise DomainError("need one or more pairs of finite x >= 0, finite mu")
    if ((mus > 0.0) & (mus < 1e-300)).any():   # the quadrature would overflow
        raise DomainError("a positive mu must be at least 1e-300")
    zeros = np.array(coeffs.spectrum.zeros, dtype=complex)
    hit = np.argwhere(np.abs(zeros.real - mus[:, None]) < 1e-12)
    if hit.size:
        i, k = hit[0]
        raise DomainError(
            f"mu = {mus[i]} coincides with the real part of the discrete "
            f"zero {zeros[k]}; the configuration is rejected as measure-zero")
    pref = p.a / SQRT_PI
    disc = pref * (np.exp(-p.z0 * xs[:, None] / zeros) * zeros
                   / (zeros - mus[:, None])) @ np.array(coeffs.discrete_weights)
    # The pole in (0, oo), or 0 for pairs without one: A(0) = 0 there.
    pole = np.maximum(mus, 0.0)
    decay = np.exp(-p.z0 * xs / np.where(pole > 0.0, pole, 1.0))
    a_pole, lam_pole = _continuum_coefficients(pole, coeffs, p)
    delta = lam_pole * a_pole * decay
    at_pole = pref * pole**3 * np.exp(-pole * pole) * a_pole * decay

    def integrand(eta):
        eta = np.asarray(eta, dtype=float)[:, None]
        num = (pref * eta * _continuum_weight(eta, coeffs, p)
               * np.exp(-p.z0 * xs / eta)
               - np.where(eta < 2.0 * pole, at_pole, 0.0))
        d = eta - mus   # a node exactly at a pole (measure zero) adds 0
        return np.divide(num, d, out=np.zeros_like(num), where=d != 0.0)

    h = disc + delta + integrate_semi_infinite(
        integrand, spec, scale=2.0, breakpoints=np.append(pole, 2.0 * pole),
        offset=disc + delta)
    return h.reshape(shape) if shape else complex(h[0])


def e_prime_at_surface(coeffs: SolutionCoefficients, p: PlasmaParams) -> complex:
    """Surface slope e'(0) = -e_s*z0/(2*J) of the decaying field."""
    return -coeffs.e_s * p.z0 / (2.0 * coeffs.J)


def _assemble_impedance(p: PlasmaParams, J: complex, c_light: float) -> ImpedanceResult:
    if not (cmath.isfinite(J) and abs(J) > 0.0):
        raise DegenerateImpedanceError(f"degenerate impedance integral J = {J!r}")
    root = math.sqrt(2.0 * p.epsilon * p.gamma)
    Z0 = -4j * p.Q * J / (p.z0 * root)
    R = 2.0 * math.pi * root / c_light
    return ImpedanceResult(Z=R * Z0, R=R, Z0=Z0)


def impedance(p: PlasmaParams, *, c_light: float = 1.0,
              J: complex | None = None,
              spec: QuadratureSpec = DEFAULT_QUAD) -> ImpedanceResult:
    """Surface impedance Z = R*Z0 with R the collision-dominated magnitude.

    Z equals 4*pi*i*(omega*l/c**2)*e_s/e'(0); the overall sign is pinned
    by the collision-dominated limit Z0 -> 1 - i.  Z0 is independent of
    ``c_light``, which only scales the dimensional Z and R.
    """
    if not (c_light > 0.0 and math.isfinite(c_light)):
        raise DomainError("c_light must be positive and finite")
    if J is None:
        J = compute_J(p, spec)
    return _assemble_impedance(p, J, c_light)


def impedance_reduced_form(p: PlasmaParams, *, c_light: float = 1.0,
                           spec: QuadratureSpec = DEFAULT_QUAD) -> ImpedanceResult:
    """Impedance via the reduced integrand written directly in (gamma,
    epsilon, v_c), bypassing the derived constants a, b, z0:

        1/lam(i*tau) = w**3 / (w**3 - w*(gamma*v_c*tau)**2
                               - i*gamma*v_c**2*sqrt(pi)*tau**3*erfcx(tau)),

    with w = epsilon - i*gamma.  Kept as an independent algebraic route
    for the dual-form consistency check.
    """
    from scipy.special import erfcx as _erfcx

    w = complex(p.epsilon, -p.gamma)
    w3 = w**3
    gv2 = p.gamma * p.v_c**2

    def f(tau):
        tau = np.asarray(tau, dtype=float)
        denom = (w3 - w * (p.gamma * p.v_c * tau) ** 2
                 - 1j * gv2 * SQRT_PI * tau**3 * _erfcx(tau))
        return w3 / denom

    return _assemble_impedance(p, _one_point_J(f, p, spec), c_light)


def _identity_residuals(coeffs: SolutionCoefficients, p: PlasmaParams,
                        z: complex, spec: QuadratureSpec) -> dict:
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("z must lie off the real axis")
    zeros = coeffs.spectrum.zeros
    derivs = coeffs.spectrum.lambda_prime_at_zeros
    for eta in zeros:
        if min(abs(z - eta), abs(z + eta)) < 1e-6 * max(1.0, abs(eta)):
            raise DomainError("z is too close to a discrete zero")

    def integrand(eta):
        eta = np.asarray(eta, dtype=float)
        w = _continuum_weight(eta, coeffs, p)
        jump = (2j * SQRT_PI / coeffs.C1) * w   # 1/lam_plus - 1/lam_minus
        # The resolvent's odd jump is folded onto the positive half axis.
        return np.stack([w, jump, jump * 2.0 * eta / (eta * eta - z * z)],
                        axis=-1)

    cont, jump, folded = integrate_semi_infinite(integrand, spec, scale=2.0)
    e_target = coeffs.e_s / (p.a * p.z0)
    e_lhs = (sum(coeffs.discrete_weights) + cont) / SQRT_PI
    j_target = e_target / coeffs.C1
    j_lhs = -sum(1.0 / d for d in derivs) + jump / (2.0 * math.pi * 1j)
    r_lhs = 1.0 / lam(z, p)
    r_rhs = (folded / (2.0 * math.pi * 1j)
             - sum(2.0 * eta / ((eta * eta - z * z) * d)
                   for eta, d in zip(zeros, derivs)))
    return {
        "field_normalization": abs(e_lhs - e_target) / abs(e_target),
        "coefficient_constant": abs(j_lhs - j_target) / abs(j_target),
        "resolvent": abs(r_lhs - r_rhs) / abs(r_lhs),
    }


def identity_residuals(coeffs: SolutionCoefficients, p: PlasmaParams,
                       z: complex = 2j) -> dict:
    """Relative residuals of the three structural identities.

    ``field_normalization``: e(0) = e_s, i.e. (1/sqrt(pi))*[sum_k B_k +
    int_0^oo eta**2*exp(-eta**2)*A(eta) deta] = e_s/(a*z0).
    ``coefficient_constant``: the reciprocal sum fixing C1,
    -sum_k 1/lam'(eta_k) + (1/2/pi/i) int_0^oo [1/lam_+ - 1/lam_-] deta
    = e_s/(a*z0*C1) (= J).
    ``resolvent``: 1/lam(z) = (1/2/pi/i) int_-oo^oo [1/lam_+ - 1/lam_-]
    deta/(eta - z) - sum_k 2*eta_k/((eta_k**2 - z**2)*lam'(eta_k)).

    The three integrals share one vector quadrature (one boundary-value
    evaluation per node), each to its own relative tolerance.  A residual
    beyond quadrature error indicates a missed zero or a defective
    quadrature.  z must lie off the axis, away from the zeros.
    """
    return _identity_residuals(coeffs, p, z, _IDENTITY_QUAD)


def check_residue_identity(z: complex, coeffs: SolutionCoefficients,
                           p: PlasmaParams,
                           spec: QuadratureSpec = _IDENTITY_QUAD) -> float:
    """The resolvent residual of :func:`identity_residuals` at z."""
    return _identity_residuals(coeffs, p, z, spec)["resolvent"]


def residual_field_normalization(coeffs: SolutionCoefficients,
                                 p: PlasmaParams) -> float:
    """The surface-normalization residual of :func:`identity_residuals`.

    Runs the full three-identity quadrature, so it costs as much as
    :func:`identity_residuals` and raises what that raises.
    """
    return identity_residuals(coeffs, p)["field_normalization"]


def residual_coefficient_constant(coeffs: SolutionCoefficients,
                                  p: PlasmaParams) -> float:
    """The reciprocal-sum residual of :func:`identity_residuals`.

    Runs the full three-identity quadrature, so it costs as much as
    :func:`identity_residuals` and raises what that raises.
    """
    return identity_residuals(coeffs, p)["coefficient_constant"]
