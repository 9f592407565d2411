"""Independent direct solvers for cross-validating the expansion solution.

Two routes, deliberately sharing nothing with the eigenfunction
machinery beyond the Gaussian Hilbert-transform kernel:

* ``fourier_impedance`` extends the field evenly to the whole line.  The
  even extension turns the surface slope into a 2*e'(0)*delta(x) source,
  so in Fourier space

      h(k, mu) = E(k)/(z0 + i*k*mu),
      E(k)     = 2*e'(0) / D(k),
      D(k)     = Q**2 - k**2 + K(k),
      K(k)     = (i*alpha/sqrt(pi)) int exp(-mu**2)/(z0 + i*k*mu) dmu
               = alpha * t(i*z0/k) / k        (K(0) = i*alpha/z0),

  and the normalization e(0) = (1/2*pi) int E(k) dk = 1 fixes e'(0) and
  hence the impedance, Z = 4*i*Q*I_k/c with I_k = int dk/D(k).  The
  k-integral is truncated at k_max with an analytic tail; the neglected
  remainder is estimated and must stay below 1e-10 of the integral.

* ``fd_profile`` discretizes the transport/field system directly:
  Gauss-Hermite nodes in velocity, a second-order box scheme for the
  transport equations and a three-point Laplacian for the field on a
  graded depth grid, with the mirror condition at the surface and an
  absorbing far boundary.  A Richardson estimate of the discretization
  error is attached to the returned profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dispersion import PlasmaParams
from .errors import CutoffError, DomainError
from .numerics import DEFAULT_QUAD, QuadratureSpec, integrate_finite
from .solution import FieldProfile
from .specfun import SQRT_PI, gauss_hilbert_array

_TAIL_REL = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for the direct solvers."""

    k_max: float
    n_k: int = 256
    mu_nodes: int = 32
    x_max: float = 60.0
    n_x: int = 240

    def __post_init__(self):
        if not (self.k_max > 0 and self.x_max > 0):
            raise DomainError("k_max and x_max must be positive")
        if min(self.n_k, self.mu_nodes, self.n_x) < 8:
            raise DomainError("n_k, mu_nodes and n_x must all be >= 8")


def field_wavenumber(p: PlasmaParams) -> float:
    """Magnitude of the local (collision-dominated) field wavenumber."""
    return math.sqrt(abs(p.Q**2 + 1j * p.alpha / p.z0))


def default_config(p: PlasmaParams) -> OracleConfig:
    kf = field_wavenumber(p)
    k_max = max(100.0, 40.0 * abs(p.z0), 40.0 * kf, 40.0 * p.Q)
    return OracleConfig(k_max=k_max)


def response_kernel(k, p: PlasmaParams) -> np.ndarray:
    """Nonlocal response kernel K(k) of the even-extension field equation."""
    k = np.asarray(k, dtype=float)
    out = np.empty(k.shape, dtype=complex)
    zero = k == 0.0
    nz = ~zero
    if nz.any():
        zeta = 1j * p.z0 / k[nz]
        out[nz] = p.alpha * gauss_hilbert_array(zeta) / k[nz]
    if zero.any():
        out[zero] = 1j * p.alpha / p.z0
    return out


def _denominator(k, p):
    k = np.asarray(k, dtype=float)
    return p.Q**2 - k * k + response_kernel(k, p)


def fourier_impedance(p: PlasmaParams, cfg: OracleConfig | None = None, *,
                      c_light: float = 1.0,
                      spec: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Surface impedance from the even-extension Fourier solution."""
    cfg = cfg if cfg is not None else default_config(p)
    kmax = cfg.k_max

    def f(k):
        return 1.0 / _denominator(k, p)

    # Seed the subdivision at the field scale and at |D| minima (spikes
    # from dispersion zeros close to the integration axis).
    kf = field_wavenumber(p)
    ks = np.geomspace(max(kf, 1e-8) * 1e-3, kmax, cfg.n_k)
    mods = np.abs(_denominator(ks, p))
    bps = [kf]
    for i in range(1, len(ks) - 1):
        if mods[i] < mods[i - 1] and mods[i] < mods[i + 1]:
            bps.append(ks[i])
    half = integrate_finite(f, 0.0, kmax, spec, breakpoints=bps)

    # Analytic tail: 1/D = -(1/k**2)*(1 + s + s**2 + ...) with
    # s = (Q**2 + K)/k**2.  For k >> |z0| the kernel argument i*z0/k
    # approaches the cut from above, so
    #     K(k) = i*alpha*sqrt(pi)/k - 2i*alpha*z0/k**2
    #            + i*alpha*sqrt(pi)*z0**2/k**3 + O(k**-4),
    # i.e. the slowest tail term of 1/D is -i*alpha*sqrt(pi)/k**5.
    q2 = p.Q**2
    az0 = p.alpha * p.z0
    asp = p.alpha * SQRT_PI
    tail = -(1.0 / kmax + q2 / (3.0 * kmax**3) + 1j * asp / (4.0 * kmax**4)
             + (q2 * q2 - 2j * az0) / (5.0 * kmax**5))
    tail_err = (asp * (abs(p.z0) ** 2 + 2.0 * q2 + 1.0) / (6.0 * kmax**6)
                + (asp * asp + abs(q2) ** 3 + 2.0 * abs(az0 * q2))
                / (7.0 * kmax**7))
    estimate = 2.0 * (half + tail)
    if tail_err > _TAIL_REL * abs(estimate):
        raise CutoffError(
            f"k-space tail beyond k_max = {kmax:g} contributes more than "
            f"{_TAIL_REL:g} of the integral; increase k_max")
    return 4j * p.Q * estimate / c_light


def _graded_grid(x_max: float, n: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, n)
    return x_max * u * u


def _fd_system(p: PlasmaParams, x: np.ndarray, mu_nodes: int):
    """Sparse matrix and right-hand side of the box-scheme system.

    The unknowns are e at the nx depths, then h at velocity node i and
    depth j at index nx + i*nx + j.
    """
    nodes, wts = np.polynomial.hermite.hermgauss(mu_nodes)
    nx = x.size
    m = mu_nodes
    n_unknown = nx + m * nx
    he = nx + np.arange(m)[:, None] * nx + np.arange(nx)   # he[i, j]

    rows, cols, vals = [], [], []

    def add(r, c, v):
        r, c, v = np.broadcast_arrays(r, c, v)
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(v.ravel())

    # Field equation rows (one per grid point).
    rhs = np.zeros(n_unknown, dtype=complex)
    add([0, nx - 1], [0, nx - 1], 1.0)   # e(0) = 1, absorbing e(x_max) = 0
    rhs[0] = 1.0
    j = np.arange(1, nx - 1)
    dm = x[j] - x[j - 1]
    dp = x[j + 1] - x[j]
    add(j, j - 1, 2.0 / (dm * (dm + dp)))
    add(j, j, -2.0 / (dm * dp) + p.Q**2)
    add(j, j + 1, 2.0 / (dp * (dm + dp)))
    add(j, he[:, j], (1j * p.alpha / SQRT_PI * wts)[:, None])

    # Transport rows: one boundary row per node -- the mirror condition at
    # x = 0 for mu > 0, no inflow from the far side otherwise -- and the
    # box scheme on each interval.
    out = nodes > 0
    add(he[out, 0], he[out, 0], 1.0)
    add(he[out, 0], he[::-1][out, 0], -1.0)
    add(he[~out, 0], he[~out, nx - 1], 1.0)
    mu_d = nodes[:, None] / np.diff(x)
    half_z0 = 0.5 * p.z0
    add(he[:, 1:], he[:, :-1], -mu_d + half_z0)
    add(he[:, 1:], he[:, 1:], mu_d + half_z0)
    add(he[:, 1:], np.arange(nx - 1), -0.5)
    add(he[:, 1:], np.arange(1, nx), -0.5)

    A = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_unknown, n_unknown), dtype=complex)
    return A, rhs


def _fd_solve(p: PlasmaParams, x: np.ndarray, mu_nodes: int) -> np.ndarray:
    """Box-scheme solve of the coupled transport/field system; returns e.

    e is copied out of the solution so that it does not keep the whole
    solution vector alive.
    """
    A, rhs = _fd_system(p, x, mu_nodes)
    return spla.spsolve(A, rhs)[:x.size].copy()


def fd_profile(p: PlasmaParams, cfg: OracleConfig | None = None) -> FieldProfile:
    """Field profile from the finite-difference solve, with an attached
    Richardson error estimate (coarse vs midpoint-refined grid)."""
    cfg = cfg if cfg is not None else default_config(p)
    x_coarse = _graded_grid(cfg.x_max, cfg.n_x)
    x_fine = _graded_grid(cfg.x_max, 2 * cfg.n_x - 1)
    e_coarse = _fd_solve(p, x_coarse, cfg.mu_nodes)
    e_fine = _fd_solve(p, x_fine, cfg.mu_nodes)
    # Coarse points are the even-index fine points by construction.
    est = float(np.max(np.abs(e_fine[::2] - e_coarse))) / 3.0
    return FieldProfile(x_grid=x_fine, e_values=e_fine, error_estimate=est)
