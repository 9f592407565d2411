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
  graded depth grid, with the mirror condition at the surface and a
  Dirichlet wall e(x_max) = 0 at the far side.  The wall is not
  transparent: above gamma = 1 it reflects the propagating wave, and the
  solution drifts from e(x) with depth whatever the grid.  The transport
  unknowns are eliminated exactly, leaving a dense system in e alone.  A
  Richardson estimate of the discretization error is attached to the
  returned profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dispersion import PlasmaParams
from .errors import CutoffError, DomainError
from .numerics import DEFAULT_QUAD, QuadratureSpec, integrate_finite
from .solution import FieldProfile
from .specfun import SQRT_PI, gauss_hilbert_array

_TAIL_REL = 1e-10
_N_K = 256    # log-spaced wavenumbers scanned for |D| minima
# Largest exponent a separable factor of the FD kernel may carry, and the
# rows per kernel product (bounds its temporaries).
_SCALE_EXP = 300.0
_ROW_CHUNK = 128


@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for the direct solvers."""

    k_max: float
    mu_nodes: int = 32
    x_max: float = 60.0
    n_x: int = 240

    def __post_init__(self):
        if not (self.k_max > 0 and self.x_max > 0):
            raise DomainError("k_max and x_max must be positive")
        if min(self.mu_nodes, self.n_x) < 8:
            raise DomainError("mu_nodes and n_x must both be >= 8")


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
    ks = np.geomspace(max(kf, 1e-8) * 1e-3, kmax, _N_K)
    mods = np.abs(_denominator(ks, p))
    mid = mods[1:-1]
    bps = [kf, *ks[1:-1][(mid < mods[:-2]) & (mid < mods[2:])]]
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


@functools.lru_cache(maxsize=8)
def _hermite_rule(mu_nodes: int):
    """Gauss-Hermite nodes and weights in velocity, as read-only arrays."""
    rule = np.polynomial.hermite.hermgauss(mu_nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


def _fd_system(p: PlasmaParams, x: np.ndarray, mu_nodes: int):
    """Sparse matrix and right-hand side of the box-scheme system.

    The unknowns are e at the nx depths, then h at velocity node i and
    depth j at index nx + i*nx + j.  This literal discretization is the
    reference that ``_fd_solve``'s elimination is tested against.
    """
    nodes, wts = _hermite_rule(mu_nodes)
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
    add([0, nx - 1], [0, nx - 1], 1.0)   # e(0) = 1, reflecting wall e(x_max) = 0
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


def _fd_sparse_solve(p: PlasmaParams, x: np.ndarray, mu_nodes: int) -> np.ndarray:
    """e from a sparse LU of the literal box-scheme system (test reference)."""
    return spla.spsolve(*_fd_system(p, x, mu_nodes))[:x.size].copy()


def _fd_solve(p: PlasmaParams, x: np.ndarray, nodes: np.ndarray,
              wts: np.ndarray) -> np.ndarray:
    """Box-scheme solve of the coupled transport/field system; returns e.

    ``nodes`` and ``wts`` are the Gauss-Hermite rule in velocity.  The
    transport unknowns are eliminated exactly.  On the interval
    (x_{j-1}, x_j) the box scheme for node mu reads

        h_j = r_j*h_{j-1} + s_j*g_j,   g_j = e_{j-1} + e_j,
        r_j = (a - z0/2)/(a + z0/2),   s_j = 1/(2*(a + z0/2)),  a = mu/d_j.

    With L_k = sum_{l<=k} log r_l, a node with mu <= 0 runs backward from
    h_N = 0, and a node with mu > 0 runs forward from its mirror value
    h(mu, 0) = h(-mu, 0), written in its own r and s (r(-mu) = 1/r(mu)):

        mu <= 0:  h_k = -sum_{j>k} exp(L_k - L_j)*s_j*g_j,
        mu > 0:   h_k = sum_{j<=k} exp(L_k - L_j)*s_j*g_j
                        + sum_j exp(L_k + L_{j-1})*s_j*g_j.

    Each runs in its stable direction (|r| < 1 forward, |r| >= 1
    backward; an odd node count adds mu = 0, with r = -1).  The velocity
    sum in the field rows is then a dense kernel acting on g, separable
    below the diagonal (j <= k: mu > 0 nodes and the mirror term) and
    above it (j > k: mu <= 0 nodes and the mirror term).  Its row factors
    exp(L_k - L_ref) and column factors exp(L_ref - L_j) and
    exp(L_ref + L_{j-1}) take their reference L_ref per block of depths,
    so that no factor exceeds exp(_SCALE_EXP).  Summing adjacent columns
    turns the kernel on g into one on e.  With the three-point Laplacian,
    Q**2, e_0 = 1 and e_N = 0 (a Dirichlet wall) the (N-1)x(N-1) dense
    system in the interior e is solved by LU.  The result equals the
    sparse solve of ``_fd_system`` to rounding.
    """
    n = x.size - 1
    a = nodes[:, None] / np.diff(x)
    half_z0 = 0.5 * p.z0
    s = 0.5 / (a + half_z0)                  # s[:, j-1] = s_j
    r = (a - half_z0) * (2.0 * s)
    # log r, with log|r| from |a - z0/2|**2 - |a + z0/2|**2 = -2*a*Re(z0):
    # accurate where |r| is close to 1, and much cheaper than np.log there.
    log_r = 0.5 * np.log1p(-8.0 * p.z0.real * a * (s.real**2 + s.imag**2))
    L = np.zeros((nodes.size, n + 1), dtype=complex)
    np.cumsum(log_r + 1j * np.angle(r), axis=1, out=L[:, 1:])
    fwd = nodes > 0
    bwd = ~fwd
    w = (1j * p.alpha / SQRT_PI) * wts

    # Row k - 1 is the field equation at x_k, column j' - 1 is e_{j'}.
    A = np.zeros((n - 1, n - 1), dtype=complex)
    rhs = np.empty(n - 1, dtype=complex)
    re_L = L.real
    k0 = 1
    while k0 < n:
        spread = np.max(np.abs(re_L[:, k0:n] - re_L[:, k0:k0 + 1]), axis=0)
        k1 = k0 + int(np.searchsorted(spread, _SCALE_EXP, "right"))
        ref = L[:, k0:k0 + 1]
        U = (w[:, None] * np.exp(L[:, k0:k1] - ref)).T      # rows k0..k1-1
        mirror = s[fwd] * np.exp(ref[fwd] + L[fwd, :n])
        # Column factors in g: below the diagonal j = 1..k1-1 (mu > 0
        # nodes only), above it j = k0+1..N (all nodes).
        Vlo = (s[fwd, :k1 - 1] * np.exp(ref[fwd] - L[fwd, 1:k1])
               + mirror[:, :k1 - 1])
        Vup = np.empty((nodes.size, n - k0), dtype=complex)
        Vup[fwd] = mirror[:, k0:]
        Vup[bwd] = -s[bwd, k0:] * np.exp(ref[bwd] - L[bwd, k0 + 1:])
        # The same in e: e_{j'} enters g_{j'} and g_{j'+1}.
        Wlo = Vlo[:, :-1] + Vlo[:, 1:]
        Wup = Vup[:, :-1] + Vup[:, 1:]
        for r0 in range(k0, k1, _ROW_CHUNK):
            r1 = min(r0 + _ROW_CHUNK, k1)
            rows = slice(r0 - 1, r1 - 1)
            lo, up = U[r0 - k0:r1 - k0, fwd], U[r0 - k0:r1 - k0]
            A[rows, :r1 - 2] += np.tril(lo @ Wlo[:, :r1 - 2], r0 - 2)
            A[rows, r0:] += np.triu(up @ Wup[:, r0 - k0:])
            # e_k itself: g_k from below, g_{k+1} from above.
            A.flat[(r0 - 1) * n:(r1 - 1) * n:n] += (
                np.einsum("km,mk->k", lo, Vlo[:, r0 - 1:r1 - 1])
                + np.einsum("km,mk->k", up, Vup[:, r0 - k0:r1 - k0]))
            rhs[rows] = -(lo @ Vlo[:, 0])                  # e_0 = 1 in g_1
        k0 = k1

    dm = x[1:n] - x[:n - 1]
    dp = x[2:] - x[1:n]
    A.flat[::n] += -2.0 / (dm * dp) + p.Q**2
    A.flat[1::n] += 2.0 / (dp[:-1] * (dm[:-1] + dp[:-1]))
    A.flat[n - 1::n] += 2.0 / (dm[1:] * (dm[1:] + dp[1:]))
    rhs[0] -= 2.0 / (dm[0] * (dm[0] + dp[0]))
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    # A.T is Fortran-ordered, so LAPACK factors it in place; trans=1 then
    # solves with A itself.  (scipy.linalg.solve copies and checks, 2x slower.)
    lu = sla.lu_factor(A.T, overwrite_a=True, check_finite=False)
    e[1:n] = sla.lu_solve(lu, rhs, trans=1, check_finite=False)
    return e


def fd_profile(p: PlasmaParams, cfg: OracleConfig | None = None) -> FieldProfile:
    """Field profile from the finite-difference solve, with an attached
    Richardson error estimate (coarse vs midpoint-refined grid)."""
    cfg = cfg if cfg is not None else default_config(p)
    x_coarse = _graded_grid(cfg.x_max, cfg.n_x)
    x_fine = _graded_grid(cfg.x_max, 2 * cfg.n_x - 1)
    rule = _hermite_rule(cfg.mu_nodes)
    e_coarse = _fd_solve(p, x_coarse, *rule)
    e_fine = _fd_solve(p, x_fine, *rule)
    # Coarse points are the even-index fine points by construction.
    est = float(np.max(np.abs(e_fine[::2] - e_coarse))) / 3.0
    return FieldProfile(x_grid=x_fine, e_values=e_fine, error_estimate=est)
