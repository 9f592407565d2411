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
  solution drifts from e(x) with depth whatever the grid.  Inside a block
  of depths the transport recurrences are summed exactly, so the state
  passed from block to block is e and h at the block ends; block LU in
  depth order then solves the system in time linear in the grid size.  A
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
from .numerics import DEFAULT_QUAD, QuadratureSpec, _is_int, integrate_finite
from .solution import FieldProfile
from .specfun import SQRT_PI, gauss_hilbert_array

_TAIL_REL = 1e-10
_N_K = 256    # log-spaced wavenumbers scanned for |D| minima
# Largest exponent a generator of the FD block sums may carry, and the
# most rows in one block of the FD solve.
_SCALE_EXP = 300.0
_FD_BLOCK = 48


@dataclass(frozen=True)
class OracleConfig:
    """Resolution knobs for the direct solvers."""

    k_max: float
    mu_nodes: int = 32
    x_max: float = 60.0
    n_x: int = 240

    def __post_init__(self):
        if not (0 < self.k_max < math.inf and 0 < self.x_max < math.inf):
            raise DomainError("k_max and x_max must be finite and positive")
        if not (_is_int(self.mu_nodes) and _is_int(self.n_x)):
            raise DomainError("mu_nodes and n_x must be integers")
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
    reference that ``_fd_solve``'s block solve is tested against.
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


def _fd_cuts(re_L: np.ndarray) -> list[int]:
    """Depth cuts 0 = c_0 < c_1 < ... < c_B = n of ``_fd_solve``'s blocks.

    A block spans at most _FD_BLOCK intervals, over which no node's Re L
    moves by more than _SCALE_EXP.  No block is empty, so the cuts
    advance even where one interval alone breaks the bound or L is not
    finite.
    """
    n = re_L.shape[1] - 1
    cuts = [0]
    while cuts[-1] < n:
        c = cuts[-1]
        spread = np.max(np.abs(re_L[:, c + 1:c + 1 + _FD_BLOCK]
                               - re_L[:, c:c + 1]), axis=0)
        ok = spread <= _SCALE_EXP                 # False where spread is NaN
        rows = ok.size if ok.all() else int(np.argmin(ok))
        cuts.append(c + max(rows, 1))
    return cuts


def _fd_solve(p: PlasmaParams, x: np.ndarray, nodes: np.ndarray,
              wts: np.ndarray) -> np.ndarray:
    """Box-scheme solve of the coupled transport/field system; returns e.

    ``nodes`` and ``wts`` are the Gauss-Hermite rule in velocity, in
    ascending order.  On the interval (x_{j-1}, x_j) the box scheme for
    node mu reads

        h_j = r_j*h_{j-1} + s_j*g_j,   g_j = e_{j-1} + e_j,
        r_j = (a - z0/2)/(a + z0/2),   s_j = 1/(2*(a + z0/2)),  a = mu/d_j.

    A node with mu > 0 runs forward (|r| < 1) from its mirror value
    h(mu, 0) = h(-mu, 0); a node with mu <= 0 runs backward from
    h(x_max) = 0 (an odd node count adds mu = 0, with r = -1).  With
    L_k = sum_{l<=k} log r_l, across a stretch of depths c..c'

        phi_k  = exp(L_k - L_c)*phi_c + sum_{c<j<=k} exp(L_k - L_j)*s_j*g_j,
        beta_k = exp(L_k - L_c')*beta_c' - sum_{k<j<=c'} exp(L_k - L_j)*s_j*g_j,

    phi and beta being h at the mu > 0 and mu <= 0 nodes.  The depths are
    cut into blocks (``_fd_cuts``).  Block K, from c = c_K to c' = c_{K+1},
    holds e_c .. e_{c'-1}, phi_c' and beta_c, with their rows: the field
    equations at x_c .. x_{c'-1} (three-point Laplacian, Q**2 and the
    velocity sum of h), the forward recurrence from phi_c to phi_c' and
    the backward one from beta_c' to beta_c.  In block 0 the row at x_0
    is e_0 = 1 and phi_0 = P*beta_0 is the mirror; e_n = 0 (a Dirichlet
    wall) and beta_n = 0 close the last block, whose phi_n is unused.  The
    sums inside a block are products of the bounded generators
    exp(L_k - L_c)*exp(L_c - L_j) (mu > 0) and exp(L_k - L_c')*exp(L_c' - L_j)
    (mu <= 0).  A block touches the previous one only through its last e
    and phi, and the next one only through its first e and beta, so block
    LU in depth order (LAPACK getrf/getrs with partial pivoting inside
    each block) and back substitution solve the system in O(n*(b + m)**2)
    for blocks of b rows and m nodes.  The result equals the sparse solve
    of ``_fd_system`` to rounding.
    """
    n = x.size - 1
    d = np.diff(x)
    a = nodes[:, None] / d
    half_z0 = 0.5 * p.z0
    s = 0.5 / (a + half_z0)                  # s[:, j-1] = s_j
    r = (a - half_z0) * (2.0 * s)
    # log r, with log|r| from |a - z0/2|**2 - |a + z0/2|**2 = -2*a*Re(z0):
    # accurate where |r| is close to 1, and much cheaper than np.log there.
    log_r = 0.5 * np.log1p(-8.0 * p.z0.real * a * (s.real**2 + s.imag**2))
    L = np.zeros((nodes.size, n + 1), dtype=complex)
    np.cumsum(log_r + 1j * np.angle(r), axis=1, out=L[:, 1:])
    m = nodes.size
    fwd = nodes > 0
    mf = int(np.count_nonzero(fwd))
    mb = m - mf
    w = (1j * p.alpha / SQRT_PI) * wts
    wf = w[fwd, None]
    # beta_0 column of -mu for each mu > 0 node (the mu <= 0 nodes lead).
    mirror = m - 1 - np.flatnonzero(fwd)

    cuts = _fd_cuts(L.real)
    sizes = np.diff(cuts)
    lo = np.repeat(cuts[:-1], sizes)   # c of the block of row k, interval k+1
    hi = np.repeat(cuts[1:], sizes)    # c' of the same block
    Lf, Lb = L[fwd], L[~fwd]
    F = np.exp(Lf[:, 1:] - Lf[:, lo])             # F[:, j-1] = exp(L_j - L_c)
    G = s[fwd] * np.exp(Lf[:, lo] - Lf[:, 1:])    # exp(L_c - L_j)*s_j
    R = np.exp(Lb[:, :n] - Lb[:, hi])             # R[:, k] = exp(L_k - L_c')
    H = s[~fwd] * np.exp(Lb[:, hi] - Lb[:, 1:])   # exp(L_c' - L_j)*s_j
    wR = w[~fwd, None] * R
    # Three-point Laplacian of the field row at x_k (none at x_0).
    dm, dp = d[:-1], d[1:]
    lap_lo = np.r_[0.0, 2.0 / (dm * (dm + dp))]
    lap_up = np.r_[0.0, 2.0 / (dp * (dm + dp))]
    lap_di = np.r_[0.0, p.Q**2 - 2.0 / (dm * dp)]

    # A block's unknowns are e_c .. e_{c'-1}, phi_c' and beta_c, its rows
    # in the same order (e first: partial pivoting is then as accurate as
    # the sparse solve).  B holds its columns on the next block's e_c' and
    # beta_c', then the right-hand side; after the block's solve
    # T = A^-1 B, ``coupled`` keeps T's rows at e_{c'-1} and phi_c'.  A is
    # Fortran-ordered so LAPACK factors it in place, and ``flat`` steps
    # along its diagonals.
    below = np.tri(int(sizes.max()), k=-1, dtype=bool)
    blocks = []
    coupled = None
    for c, c1 in zip(cuts[:-1], cuts[1:]):
        b = c1 - c
        size = b + m
        step = size + 1
        ib = b + mf                  # first beta row
        Fr = np.ones((mf, b + 1), dtype=complex)  # exp(L_k - L_c), k = c..c'
        Fr[:, 1:] = F[:, c:c1]
        wFr = (wf * Fr[:, :b]).T
        wRb = wR[:, c:c1].T
        Gb, Hb = G[:, c:c1], H[:, c:c1]
        A = np.zeros((size, size), dtype=complex, order="F")
        flat = A.reshape(-1, order="F")
        # Coefficients on g_{c+1} .. g_{c'}; g_j = e_{j-1} + e_j puts
        # column j - c - 1 on e_{j-1} and e_j.
        Mg = A[:, :b]
        Mg[:b] = np.where(below[:b, :b], wFr @ Gb, -(wRb @ Hb))
        Mg[b:ib] = -(Fr[:, b:] * Gb)
        Mg[ib:] = R[:, c:c + 1] * Hb
        B = np.zeros((size, mb + 2), dtype=complex, order="F")
        B[:, 0] = Mg[:, -1]
        Mg[:, 1:] += Mg[:, :-1]
        flat[:b * step:step] += lap_di[c:c1]
        flat[1:(b - 1) * step:step] += lap_lo[c + 1:c1]
        flat[size:size + (b - 1) * step:step] += lap_up[c:c1 - 1]
        flat[b * step::step] = 1.0              # phi_c' and beta_c
        B[b - 1, 0] += lap_up[c1 - 1]
        B[:b, 1:-1] = wRb
        np.fill_diagonal(B[ib:, 1:-1], -R[:, c])
        if c:
            # The previous block's e_{c-1} and phi_c, folded in through
            # its solution.
            P = np.zeros((size, mf + 1), dtype=complex)
            P[0, 0] = lap_lo[c]
            P[:b, 1:] = wFr
            np.fill_diagonal(P[b:ib, 1:], -Fr[:, b])
            X = P @ coupled
            A[:, 0] -= X[:, 0]
            A[:, ib:] -= X[:, 1:-1]
            B[:, -1] -= X[:, -1]
        else:
            A[:b, ib + mirror] += wFr
            A[np.arange(b, ib), ib + mirror] -= Fr[:, b]
            A[0] = 0.0
            A[0, 0] = 1.0
            B[0] = 0.0
            B[0, -1] = 1.0
        lu, piv, _ = sla.lapack.zgetrf(A, overwrite_a=True)
        T, _ = sla.lapack.zgetrs(lu, piv, B, overwrite_b=True)
        coupled = T[b - 1:ib]
        blocks.append((c, b, T))

    # Back substitution; e_n = 0 and beta_n = 0 past the last block.
    e = np.zeros(n + 1, dtype=complex)
    beta = np.zeros(mb, dtype=complex)
    for c, b, T in reversed(blocks):
        sol = T[:, -1] - T[:, 0] * e[c + b] - T[:, 1:-1] @ beta
        e[c:c + b] = sol[:b]
        beta = sol[b + mf:]
    e[0] = 1.0
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
