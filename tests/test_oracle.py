"""Independent direct solvers against the expansion solution."""

import math

import numpy as np
import pytest

from plasmaskin import (
    OracleConfig,
    fd_profile,
    field_e,
    fourier_impedance,
    impedance,
    make_params,
)
from plasmaskin import oracle
from plasmaskin.oracle import (
    _N_K,
    _denominator,
    _fd_cuts,
    _fd_solve,
    _fd_sparse_solve,
    _fd_system,
    _graded_grid,
    default_config,
    field_wavenumber,
    response_kernel,
)
from plasmaskin.errors import DomainError
from plasmaskin.specfun import SQRT_PI
from plasmaskin.solution import e_prime_at_surface


class TestFourierImpedance:
    def test_agreement_at_base_point(self, base_params):
        za = impedance(base_params).Z
        zf = fourier_impedance(base_params)
        assert abs(za - zf) <= 1e-6 * abs(za)

    def test_agreement_near_resonance(self):
        p = make_params(0.999, 1e-3, 1e-3)
        za = impedance(p).Z
        zf = fourier_impedance(p)
        assert abs(za - zf) <= 1e-5 * abs(za)

    def test_invariant_under_kmax_doubling(self, base_params):
        cfg = default_config(base_params)
        z1 = fourier_impedance(base_params, cfg)
        cfg2 = OracleConfig(k_max=2.0 * cfg.k_max,
                            mu_nodes=cfg.mu_nodes, x_max=cfg.x_max, n_x=cfg.n_x)
        z2 = fourier_impedance(base_params, cfg2)
        assert abs(z1 - z2) <= 1e-9 * abs(z1)

    def test_kernel_local_limit_value(self):
        p = make_params(1e-3, 1e-3, 1e-6)
        k0 = complex(response_kernel(0.0, p))
        assert k0 == pytest.approx(1j * p.alpha / p.z0, rel=1e-14)

    def test_kernel_flattens_in_local_regime(self):
        # With v_c -> 0 the field support shrinks to k ~ k_f, over which
        # the kernel is constant to O((k_f/|z0|)^2): the local limit.
        p = make_params(1e-3, 1e-3, 1e-6)
        kf = field_wavenumber(p)
        k0 = complex(response_kernel(0.0, p))
        kk = complex(response_kernel(kf, p))
        assert abs(kk - k0) / abs(k0) < 1e-3


    @pytest.mark.parametrize("point", [(0.5, 1e-3, 1e-3), (1.0, 1e-3, 1e-3),
                                       (1.3, 1e-2, 0.3), (0.05, 1e-4, 0.5)])
    def test_breakpoints_match_loop_scan(self, monkeypatch, point):
        seen = []

        def capture(f, a, b, spec, breakpoints=()):
            seen.append(list(breakpoints))
            return real(f, a, b, spec, breakpoints)

        real = oracle.integrate_finite
        monkeypatch.setattr(oracle, "integrate_finite", capture)
        p = make_params(*point)
        fourier_impedance(p)
        # The point-by-point local-minimum scan, kept as the reference.
        kf = field_wavenumber(p)
        ks = np.geomspace(max(kf, 1e-8) * 1e-3, default_config(p).k_max, _N_K)
        mods = np.abs(_denominator(ks, p))
        ref = [kf] + [ks[i] for i in range(1, len(ks) - 1)
                      if mods[i] < mods[i - 1] and mods[i] < mods[i + 1]]
        assert seen == [ref]


class TestFdProfile:
    def test_surface_value_imposed(self, base_params):
        prof = fd_profile(base_params)
        assert prof.e_values[0] == 1.0

    def test_agreement_with_expansion(self, base_params, base_coeffs):
        prof = fd_profile(base_params)
        mask = prof.x_grid <= 5.0
        ana = field_e(prof.x_grid[mask], base_coeffs, base_params)
        diff = float(np.max(np.abs(ana.e_values - prof.e_values[mask])))
        assert diff <= max(1e-3, 3.0 * prof.error_estimate)

    def test_surface_slope_against_closed_form(self, base_params, base_coeffs):
        prof = fd_profile(base_params)
        x, e = prof.x_grid, prof.e_values
        d1, d2 = x[1] - x[0], x[2] - x[1]
        fd = (-(2 * d1 + d2) / (d1 * (d1 + d2)) * e[0]
              + (d1 + d2) / (d1 * d2) * e[1]
              - d1 / (d2 * (d1 + d2)) * e[2])
        exact = e_prime_at_surface(base_coeffs, base_params)
        assert abs(fd - exact) <= 1e-3 * abs(exact)

    def test_e_values_own_their_data(self, base_params):
        # A view into the solve's solution vector would keep the whole
        # vector (all the h unknowns) alive inside the profile.
        e = fd_profile(base_params).e_values
        assert e.base is None and e.flags.owndata

    @pytest.mark.parametrize("point", [(1e-3, 1e-3, 1e-3), (1.2, 1e-3, 0.3)])
    def test_assembly_matches_loop_reference(self, point):
        p = make_params(*point)
        x = _graded_grid(60.0, 40)
        A, rhs = _fd_system(p, x, 9)
        A_ref, rhs_ref = _fd_system_loop(p, x, 9)
        assert A.shape == A_ref.shape
        assert (A != A_ref).nnz == 0
        assert np.array_equal(rhs, rhs_ref)

    def test_grid_doubling_convergence(self):
        p = make_params(0.1, 1e-3, 1e-3)
        coarse = OracleConfig(k_max=100.0, mu_nodes=16, n_x=120)
        fine = OracleConfig(k_max=100.0, mu_nodes=32, n_x=240)
        e1 = fd_profile(p, coarse).error_estimate
        e2 = fd_profile(p, fine).error_estimate
        assert e1 / e2 >= 3.0


def test_hermite_rule_cached_read_only():
    for m in (9, 32):
        rule = oracle._hermite_rule(m)
        assert oracle._hermite_rule(m) is rule
        for a, b in zip(rule, np.polynomial.hermite.hermgauss(m)):
            assert np.array_equal(a, b)
            assert not a.flags.writeable


class TestStructuredFdSolve:
    """The exact elimination in ``_fd_solve`` against a sparse LU of the
    literal box-scheme system, on both Richardson grids."""

    @staticmethod
    def _check(point, x_max, n_x, mu_nodes):
        p = make_params(*point)
        rule = np.polynomial.hermite.hermgauss(mu_nodes)
        for x in (_graded_grid(x_max, n_x), _graded_grid(x_max, 2 * n_x - 1)):
            e = _fd_solve(p, x, *rule)
            assert np.all(np.isfinite(e))
            assert float(np.max(np.abs(e - _fd_sparse_solve(p, x, mu_nodes)))) <= 1e-9
            assert e[0] == 1.0 and e[-1] == 0.0

    @pytest.mark.parametrize("point", [
        (0.01, 1e-3, 1e-3), (0.5, 1e-3, 1e-3), (1.3, 1e-3, 1e-3),
        (2.0, 1e-3, 1e-3), (0.01, 0.1, 0.01), (1.0, 1e-4, 0.3),
        (0.95, 1e-4, 0.3), (1.3, 1e-2, 0.3), (0.1, 0.1, 0.5),
        (1.2861, 1e-4, 1e-3)])
    def test_matches_sparse_reference(self, point):
        self._check(point, 60.0, 240, 32)

    def test_fine_grid(self):
        # 960 and 1919 depths: the sizes the block solve exists for.
        self._check((1.3, 1e-3, 1e-3), 60.0, 960, 32)

    def test_many_short_blocks(self, monkeypatch):
        # A tiny exponent bound makes the spread guard cut the default
        # grids into short blocks, down to single rows.
        monkeypatch.setattr(oracle, "_SCALE_EXP", 1e-3)
        cuts = []
        real = oracle._fd_cuts

        def spy(re_L):
            cuts.append(real(re_L))
            return cuts[-1]

        monkeypatch.setattr(oracle, "_fd_cuts", spy)
        self._check((0.5, 1e-3, 1e-3), 60.0, 240, 32)
        for c in cuts:
            sizes = np.diff(c)
            assert sizes.min() == 1 and sizes.max() > 1 and sizes.size > 100

    @pytest.mark.parametrize("mu_nodes", [9, 33])
    def test_odd_node_count_with_mu_zero(self, mu_nodes):
        self._check((0.5, 1e-3, 1e-3), 60.0, 240, mu_nodes)

    def test_decay_beyond_double_range(self):
        # The decay exponent reaches ~1464 here: unscaled separable
        # factors would overflow.
        self._check((0.01, 0.1, 0.01), 240.0, 960, 32)

    def test_bit_identical_repeats(self):
        p = make_params(1.3, 1e-3, 1e-3)
        a, b = fd_profile(p), fd_profile(p)
        assert np.array_equal(a.e_values, b.e_values)
        assert a.error_estimate == b.error_estimate


def test_both_oracles_agree_on_surface_slope(base_params):
    # Fourier route: e'(0) = 4*pi*i*Q/(c*Z); finite differences: direct.
    zf = fourier_impedance(base_params)
    ep_fourier = 4j * math.pi * base_params.Q / zf
    prof = fd_profile(base_params)
    x, e = prof.x_grid, prof.e_values
    d1, d2 = x[1] - x[0], x[2] - x[1]
    ep_fd = (-(2 * d1 + d2) / (d1 * (d1 + d2)) * e[0]
             + (d1 + d2) / (d1 * d2) * e[1]
             - d1 / (d2 * (d1 + d2)) * e[2])
    assert abs(ep_fd - ep_fourier) <= 1e-3 * abs(ep_fourier)


def test_config_validation():
    with pytest.raises(Exception):
        OracleConfig(k_max=-1.0)
    with pytest.raises(Exception):
        OracleConfig(k_max=10.0, n_x=4)
    # Non-finite lengths and non-integer counts are rejected up front.
    with pytest.raises(DomainError):
        OracleConfig(k_max=math.inf)
    with pytest.raises(DomainError):
        OracleConfig(k_max=100.0, x_max=math.inf)
    with pytest.raises(DomainError):
        OracleConfig(k_max=100.0, x_max=math.nan)
    with pytest.raises(DomainError):
        OracleConfig(k_max=100.0, n_x=100.5)
    with pytest.raises(DomainError):
        OracleConfig(k_max=100.0, mu_nodes=True)
    assert OracleConfig(k_max=100.0, n_x=np.int64(100)).n_x == 100


def test_fd_cuts_advance():
    re_L = np.cumsum(np.full((4, 200), -0.5), axis=1)
    cuts = _fd_cuts(re_L)
    assert cuts[0] == 0 and cuts[-1] == 199
    assert all(0 < b - a <= oracle._FD_BLOCK for a, b in zip(cuts, cuts[1:]))
    # NaN spreads fail the bound: the cuts still advance, one row at a time.
    re_L[:, 50:] = np.nan
    cuts = _fd_cuts(re_L)
    assert cuts[-1] == 199 and np.all(np.diff(cuts) >= 1)
    assert cuts[-150:] == list(range(50, 200))
    # The same through the solve: a NaN depth gives NaNs, not a hang.
    x = _graded_grid(60.0, 40)
    x[10:] = np.nan
    with np.errstate(invalid="ignore"):
        e = _fd_solve(make_params(0.5, 1e-3, 1e-3), x, *oracle._hermite_rule(32))
    assert not np.all(np.isfinite(e))


def _fd_system_loop(p, x, mu_nodes):
    """Entry-by-entry assembly of the box-scheme system (reference)."""
    import scipy.sparse as sp

    nodes, wts = np.polynomial.hermite.hermgauss(mu_nodes)
    nx = x.size
    m = mu_nodes
    n_unknown = nx + m * nx

    def he(i, j):
        return nx + i * nx + j

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_unknown, dtype=complex)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    add(0, 0, 1.0)
    rhs[0] = 1.0
    add(nx - 1, nx - 1, 1.0)
    coef = 1j * p.alpha / SQRT_PI
    for j in range(1, nx - 1):
        dm = x[j] - x[j - 1]
        dp = x[j + 1] - x[j]
        add(j, j - 1, 2.0 / (dm * (dm + dp)))
        add(j, j, -2.0 / (dm * dp) + p.Q**2)
        add(j, j + 1, 2.0 / (dp * (dm + dp)))
        for i in range(m):
            add(j, he(i, j), coef * wts[i])
    for i in range(m):
        mu = nodes[i]
        row0 = he(i, 0)
        if mu > 0:
            add(row0, he(i, 0), 1.0)
            add(row0, he(m - 1 - i, 0), -1.0)
        else:
            add(row0, he(i, nx - 1), 1.0)
        for j in range(nx - 1):
            r = he(i, j + 1)
            d = x[j + 1] - x[j]
            add(r, he(i, j), -mu / d + 0.5 * p.z0)
            add(r, he(i, j + 1), mu / d + 0.5 * p.z0)
            add(r, j, -0.5)
            add(r, j + 1, -0.5)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n_unknown, n_unknown),
                      dtype=complex)
    return A, rhs
