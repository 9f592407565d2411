"""Parameter construction and the dispersion function family."""

import math

import mpmath as mp
import numpy as np
import pytest

from plasmaskin import (
    DomainError,
    lam,
    lam_asymptotic,
    lam_boundary,
    lam_imag_axis,
    lam_prime,
    make_params,
)
from plasmaskin.dispersion import boundary_arrays, lam_many, zero_scale_estimate
from plasmaskin.specfun import SQRT_PI, erfcx


class TestMakeParams:
    def test_equal_gamma_epsilon_gives_unit_slope(self):
        p = make_params(0.37, 0.37, 1e-3)
        assert p.z0 == 1.0 - 1.0j

    def test_real_part_of_z0_is_exactly_one(self, rng):
        for g, e, v in rng.uniform(1e-4, 10.0, size=(50, 3)):
            assert make_params(g, e, v).z0.real == 1.0

    def test_base_point_derived_values(self):
        p = make_params(1e-3, 1e-3, 1e-3)
        assert p.Q == pytest.approx(1e-3, rel=1e-15)
        assert p.alpha == pytest.approx(1.0, rel=1e-15)
        # a = -i/(1-i)^3 = (1+i)/4 and b = 1e-6/(-2i) = 5e-7i
        assert p.a == pytest.approx(0.25 + 0.25j, rel=1e-14)
        assert p.b == pytest.approx(5e-7j, rel=1e-14)

    def test_construction_identities(self, rng):
        for g, e, v in 10.0 ** rng.uniform(-3, 1, size=(60, 3)):
            p = make_params(g, e, v)
            assert abs(p.a * p.z0**3 + 1j * p.alpha) <= 1e-14 * abs(p.alpha)
            assert abs(p.b * p.z0**2 - p.Q**2) <= 1e-14 * p.Q**2

    def test_rejects_nonpositive(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, math.nan)):
            with pytest.raises(DomainError):
                make_params(*bad)


class TestLam:
    def test_unit_value_at_origin(self, base_params):
        assert abs(lam(1e-8j, base_params) - 1.0) < 1e-12

    def test_imaginary_axis_closed_form(self, base_params):
        p = base_params
        tau = 1.0
        expected = 1.0 - (p.b - p.a) - p.a * (1.0 - SQRT_PI * erfcx(1.0))
        assert lam(1j * tau, p) == pytest.approx(expected, rel=1e-13)
        assert complex(lam_imag_axis(tau, p)) == pytest.approx(expected, rel=1e-13)

    def test_imag_axis_matches_general_path(self, base_params, rng):
        taus = np.concatenate([rng.uniform(0.01, 14.0, 20),
                               rng.uniform(15.5, 200.0, 10)])
        direct = np.array([lam(1j * t, base_params) for t in taus])
        closed = lam_imag_axis(taus, base_params)
        assert np.all(np.abs(direct - closed) <= 1e-12 * np.abs(direct))

    def test_evenness(self, base_params, rng):
        for x, y in rng.uniform(-8, 8, size=(20, 2)):
            z = complex(x, y if abs(y) > 1e-2 else 0.3)
            a, b = lam(z, base_params), lam(-z, base_params)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_rejects_real_argument(self, base_params):
        with pytest.raises(DomainError):
            lam(0.5 + 0j, base_params)

    def test_vectorized_matches_scalar(self, base_params, rng):
        zs = np.array([complex(x, y) for x, y in rng.uniform(-30, 30, (20, 2))
                       if abs(y) > 1e-2])
        vals = lam_many(zs, base_params)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(lam(complex(z), base_params), rel=1e-14)


class TestBoundary:
    def test_unit_at_zero(self, base_params):
        bv = lam_boundary(0.0, base_params)
        assert bv.lambda_plus == 1.0 and bv.lambda_minus == 1.0

    def test_jump_formula(self, base_params):
        p = base_params
        bv = lam_boundary(1.0, p)
        expected = 2j * SQRT_PI * p.a * math.exp(-1.0)
        assert bv.lambda_plus - bv.lambda_minus == pytest.approx(expected, rel=1e-14)

    def test_plus_value_is_upper_limit(self, base_params):
        mu, delta = 0.7, 1e-7
        bv = lam_boundary(mu, base_params)
        approach = lam(complex(mu, delta), base_params)
        assert abs(bv.lambda_plus - approach) < 1e-5
        approach_lo = lam(complex(mu, -delta), base_params)
        assert abs(bv.lambda_minus - approach_lo) < 1e-5

    def test_jump_matches_limit_of_lam(self, base_params, rng):
        for mu in rng.uniform(-2.5, 2.5, 12):
            bv = lam_boundary(mu, base_params)
            d = 1e-6
            jump = lam(complex(mu, d), base_params) - lam(complex(mu, -d), base_params)
            have = bv.lambda_plus - bv.lambda_minus
            assert abs(jump - have) <= 1e-4 * max(abs(have), 1e-12)


class TestBoundaryArrays:
    MUS = np.linspace(-6.0, 6.0, 41)    # includes mu = 0

    @staticmethod
    def reference(mu, p):
        """lam_pm(mu) in 40 digits, with the principal value -2*D(mu)."""
        with mp.workdps(40):
            mu = mp.mpf(float(mu))
            a, b = mp.mpc(p.a), mp.mpc(p.b)
            dawson = mp.sqrt(mp.pi) / 2 * mp.exp(-mu * mu) * mp.erfi(mu)
            principal = 1 + b * mu**2 + a * mu**3 * (-2 * dawson)
            half_jump = 1j * mp.sqrt(mp.pi) * a * mu**3 * mp.exp(-mu * mu)
            return (complex(principal + half_jump),
                    complex(principal - half_jump))

    @pytest.mark.parametrize("point", [(1e-3, 1e-3, 1e-3), (0.1, 0.1, 0.5),
                                       (1.3, 1e-2, 0.3)])
    def test_matches_mpmath(self, point):
        p = make_params(*point)
        lp, lm = boundary_arrays(self.MUS, p)
        assert lp.shape == lm.shape == self.MUS.shape
        for mu, have_p, have_m in zip(self.MUS, lp, lm):
            want_p, want_m = self.reference(mu, p)
            assert abs(have_p - want_p) <= 1e-13 * abs(want_p), mu
            assert abs(have_m - want_m) <= 1e-13 * abs(want_m), mu


class TestLamPrime:
    def test_small_argument_is_small(self, base_params):
        assert abs(lam_prime(1e-8j, base_params)) < 1e-6

    def test_central_difference_agreement(self, base_params):
        z, h = 0.5 + 0.5j, 1e-6
        fd = (lam(z + h, base_params) - lam(z - h, base_params)) / (2.0 * h)
        exact = lam_prime(z, base_params)
        assert abs(exact - fd) <= 1e-6 * abs(exact)

    def test_far_field_branch_against_difference(self, base_params):
        z, h = 30.0 + 22.0j, 1e-4
        fd = (lam(z + h, base_params) - lam(z - h, base_params)) / (2.0 * h)
        exact = lam_prime(z, base_params)
        assert abs(exact - fd) <= 1e-7 * abs(exact)

    def test_oddness(self, base_params, rng):
        for x, y in rng.uniform(-20, 20, size=(15, 2)):
            z = complex(x, y if abs(y) > 1e-2 else 0.5)
            a = lam_prime(z, base_params)
            b = lam_prime(-z, base_params)
            assert abs(a + b) <= 1e-12 * abs(a)


class TestAsymptotic:
    def test_relative_deviation_at_10i(self, base_params):
        z = 10j
        exact = lam(z, base_params)
        assert abs(exact - lam_asymptotic(z, base_params)) <= 1e-6 * abs(exact)

    def test_truncation_order(self, base_params):
        # The first omitted term is O(z**-6), so the absolute remainder
        # shrinks by ~64 when |z| doubles.
        def dev(z):
            return abs(lam(z, base_params) - lam_asymptotic(z, base_params))

        ratio = dev(10j) / dev(20j)
        assert 64.0 / 3.0 < ratio < 64.0 * 3.0

    def test_leading_term_dominates(self, base_params):
        p = base_params
        z = 100j
        assert abs(lam(z, p) / ((p.b - p.a) * z * z) - 1.0) < 1e-3

    def test_rejects_small_argument(self, base_params):
        with pytest.raises(DomainError):
            lam_asymptotic(4j, base_params)


def test_zero_scale_estimate_brackets_zero(base_params):
    # Search-region sizing: the true zero modulus is within 2x the estimate.
    from plasmaskin import count_zeros, find_zeros

    p = base_params
    est = zero_scale_estimate(p)
    info = find_zeros(p, count_zeros(p))
    assert est / 2 <= abs(info.zeros[0]) <= est * 2
