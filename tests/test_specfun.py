"""Special-function layer: values against independent oracles, symmetry
and jump invariants."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from plasmaskin import DomainError, erfcx, gauss_hilbert, lambda0, p_func
from plasmaskin import specfun
from plasmaskin.specfun import SQRT_PI, gauss_hilbert_array

mp.mp.dps = 30

# exp(1)*erfc(1) from a 30-digit series evaluation, frozen:
ERFCX_1 = 0.42758357615580700441
# t(i) = i*sqrt(pi)*erfcx(1):
T_AT_I = 0.75787215614131210604j
# lambda0(i) = 1 - sqrt(pi)*erfcx(1):
LAMBDA0_AT_I = 0.24212784385868789396


def t_reference(z: complex) -> complex:
    """Arbitrary-precision reference for the Gaussian Hilbert transform."""
    z = mp.mpc(z)
    if mp.im(z) < 0:
        return complex(mp.conj(t_reference(complex(mp.conj(z)))))
    w = mp.exp(-z * z) * mp.erfc(-1j * z)
    return complex(1j * mp.sqrt(mp.pi) * w)


class TestGaussHilbert:
    def test_origin_vanishes(self):
        assert gauss_hilbert(0.0) == 0.0

    def test_value_at_i_against_quadrature(self):
        # Singularity-free real form: t(i) = i/sqrt(pi) * int e^{-u^2}/(1+u^2) du
        integral, err = quad(lambda u: math.exp(-u * u) / (1.0 + u * u),
                             -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-12
        expected = 1j * integral / SQRT_PI
        assert gauss_hilbert(1j) == pytest.approx(expected, rel=1e-13)
        assert gauss_hilbert(1j) == pytest.approx(T_AT_I, rel=1e-13)

    def test_schwarz_reflection_pair(self):
        a = gauss_hilbert(1 + 1j)
        b = gauss_hilbert(1 - 1j)
        assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_schwarz_reflection_random(self, rng):
        pts = rng.uniform(-6, 6, size=(120, 2))
        pts = pts[np.abs(pts[:, 1]) > 1e-3]
        assert len(pts) >= 100
        for x, y in pts:
            z = complex(x, y)
            a = gauss_hilbert(z.conjugate())
            b = gauss_hilbert(z).conjugate()
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_oddness(self, rng):
        for x, y in rng.uniform(-5, 5, size=(40, 2)):
            z = complex(x, y if abs(y) > 1e-2 else y + 0.1)
            assert gauss_hilbert(-z) == pytest.approx(-gauss_hilbert(z), rel=1e-13)

    def test_plemelj_jump_small_offset(self, rng):
        # |mu| <= 2.5 keeps the finite-offset error of the quotient
        # (which grows like exp(mu^2)*delta) well inside the tolerance.
        delta = 1e-6
        mus = np.concatenate([np.linspace(-2.5, 2.5, 11),
                              rng.uniform(-2.5, 2.5, 10)])
        for mu in mus:
            jump = gauss_hilbert(complex(mu, delta)) - gauss_hilbert(complex(mu, -delta))
            expected = 2j * SQRT_PI * math.exp(-mu * mu)
            assert abs(jump - expected) <= 1e-4 * abs(expected)

    def test_accuracy_disk_radius_20(self, rng):
        pts = [0.5 + 0.5j, 3 - 2j, -7 + 0.01j, 12 + 9j, 19.5 - 0.3j,
               0.05 + 4j, -14 - 2j]
        pts += [complex(x, y) for x, y in rng.uniform(-14, 14, size=(10, 2))
                if abs(y) > 1e-3]
        for z in pts:
            ref = t_reference(z)
            assert abs(gauss_hilbert(z) - ref) <= 1e-12 * abs(ref)

    def test_principal_value_on_axis(self):
        # PV against symmetric-limit quadrature at x = 0.8
        x = 0.8
        def integrand(u):
            return math.exp(-u * u) / (u - x)
        left, _ = quad(integrand, -np.inf, x - 1e-4, epsabs=1e-13, limit=200)
        right, _ = quad(integrand, x + 1e-4, np.inf, epsabs=1e-13, limit=200)
        # symmetric excision converges like d^1 * g'(x); refine once
        left2, _ = quad(integrand, -np.inf, x - 5e-5, epsabs=1e-13, limit=200)
        right2, _ = quad(integrand, x + 5e-5, np.inf, epsabs=1e-13, limit=200)
        extrap = 2 * (left2 + right2) - (left + right)
        assert gauss_hilbert(x) == pytest.approx(extrap / SQRT_PI, abs=1e-7)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            gauss_hilbert(complex(math.nan, 0.0))
        with pytest.raises(DomainError):
            gauss_hilbert(complex(1.0, math.inf))

    def test_array_matches_scalar(self, rng):
        zs = np.array([complex(x, y) for x, y in rng.uniform(-20, 20, (25, 2))])
        zs[0] = 0.3  # exercise the real-axis branch too
        vals = gauss_hilbert_array(zs)
        for z, v in zip(zs, vals):
            assert v == gauss_hilbert(complex(z))


class TestLambda0:
    def test_at_origin(self):
        assert lambda0(0.0) == 1.0

    def test_imaginary_axis_value(self):
        got = lambda0(1j)
        assert got.imag == 0.0
        assert got.real == pytest.approx(LAMBDA0_AT_I, rel=1e-13)
        # independent quadrature of u*e^{-u^2}/(u - i) = (u^2 + iu)e^{-u^2}/(u^2+1)
        integral, _ = quad(lambda u: u * u * math.exp(-u * u) / (u * u + 1.0),
                           -np.inf, np.inf, epsabs=1e-14)
        assert got.real == pytest.approx(integral / SQRT_PI, rel=1e-12)

    def test_imaginary_axis_is_real(self, rng):
        for tau in np.concatenate([rng.uniform(0.01, 30, 100), [1e-3, 5.0, 14.9, 15.1]]):
            assert abs(lambda0(1j * tau).imag) < 1e-13

    def test_far_field_decay(self):
        # lambda0 -> -1/(2 z^2): at 40i the value is ~1/3200
        val = lambda0(40j)
        assert abs(val) < 4e-4
        assert val.real == pytest.approx(1.0 / 3200.0, rel=2e-3)

    def test_crossover_continuity(self):
        # Faddeeva composition and moment series must agree near |z| = 15.
        for z in (14.999 + 3j, 10 + 11j, -14 - 4j):
            inner = 1.0 + z * gauss_hilbert(z)
            assert lambda0(z * (15.2 / abs(z))) is not None  # far field usable
            assert inner == pytest.approx(lambda0(z), rel=1e-11)

    def test_evenness(self, rng):
        for x, y in rng.uniform(-25, 25, size=(30, 2)):
            z = complex(x, y if abs(y) > 0.05 else 0.4)
            assert lambda0(-z) == pytest.approx(lambda0(z), rel=1e-12)

    def test_far_derivative_series_coefficients(self, rng):
        # The precomputed coefficients give the series summed with the
        # coefficients formed term by term, bit for bit.
        moments = specfun._MOMENTS
        z = 15.0 * np.exp(2j * np.pi * rng.uniform(size=64)) * rng.uniform(1, 50, 64)
        u = 1.0 / (z * z)
        acc = 0.0
        for k in range(len(moments), 1, -1):
            acc = acc * u + 2.0 * (k - 1) * moments[k - 1]
        assert np.array_equal(specfun._lambda0_deriv_comb_far(z), acc * u / z)


class TestErfcx:
    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_at_one_against_series_oracle(self):
        ref = float(mp.exp(1) * mp.erfc(1))
        assert erfcx(1.0) == pytest.approx(ref, rel=1e-14)
        assert erfcx(1.0) == pytest.approx(ERFCX_1, rel=1e-14)

    def test_large_argument_asymptote(self):
        assert 0.9998 <= erfcx(50.0) * 50.0 * SQRT_PI <= 1.0

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 8.0, 200)
        vals = [erfcx(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_consistency_with_erfc(self):
        for x in np.linspace(0.0, 5.0, 26):
            ref = float(mp.erfc(mp.mpf(float(x))))
            assert erfcx(float(x)) * math.exp(-x * x) == pytest.approx(ref, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            erfcx(-0.1)


class TestPFunc:
    def test_at_origin(self):
        assert p_func(0.0) == 0.0

    def test_composition_at_i(self):
        assert p_func(1j) == pytest.approx(-(1j**3) * gauss_hilbert(1j), rel=1e-14)
        assert p_func(1j).real == pytest.approx(-0.75787215614131211, rel=1e-13)

    def test_evenness_and_conjugation(self):
        assert p_func(-1j) == pytest.approx(p_func(1j), rel=1e-14)
        z = 1.3 + 0.7j
        assert p_func(z.conjugate()) == pytest.approx(p_func(z).conjugate(), rel=1e-13)
