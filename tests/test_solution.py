"""Expansion coefficients, field profiles, impedance, and the structural
identity residuals."""

import cmath
import math

import numpy as np
import pytest

from plasmaskin import (
    BoundaryProximityError,
    DomainError,
    SpectralDegeneracyError,
    analyze,
    check_residue_identity,
    compute_J,
    compute_J_many,
    compute_coefficients,
    continuum_coefficient,
    field_e,
    field_h,
    impedance,
    impedance_reduced_form,
    lam_boundary,
    make_params,
)
from plasmaskin import numerics, oracle, solution, spectrum
from plasmaskin.cli import _SWEEP_BLOCK
from plasmaskin.dispersion import (
    boundary_arrays,
    lam,
    lam_imag_axis,
    zero_scale_estimate,
)
from plasmaskin.numerics import (
    DEFAULT_QUAD,
    QuadratureSpec,
    integrate_semi_infinite,
)
from plasmaskin.solution import (
    _continuum_weight,
    _spike_breakpoints,
    e_prime_at_surface,
    identity_residuals,
    residual_coefficient_constant,
    residual_field_normalization,
)
from plasmaskin.specfun import SQRT_PI


class TestComputeJ:
    def test_half_and_full_axis_forms_agree(self, base_params):
        p = base_params
        J = compute_J(p)
        # Full-axis form via two genuinely separate evaluation paths for
        # the two half lines (closed form for tau > 0, general complex
        # formula for tau < 0 through lam(i*tau) = lam(-i*|tau|)).
        half_pos = integrate_semi_infinite(lambda t: 1.0 / lam_imag_axis(t, p))
        from plasmaskin.dispersion import lam_many
        half_neg = integrate_semi_infinite(
            lambda t: 1.0 / lam_many(-1j * np.asarray(t), p))
        full = (half_pos + half_neg) / (2.0 * math.pi)
        assert abs(full - J) <= 1e-12 * abs(J)

    def test_dual_evaluation_paths(self, base_params):
        J1 = compute_J(base_params, path="erfcx")
        J2 = compute_J(base_params, path="complex")
        assert abs(J1 - J2) <= 1e-9 * abs(J1)

    def test_base_point_value_finite(self, base_coeffs):
        J = base_coeffs.J
        assert cmath.isfinite(J) and abs(J) > 0.1

    def test_small_vc_degeneration(self, base_params):
        # As v_c -> 0 the dispersion function tends to 1 and J diverges
        # like the length of the flat region.
        J_base = compute_J(base_params)
        J_tiny = compute_J(make_params(1e-3, 1e-3, 1e-8))
        assert abs(J_tiny) > 1e3 * abs(J_base)


class TestComputeJMany:
    _TIGHT = QuadratureSpec(rel_tol=1e-14)

    @pytest.mark.parametrize("ps", [
        [make_params(float(g), 1e-3, 1e-3) for g in np.linspace(0.9, 1.1, 64)],
        # A sweep_wide-like block: six log-spaced gammas over a quarter decade.
        [make_params(float(g), 3e-4, 0.05) for g in np.geomspace(0.2, 0.356, 6)],
    ], ids=["resonance", "log_block"])
    def test_blocks_match_tight_reference(self, ps):
        ref = np.array([compute_J(p, self._TIGHT) for p in ps])
        blocks = np.concatenate([compute_J_many(ps[i:i + _SWEEP_BLOCK])
                                 for i in range(0, len(ps), _SWEEP_BLOCK)])
        per_row = np.array([compute_J(p) for p in ps])
        blk_err = np.max(np.abs(blocks - ref) / np.abs(ref))
        row_err = np.max(np.abs(per_row - ref) / np.abs(ref))
        assert blk_err <= 1e-10
        # No worse than one quadrature per row, or within the tolerance.
        assert blk_err <= max(row_err, DEFAULT_QUAD.rel_tol)

    @pytest.mark.parametrize("point", [(1e-3, 1e-3, 1e-3), (0.5, 1e-3, 1e-3),
                                       (0.95, 1e-4, 0.3), (1.3, 1e-2, 0.3)])
    def test_single_point_is_compute_J_bit_for_bit(self, point):
        p = make_params(*point)
        J = compute_J(p)
        assert J == compute_J_many([p])[0]
        # The single-point recipe, spelled out: a scalar integrand on the
        # point's own scale and spike breakpoints.
        scale = max(1.0, zero_scale_estimate(p))
        val = integrate_semi_infinite(lambda t: 1.0 / lam_imag_axis(t, p),
                                      scale=scale,
                                      breakpoints=_spike_breakpoints([p], [scale]))
        assert J == val / math.pi

    def test_degenerate_row_is_named(self, monkeypatch):
        # |lam(i*tau)| dips to 0.013 at gamma = 0.95 and stays >= 1 above
        # the resonance; a floor of 0.5 rejects only the first row.
        monkeypatch.setattr(solution, "_LAM_FLOOR", 0.5)
        ps = [make_params(g, 1e-3, 1e-3) for g in (1.0, 0.95, 1.05)]
        with pytest.raises(SpectralDegeneracyError, match="gamma = 0.9499"):
            compute_J_many(ps)
        compute_J_many([ps[0], ps[2]])

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            compute_J_many([])


def _loop_minima(xs, mods, below=math.inf):
    """The point-by-point local-minimum scan (the reference)."""
    return [xs[i] for i in range(1, len(xs) - 1)
            if mods[i] < mods[i - 1] and mods[i] < mods[i + 1]
            and mods[i] < below]


def test_spike_breakpoints_match_loop_scan():
    points = [(float(g), 1e-3, 1e-3) for g in np.linspace(0.9, 1.1, 200)]
    points += [(0.3, 1e-2, 0.1), (0.5, 1e-4, 0.3), (1.5, 1e-3, 0.3)]
    for point in points:
        p = make_params(*point)
        scale = max(1.0, zero_scale_estimate(p))
        taus = np.geomspace(1e-3 * scale, 1e3 * scale, 600)
        ref = _loop_minima(taus, np.abs(lam_imag_axis(taus, p)), below=0.5)
        assert list(_spike_breakpoints([p], [scale])) == ref


@pytest.mark.parametrize("grid", [np.linspace(0.9, 1.1, 401),
                                  np.geomspace(0.01, 2.0, 401)])
def test_block_spike_scan_matches_rows(grid):
    # One scan for a sweep block gives each row's minima, bit for bit.
    ps = [make_params(float(g), 1e-3, 1e-3) for g in grid]
    scales = [max(1.0, zero_scale_estimate(p)) for p in ps]
    for i in range(0, len(ps), _SWEEP_BLOCK):
        rows = [_spike_breakpoints([p], [s])
                for p, s in zip(ps[i:i + _SWEEP_BLOCK], scales[i:i + _SWEEP_BLOCK])]
        block = _spike_breakpoints(ps[i:i + _SWEEP_BLOCK],
                                   scales[i:i + _SWEEP_BLOCK])
        assert np.array_equal(block, np.concatenate(rows))


class TestCoefficients:
    def test_c1_identity(self, panel):
        for p, coeffs in panel:
            assert abs(coeffs.C1 * p.a * p.z0 * coeffs.J - 1.0) < 1e-12

    def test_discrete_weight_identity(self, panel):
        # B_k * (-a*z0*J*lam'(eta_k)/sqrt(pi)) = 1, the stable folding of
        # the raw normalization A_k*(-a*z0*J*eta_k^2*lam'*e^{-eta_k^2}/sqrt(pi)).
        for p, coeffs in panel:
            for bk, d in zip(coeffs.discrete_weights,
                             coeffs.spectrum.lambda_prime_at_zeros):
                val = bk * (-p.a * p.z0 * coeffs.J * d / SQRT_PI)
                assert abs(val - 1.0) < 1e-10

    def test_raw_amplitude_identity_where_representable(self, base_params, base_coeffs):
        p, coeffs = base_params, base_coeffs
        for ak, eta, d in zip(coeffs.A_discrete, coeffs.spectrum.zeros,
                              coeffs.spectrum.lambda_prime_at_zeros):
            val = ak * (-p.a * p.z0 * coeffs.J * eta**2 * d
                        * cmath.exp(-eta * eta) / SQRT_PI)
            assert abs(val - 1.0) < 1e-10

    def test_raw_amplitude_saturates_for_deep_zeros(self):
        # gamma = 1.3: Re(eta0^2) ~ +2.4e6, exp overflows -> inf sentinel;
        # gamma = 0.9: Re(eta0^2) ~ -4.3e6, exp underflows -> exactly 0.
        over = compute_coefficients(make_params(1.3, 1e-3, 1e-3))
        assert any(not cmath.isfinite(a) for a in over.A_discrete)
        under = compute_coefficients(make_params(0.9, 1e-3, 1e-3))
        assert any(a == 0.0 for a in under.A_discrete)

    def test_two_pair_region_identities_and_diagnostic(self):
        p = make_params(0.1, 0.1, 0.5)
        coeffs = compute_coefficients(p)
        assert coeffs.spectrum.n_zeros == 4
        # one constant must cancel both poles; the two reconstructions
        # agree to rounding and all identities still close
        assert coeffs.c1_split_difference < 1e-12
        assert residual_field_normalization(coeffs, p) < 1e-6
        assert residual_coefficient_constant(coeffs, p) < 1e-6
        assert check_residue_identity(2j, coeffs, p) < 1e-8

    def test_field_normalization_residual(self, panel):
        for p, coeffs in panel:
            assert residual_field_normalization(coeffs, p) < 1e-6

    def test_coefficient_constant_residual(self, panel):
        for p, coeffs in panel:
            assert residual_coefficient_constant(coeffs, p) < 1e-6


class TestContinuumCoefficient:
    def test_odd_extension_sign(self, base_params, base_coeffs):
        # The defining jump factor flips sign under eta -> -eta, so the
        # product form must satisfy A(-eta) = -A(eta) when extended.
        p, coeffs = base_params, base_coeffs
        eta = 0.8
        bv = lam_boundary(eta, p)
        bv_m = lam_boundary(-eta, p)
        # boundary values swap under reflection: lam_+(-eta) = lam_-(eta)
        assert bv_m.lambda_plus == pytest.approx(bv.lambda_minus, rel=1e-14)
        direct = -coeffs.C1 * p.a * (-eta) / (bv_m.lambda_plus * bv_m.lambda_minus)
        assert direct == pytest.approx(-continuum_coefficient(eta, coeffs, p),
                                       rel=1e-14)

    def test_jump_form_equivalence(self, base_params, base_coeffs):
        # A(eta) = C1*e^{eta^2}/(2*sqrt(pi)*i*eta^2) * [1/lam_+ - 1/lam_-]
        p, coeffs = base_params, base_coeffs
        for eta in (0.3, 1.0, 2.5):
            bv = lam_boundary(eta, p)
            jump_form = (coeffs.C1 * math.exp(eta * eta)
                         / (2j * SQRT_PI * eta * eta)
                         * (1.0 / bv.lambda_plus - 1.0 / bv.lambda_minus))
            assert continuum_coefficient(eta, coeffs, p) == pytest.approx(
                jump_form, rel=1e-12)

    def test_linear_vanishing_at_origin(self, base_params, base_coeffs):
        a1 = continuum_coefficient(1e-6, base_coeffs, base_params)
        a2 = continuum_coefficient(2e-6, base_coeffs, base_params)
        assert abs(a2 / a1 - 2.0) < 1e-4

    def test_tail_decay_of_weighted_coefficient(self, base_params, base_coeffs):
        w = lambda eta: (eta**2 * math.exp(-eta * eta)
                         * continuum_coefficient(eta, base_coeffs, base_params))
        assert abs(w(5.0)) < 1e-8 * abs(w(1.0))

    def test_rejects_nonpositive(self, base_params, base_coeffs):
        with pytest.raises(DomainError):
            continuum_coefficient(0.0, base_coeffs, base_params)


class TestFieldE:
    def test_surface_value(self, panel):
        for p, coeffs in panel:
            e0 = field_e(np.array([0.0]), coeffs, p).e_values[0]
            assert abs(e0 - 1.0) < 1e-6

    def test_deep_decay(self, base_params, base_coeffs):
        prof = field_e(np.array([0.0, 20.0]), base_coeffs, base_params)
        assert abs(prof.e_values[1]) < 1e-6 * abs(prof.e_values[0])

    def test_envelope_decreasing(self, base_params, base_coeffs):
        xs = np.linspace(0.0, 8.0, 17)
        prof = field_e(xs, base_coeffs, base_params)
        mods = np.abs(prof.e_values)
        assert np.all(mods[1:] <= 1.2 * mods[:-1])
        assert mods[-1] < mods[0]

    def test_scales_with_surface_field(self, base_params):
        c1 = compute_coefficients(base_params)
        c2 = compute_coefficients(base_params, e_s=2.0)
        xs = np.array([0.0, 1.0, 3.0])
        e1 = field_e(xs, c1, base_params).e_values
        e2 = field_e(xs, c2, base_params).e_values
        assert np.allclose(e2, 2.0 * e1, rtol=1e-12)

    def test_rejects_negative_depth(self, base_params, base_coeffs):
        with pytest.raises(DomainError):
            field_e(np.array([-1.0]), base_coeffs, base_params)

    @pytest.mark.parametrize("point", [(0.5, 1e-3, 0.3), (1.0, 0.1, 0.5)])
    def test_shared_panels_match_per_depth_integrals(self, point):
        # Reference: one scalar adaptive integral per depth, converged
        # against the continuum alone (the stricter test).  Compared in
        # units of e/(a*z0/sqrt(pi)), the quantity abs_tol applies to.
        p = make_params(*point)
        coeffs = compute_coefficients(p)
        xs = np.array([0.0, 1e-3, 1e-2, 0.1, 0.5, 2.0, 8.0])
        pref = p.a * p.z0 / SQRT_PI
        shared = field_e(xs, coeffs, p).e_values / pref
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16)
        for x, got in zip(xs, shared):
            disc = sum(bk * cmath.exp(-p.z0 * x / eta) for bk, eta in
                       zip(coeffs.discrete_weights, coeffs.spectrum.zeros))

            def integrand(eta, x=x):
                return _continuum_weight(eta, coeffs, p) * np.exp(-p.z0 * x / eta)

            bps = [(0.5 * x) ** (1.0 / 3.0)] if x > 0 else []
            ref = disc + integrate_semi_infinite(integrand, spec, scale=2.0,
                                                 breakpoints=bps)
            assert abs(got - ref) <= 2e-9 * abs(ref) + 2e-16

    def test_error_control_relative_to_e_at_small_epsilon(self):
        # The continuum is a tiny part of e(x) here; converging it
        # against itself used to exhaust the budget at every x > 0.
        for gamma in (1.0, 2.0):
            p = make_params(gamma, 1e-4, 1e-3)
            coeffs = compute_coefficients(p)
            prof = field_e(np.array([0.0, 1.0, 5.0, 20.0]), coeffs, p)
            assert abs(prof.e_values[0] - 1.0) < 1e-6
            assert np.all(np.isfinite(prof.e_values))


@pytest.fixture(scope="module")
def points(panel):
    """The panel points plus an N = 4 point."""
    p = make_params(0.1, 0.1, 0.5)
    return list(panel) + [(p, compute_coefficients(p))]


# The selfcheck's (0, +-mu) pairs, and depth pairs over both signs of mu
# and mu near 0.  Each value should lie within rel_tol*|h| of a tight run.
_H_MUS = np.array([0.3, 1.0, 2.2, -0.3, -1.0, -2.2])
_H_SURFACE = (np.zeros(6), _H_MUS)
_H_DEPTH = np.meshgrid([1e-3, 0.1, 1.0, 5.0],
                       np.append(_H_MUS, [0.05, 1e-6, 0.0]))
_TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=20000)
# At gamma = 0.5 (points[1]) exp(-z0*x/eta) turns ~30 times across a
# panel at x >= 1, and the |K15 - G7| bound of such a panel can be
# smaller than its error: calls stop at 1.2-2.6x their tolerance.
_DEPTH_CASES = [0, pytest.param(1, marks=pytest.mark.xfail(
    strict=True, reason="error bound not conservative on unresolved "
    "oscillation")), 2, 3, 4, 5]


class TestFieldH:
    def test_specular_reflection(self, panel):
        for p, coeffs in panel:
            for mu in (0.3, 1.0, 2.2):
                hp = field_h(0.0, mu, coeffs, p)
                hm = field_h(0.0, -mu, coeffs, p)
                assert abs(hp - hm) < 1e-5 * max(1.0, abs(hp))

    def test_decay_in_depth(self, base_params, base_coeffs):
        h0 = field_h(0.0, 0.5, base_coeffs, base_params)
        h20 = field_h(20.0, 0.5, base_coeffs, base_params)
        assert abs(h20) < 1e-6 * abs(h0)

    def test_linearity_in_amplitude(self, base_params):
        c1 = compute_coefficients(base_params)
        c2 = compute_coefficients(base_params, e_s=2.0)
        for x, mu in ((0.0, 0.7), (1.5, -1.2)):
            assert field_h(x, mu, c2, base_params) == pytest.approx(
                2.0 * field_h(x, mu, c1, base_params), rel=1e-10)

    def test_rejects_collision_with_zero_real_part(self, base_params, base_coeffs):
        mu = base_coeffs.spectrum.zeros[0].real
        with pytest.raises(DomainError):
            field_h(0.0, mu, base_coeffs, base_params)
        with pytest.raises(DomainError, match="coincides"):
            field_h(1.0, [0.5, mu], base_coeffs, base_params)

    @pytest.mark.parametrize("x, mu", [
        ([], 0.5), (np.zeros(2), np.ones(3)), ([0.0, -1.0], 0.5),
        (0.0, [0.5, math.nan]), (math.inf, 0.5)])
    def test_rejects_malformed_pairs(self, base_params, base_coeffs, x, mu):
        with pytest.raises(DomainError):
            field_h(x, mu, base_coeffs, base_params)

    # Positive mu this small used to overflow in the quadrature (a
    # RuntimeWarning, then QuadratureError); it is rejected up front.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", [5e-324, 1e-310, [0.5, 1e-305]])
    def test_rejects_tiny_positive_mu(self, panel, mu):
        p, coeffs = panel[3]
        with pytest.raises(DomainError, match="positive mu"):
            field_h(0.0, mu, coeffs, p)

    @pytest.mark.filterwarnings("error")
    def test_tiny_mu_continuous_at_zero(self, panel):
        p, coeffs = panel[3]
        h = field_h(0.0, [-5e-324, 0.0, 1e-299], coeffs, p)
        assert np.all(np.abs(h - h[1]) <= 1e-9 * abs(h[1]))

    def test_pairs_broadcast(self, base_params, base_coeffs):
        h = field_h(0.0, 0.5, base_coeffs, base_params)
        assert type(h) is complex
        grid = field_h([[0.0], [1.0]], [0.5, -0.5, 2.0], base_coeffs,
                       base_params)
        assert grid.shape == (2, 3) and grid.dtype == complex

    def test_array_call_matches_scalar_calls_at_the_surface(self, points):
        # One shared panel set against one quadrature per pair: both
        # converge to 1e-9 of h, and on the surface both resolve h far
        # below that.
        for p, coeffs in points:
            h = field_h(*_H_SURFACE, coeffs, p)
            ref = np.array([field_h(0.0, mu, coeffs, p) for mu in _H_MUS])
            assert np.all(np.abs(h - ref) <= 1e-11 * np.abs(ref)), p.gamma

    def test_surface_within_tolerance_of_a_tight_run(self, points):
        mus = np.append(_H_MUS, [0.05, 1e-6, 0.0])
        for p, coeffs in points:
            h = field_h(0.0, mus, coeffs, p)
            ref = field_h(0.0, mus, coeffs, p, _TIGHT)
            assert np.all(np.abs(h - ref) <= 1e-9 * np.abs(ref) + 1e-16), p.gamma

    @pytest.mark.parametrize("k", _DEPTH_CASES)
    def test_array_call_matches_scalar_calls_at_depth(self, points, k):
        p, coeffs = points[k]
        h = field_h(*_H_DEPTH, coeffs, p)
        ref = np.array([[field_h(x, mu, coeffs, p) for x, mu in zip(*row)]
                        for row in zip(*_H_DEPTH)])
        assert np.all(np.abs(h - ref) <= 2e-9 * np.abs(ref) + 2e-16)

    @pytest.mark.parametrize("k", _DEPTH_CASES)
    def test_depth_within_tolerance_of_a_tight_run(self, points, k):
        p, coeffs = points[k]
        h = field_h(*_H_DEPTH, coeffs, p)
        ref = field_h(*_H_DEPTH, coeffs, p, _TIGHT)
        assert np.all(np.abs(h - ref) <= 1e-9 * np.abs(ref) + 1e-16)


class TestImpedance:
    def test_z_is_r_times_z0(self, panel):
        for p, _ in panel:
            res = impedance(p)
            assert res.Z == res.R * res.Z0  # exact by construction
            assert res.R > 0.0

    def test_dimensional_scale_only_affects_z_and_r(self, base_params):
        a = impedance(base_params, c_light=1.0)
        b = impedance(base_params, c_light=3.0e10)
        assert a.Z0 == b.Z0
        assert b.R == pytest.approx(a.R / 3.0e10, rel=1e-15)

    def test_surface_slope_chain(self, panel):
        # Z must equal 4*pi*i*Q*e_s/(c*e'(0)) with e'(0) = -z0/(2J): same
        # J, pure plumbing, so the agreement is at rounding level.
        for p, coeffs in panel:
            z_direct = impedance(p, J=coeffs.J).Z
            z_chain = 4j * math.pi * p.Q * coeffs.e_s / e_prime_at_surface(coeffs, p)
            assert abs(z_direct - z_chain) <= 1e-12 * abs(z_direct)

    def test_dual_form_agreement(self, panel):
        for p, _ in panel:
            za = impedance(p).Z
            zr = impedance_reduced_form(p).Z
            assert abs(za - zr) <= 1e-9 * abs(za)

    def test_collision_dominated_limit(self):
        # epsilon >> 1, gamma << 1: the classical local response, where
        # the dimensionless impedance tends to 1 - i.  Finite-parameter
        # corrections enter at O(gamma*epsilon), here 5e-4.
        p = make_params(1e-5, 50.0, 1e-3)
        z0 = impedance(p).Z0
        assert z0 == pytest.approx(1.0 - 1.0j, rel=2e-3)

    def test_invariant_under_surface_scaling(self, base_params):
        res = impedance(base_params)
        c2 = compute_coefficients(base_params, e_s=2.0)
        z_chain = 4j * math.pi * base_params.Q * c2.e_s / e_prime_at_surface(
            c2, base_params)
        assert abs(res.Z - z_chain) <= 1e-12 * abs(res.Z)


class TestResolventIdentity:
    def test_at_2i(self, panel):
        for p, coeffs in panel:
            assert check_residue_identity(2j, coeffs, p) < 1e-8

    def test_near_origin_limit(self, base_params, base_coeffs):
        r = check_residue_identity(1e-6 * (1 + 1j), base_coeffs, base_params)
        assert r < 1e-6

    def test_quadrature_refinement_invariance(self, base_params, base_coeffs):
        loose = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=4000)
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=8000)
        r1 = check_residue_identity(2j, base_coeffs, base_params, loose)
        r2 = check_residue_identity(2j, base_coeffs, base_params, tight)
        assert abs(r1 - r2) < 1e-10

    def test_rejects_points_on_axis_or_at_zeros(self, base_params, base_coeffs):
        with pytest.raises(DomainError):
            check_residue_identity(1.0 + 0j, base_coeffs, base_params)
        with pytest.raises(DomainError):
            check_residue_identity(base_coeffs.spectrum.zeros[0],
                                   base_coeffs, base_params)


def _separate_identities(coeffs, p, z=2j):
    """The three identity residuals, each from its own scalar quadrature."""
    spec = solution._IDENTITY_QUAD
    zeros = coeffs.spectrum.zeros
    derivs = coeffs.spectrum.lambda_prime_at_zeros

    def recip_jump(eta):    # 1/lam_plus - 1/lam_minus, cancellation-free
        lp, lm = boundary_arrays(eta, p)
        return -2j * SQRT_PI * p.a * eta**3 * np.exp(-eta * eta) / (lp * lm)

    target = coeffs.e_s / (p.a * p.z0)
    cont = integrate_semi_infinite(lambda e: _continuum_weight(e, coeffs, p),
                                   spec, scale=2.0)
    e0 = (sum(coeffs.discrete_weights) + cont) / SQRT_PI
    jump = integrate_semi_infinite(recip_jump, spec, scale=2.0)
    J = -sum(1.0 / d for d in derivs) + jump / (2j * math.pi)
    J_target = target / coeffs.C1
    folded = integrate_semi_infinite(
        lambda e: recip_jump(e) * 2.0 * e / (e * e - z * z), spec, scale=2.0)
    rhs = folded / (2j * math.pi) - sum(
        2.0 * eta / ((eta * eta - z * z) * d) for eta, d in zip(zeros, derivs))
    lhs = 1.0 / lam(z, p)
    return {
        "field_normalization": abs(e0 - target) / abs(target),
        "coefficient_constant": abs(J - J_target) / abs(J_target),
        "resolvent": abs(lhs - rhs) / abs(lhs),
    }


class TestIdentityResiduals:
    """The one-pass vector quadrature against three separate ones."""

    def test_matches_separate_quadratures(self, points):
        for p, coeffs in points:
            res = identity_residuals(coeffs, p)
            ref = _separate_identities(coeffs, p)
            assert res.keys() == ref.keys()
            for name in ref:
                assert abs(res[name] - ref[name]) < 1e-12, (p.gamma, name)

    def test_views_are_entries(self, points):
        for p, coeffs in points:
            res = identity_residuals(coeffs, p)
            assert residual_field_normalization(coeffs, p) == res["field_normalization"]
            assert residual_coefficient_constant(coeffs, p) == res["coefficient_constant"]
            assert check_residue_identity(2j, coeffs, p) == res["resolvent"]


# Integrand calls at the panel points (conftest.PANEL_GAMMAS), about 1.5x
# what the batched rounds make.  One panel at a time made 11-72 for J,
# 32-127 for the Fourier impedance, 15 for the identities and 13-931 for
# field_e, and six one-pair field_h calls made 18-31, so a return to
# either fails here without any timing.
_CALL_BOUNDS = {
    "compute_J": (15, 18, 18, 6, 9),
    "fourier_impedance": (21, 26, 29, 36, 45),
    "identity_residuals": (8, 8, 8, 8, 8),
    "field_e": (15, 24, 3, 3, 3),
    "field_h": (3, 3, 3, 3, 3),
}


def test_integrand_calls_stay_batched(panel, monkeypatch):
    calls = []
    quad = numerics.integrate_finite

    def counted(f, *args, **kwargs):
        def g(x):
            calls.append(np.size(x))
            return f(x)
        return quad(g, *args, **kwargs)

    for module in (numerics, oracle):
        monkeypatch.setattr(module, "integrate_finite", counted)
    xs = np.geomspace(1e-3, 20.0, 12)
    for k, (p, coeffs) in enumerate(panel):
        stages = {"compute_J": lambda: compute_J(p),
                  "fourier_impedance": lambda: oracle.fourier_impedance(p),
                  "identity_residuals": lambda: identity_residuals(coeffs, p),
                  "field_e": lambda: field_e(xs, coeffs, p),
                  "field_h": lambda: field_h(*_H_SURFACE, coeffs, p)}
        for name, run in stages.items():
            calls.clear()
            run()
            assert len(calls) <= _CALL_BOUNDS[name][k], (name, p.gamma, len(calls))


# (gamma, epsilon, v_c) -> windings, integrand calls and points that
# analyze evaluates: the strip and the first search rectangle at the
# panel points, the subdivision of an N = 4 point, and the refinement of
# a strip that ends in a count of 0 near the spectral boundary.
_WINDING_WORK = {
    **{(g, 1e-3, 1e-3): (2, 2, 602) for g in (0.1, 0.5, 0.9, 1.0, 1.3)},
    (0.1, 0.1, 0.5): (16, 19, 1952),
    (1.286, 1e-3, 0.5): (1, 5, 426),
}


@pytest.mark.parametrize("point", sorted(_WINDING_WORK), ids=str)
def test_winding_work_is_pinned(point, monkeypatch):
    windings, sizes = [], []
    winding = spectrum.winding_number

    def counted(f, points, **kwargs):
        def g(z):
            sizes.append(np.size(z))
            return f(z)
        windings.append(points)
        return winding(g, points, **kwargs)

    monkeypatch.setattr(spectrum, "winding_number", counted)
    p = make_params(*point)
    if point == (1.286, 1e-3, 0.5):
        with pytest.raises(BoundaryProximityError, match="came out 0"):
            analyze(p)
    else:
        analyze(p)
    assert (len(windings), len(sizes), sum(sizes)) == _WINDING_WORK[point]
