"""Quadrature, principal values, Newton, and winding numbers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from plasmaskin import (
    ContourZeroError,
    DomainError,
    NewtonError,
    PathSegment,
    QuadratureError,
    QuadratureSpec,
    integrate_finite,
    integrate_principal_value,
    integrate_semi_infinite,
    newton_refine,
    winding_number,
)
from plasmaskin.numerics import _sample_path, rectangle_path

TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=4000)


def circle(radius=1.0, center=0j, samples=64):
    pts = [center + radius * np.exp(2j * math.pi * k / 8) for k in range(8)]
    return [PathSegment(a, b, samples) for a, b in zip(pts, pts[1:] + pts[:1])]


class TestSemiInfinite:
    def test_exponential(self):
        val = integrate_semi_infinite(lambda t: np.exp(-t), TIGHT)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_lorentzian(self):
        val = integrate_semi_infinite(lambda t: 1.0 / (1.0 + t * t), TIGHT)
        assert val == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_determinism(self):
        f = lambda t: np.exp(-t) * np.cos(3 * t)
        a = integrate_semi_infinite(f)
        b = integrate_semi_infinite(f)
        assert a == b  # bit-identical

    def test_budget_error_carries_estimate(self):
        starving = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=2)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda t: 1.0 / (1.0 + t**2.000001), starving)
        assert err.value.estimate == pytest.approx(math.pi / 2, rel=1e-3)
        assert err.value.error_bound > 0


class TestFinite:
    def test_polynomial_exact(self):
        val = integrate_finite(lambda x: 3 * x * x, 0.0, 2.0, TIGHT)
        assert val == pytest.approx(8.0, abs=1e-13)

    def test_breakpoints_help_kinks(self):
        f = lambda x: np.abs(x - 0.3)
        val = integrate_finite(f, 0.0, 1.0, TIGHT, breakpoints=(0.3,))
        assert val == pytest.approx(0.5 * 0.3**2 + 0.5 * 0.7**2, abs=1e-13)

    def test_constant_integrand(self):
        assert integrate_finite(lambda x: 2.0, 0.0, 3.0) == pytest.approx(6.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: x, 1.0, 1.0)


def _three(x):
    """Vector integrand: one column per component."""
    x = np.asarray(x)
    return np.stack([np.exp(-x), 1.0 / (1.0 + x * x),
                     np.exp(-x) * np.cos(3.0 * x)], axis=-1)


class TestVectorIntegrand:
    def test_components_equal_scalar_integrals(self):
        vec = integrate_semi_infinite(_three, TIGHT)
        assert vec.shape == (3,)
        for k in range(3):
            scalar = integrate_semi_infinite(lambda t: _three(t)[:, k], TIGHT)
            assert abs(vec[k] - scalar) <= 1e-12 * abs(scalar)
        assert vec == pytest.approx([1.0, math.pi / 2.0, 0.1], abs=1e-12)

    def test_finite_components_equal_scalar_integrals(self):
        vec = integrate_finite(_three, 0.0, 5.0, TIGHT, breakpoints=(1.0,))
        for k in range(3):
            scalar = integrate_finite(lambda t: _three(t)[:, k], 0.0, 5.0,
                                      TIGHT, breakpoints=(1.0,))
            assert abs(vec[k] - scalar) <= 1e-12 * abs(scalar)

    def test_small_component_is_not_starved(self):
        # The second component is 1e-12 of the first.  Splitting by
        # absolute error would keep refining the first one's peak at
        # x = 0 long after it converged, and exhaust the budget.
        def f(x):
            x = np.asarray(x)
            return np.stack([1.0 / (x + 1e-3), 1e-12 * np.sin(40.0 * x)],
                            axis=-1)

        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0, max_subdivisions=100)
        vec = integrate_finite(f, 0.0, 1.0, spec)
        exact = [math.log(1001.0), 1e-12 * (1.0 - math.cos(40.0)) / 40.0]
        for got, want in zip(vec, exact):
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_repeated_calls_bit_identical(self):
        a = integrate_semi_infinite(_three)
        b = integrate_semi_infinite(_three)
        assert np.array_equal(a, b)
        offset = np.array([1.0, -2.0, 0.5j])
        c = integrate_finite(_three, 0.0, 3.0, offset=offset)
        d = integrate_finite(_three, 0.0, 3.0, offset=offset)
        assert np.array_equal(c, d)

    def test_budget_error_carries_estimate_and_bound(self):
        starving = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=2)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(_three, starving)
        est, bound = err.value.estimate, err.value.error_bound
        assert est.shape == bound.shape == (3,)
        assert est == pytest.approx([1.0, math.pi / 2.0, 0.1], abs=1e-2)
        assert np.all(bound > 0.0)


class TestOutputRelativeTolerance:
    # A wiggle 1e-12 the size of the quantity it is added to.
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=0.0, max_subdivisions=50)

    @staticmethod
    def wiggle(x):
        return 1e-12 * np.sin(2000.0 * np.asarray(x))

    def test_without_offset_the_budget_runs_out(self):
        with pytest.raises(QuadratureError):
            integrate_finite(self.wiggle, 0.0, 1.0, self.spec)

    def test_offset_sets_the_scale(self):
        val = integrate_finite(self.wiggle, 0.0, 1.0, self.spec, offset=1.0)
        exact = 1e-12 * (1.0 - math.cos(2000.0)) / 2000.0
        assert abs(val - exact) <= 1e-9

    def test_per_component_offset(self):
        def f(x):
            return np.stack([self.wiggle(x), np.exp(-np.asarray(x))], axis=-1)

        val = integrate_finite(f, 0.0, 1.0, self.spec, offset=np.array([1.0, 0.0]))
        assert val[1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)


class TestPrincipalValue:
    def test_constant_numerator_symmetric(self):
        val = integrate_principal_value(lambda x: np.ones_like(x), 0.0, -1.0, 1.0, TIGHT)
        assert abs(val) < 1e-13

    def test_linear_numerator(self):
        val = integrate_principal_value(lambda x: np.asarray(x), 0.0, -1.0, 1.0, TIGHT)
        assert val == pytest.approx(2.0, abs=1e-13)

    def test_gaussian_against_excision_limit(self):
        g = lambda x: np.exp(-np.asarray(x) ** 2)
        pole, a, b = 0.5, -3.0, 3.0
        val = integrate_principal_value(g, pole, a, b, TIGHT)

        def excised(d):
            left, _ = quad(lambda x: math.exp(-x * x) / (x - pole), a, pole - d,
                           epsabs=1e-14, limit=300)
            right, _ = quad(lambda x: math.exp(-x * x) / (x - pole), pole + d, b,
                            epsabs=1e-14, limit=300)
            return left + right

        # symmetric excision error is O(d); Richardson-extrapolate d -> 0
        e1, e2 = excised(1e-3), excised(5e-4)
        oracle = 2 * e2 - e1
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_pole_outside_rejected(self):
        with pytest.raises(DomainError):
            integrate_principal_value(lambda x: np.ones_like(x), 2.0, -1.0, 1.0)


class TestNewton:
    def test_known_quadratic_root(self):
        root = newton_refine(lambda z: z * z + 1.0, lambda z: 2.0 * z,
                             0.2 + 0.8j)
        assert root == pytest.approx(1j, abs=1e-12)

    def test_linear_one_step(self):
        root = newton_refine(lambda z: z - 1.0, lambda z: 1.0 + 0j, 57.0)
        assert root == pytest.approx(1.0, abs=1e-14)

    def test_residual_contract(self):
        f = lambda z: (z - 2.0) * (z + 3.0)
        fp = lambda z: 2.0 * z + 1.0
        root = newton_refine(f, fp, 1.5)
        assert abs(f(root)) < 1e-13
        assert abs(f(root)) < 1e-14 * max(1.0, abs(fp(root)) * abs(root))

    def test_divergence_reports_trace(self):
        # On the real axis the iteration for +-i never settles.
        with pytest.raises(NewtonError) as err:
            newton_refine(lambda z: z * z + 1.0, lambda z: 2.0 * z,
                          10.0 + 0j, max_iter=3)
        assert "no convergence within 3" in str(err.value)
        assert len(err.value.iterates) == 4
        assert all(z.imag == 0.0 for z in err.value.iterates)

    @pytest.mark.parametrize("deriv", [0.0, math.nan, math.inf])
    def test_bad_derivative(self, deriv):
        with pytest.raises(NewtonError, match="derivative") as err:
            newton_refine(lambda z: z * z + 1.0, lambda z: complex(deriv), 0.5)
        assert err.value.iterates == (0.5,)

    def test_non_finite_iterate(self):
        with pytest.raises(NewtonError, match="not finite") as err:
            newton_refine(lambda z: 1e300 + 0j, lambda z: 1e-300 + 0j, 1.0)
        assert err.value.iterates[0] == 1.0
        assert not np.isfinite(err.value.iterates[-1])

    def test_domain_error_from_f_propagates(self):
        def f(z):
            if z.imag == 0.0:
                raise DomainError("z lies on the cut")
            return z * z + 1.0

        with pytest.raises(DomainError):
            newton_refine(f, lambda z: 2.0 * z, 2.0 + 0j)

    def test_final_test_accepts_after_max_iter(self):
        # |f| = 1.5e-14 never meets the 1e-14 convergence test; once the
        # iterations are spent, the looser 1e-13 final test accepts.
        root = newton_refine(lambda z: 1.5e-14 + 0j, lambda z: 1.0 + 0j, 1.0,
                             max_iter=5)
        assert root == pytest.approx(1.0, abs=1e-13)


class TestWinding:
    def test_identity_on_unit_circle(self):
        assert winding_number(lambda z: z, circle()) == 1

    def test_square_on_radius_two(self):
        assert winding_number(lambda z: z * z, circle(radius=2.0)) == 2

    def test_pole_counts_negative(self):
        assert winding_number(lambda z: 1.0 / z, circle()) == -1

    def test_shifted_zero_outside(self):
        assert winding_number(lambda z: z - 3.0, circle()) == 0

    def test_rectangle_additivity(self):
        f = lambda z: (z - (0.2 + 0.3j)) * (z + 0.5 - 0.4j) * (z - 1.4j)
        whole = winding_number(f, rectangle_path(-1, 1, -1, 1, 32))
        left = winding_number(f, rectangle_path(-1, 0, -1, 1, 32))
        right = winding_number(f, rectangle_path(0, 1, -1, 1, 32))
        assert whole == left + right == 2

    def test_zero_on_contour_detected(self):
        with pytest.raises(ContourZeroError):
            winding_number(lambda z: z - 1.0, circle(), min_modulus=1e-8)

    def test_open_path_rejected(self):
        segs = [PathSegment(0j, 1 + 0j, 4), PathSegment(1 + 0j, 1 + 1j, 4)]
        with pytest.raises(DomainError, match="not closed"):
            winding_number(lambda z: z + 2.0, segs)

    def test_empty_path_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            winding_number(lambda z: z, [])

    def test_samples_match_per_segment_construction(self):
        # Mixed sample counts, a closing gap inside the 1e-12 tolerance.
        segs = circle(samples=3)[:5] + [
            PathSegment(s.start, s.end + 1e-13, n)
            for s, n in zip(circle()[5:], (2, 7, 5))]
        got = _sample_path(segs)
        starts = np.array([s.start for s in segs], dtype=complex)
        spans = np.array([s.end - s.start for s in segs], dtype=complex)
        edge = np.repeat(np.arange(len(segs)), [s.samples for s in segs])
        t = np.concatenate([np.arange(s.samples) / s.samples for s in segs])
        for a, b in zip(got, (starts, spans, edge, t,
                              starts[edge] + t * spans[edge])):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
        f = lambda z: (z - 0.3j) * (z + 0.2)
        assert winding_number(f, got) == winding_number(f, segs) == 2

    def test_needs_refinement_high_order(self):
        # z^9 with coarse initial sampling forces midpoint insertion
        segs = circle(samples=2)
        assert winding_number(lambda z: z**9, segs) == 9

    @staticmethod
    def counting(f):
        """f plus the list of point arrays it was called with."""
        calls = []

        def g(z):
            calls.append(np.array(z))
            return f(z)
        return g, calls

    def test_first_call_covers_every_initial_sample(self):
        segs = circle(samples=64)
        g, calls = self.counting(lambda z: z)
        assert winding_number(g, segs) == 1
        expected = [s.start + k / s.samples * (s.end - s.start)
                    for s in segs for k in range(s.samples)]
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.array(expected))

    def test_one_call_per_refinement_pass(self):
        # z^9 on 16 samples turns by 9*2*pi/16 per step and on 32 by
        # 9*2*pi/32, both at least pi/2; on 64 every step is below pi/2.
        # So two passes, each halving every step: 16 + 16 + 32 points.
        g, calls = self.counting(lambda z: z**9)
        assert winding_number(g, circle(samples=2)) == 9
        assert [c.size for c in calls] == [16, 16, 32]
        pts = np.concatenate(calls)
        assert np.unique(pts).size == pts.size   # no point evaluated twice

    def test_refinement_across_edge_end_and_wrap_around(self):
        # Two zeros just inside the square, one under the last stretch of
        # edge 0 (from t = 0.5 up to the corner 1 - 1j, which is edge 1's
        # first sample) and one next to the path's start -1 - 1j, so the
        # step from the last sample back to the first needs refinement.
        f = lambda z: (z - (0.5 - 0.99j)) * (z - (-0.99 - 0.99j))
        g, calls = self.counting(f)
        assert winding_number(g, rectangle_path(-1, 1, -1, 1, 2)) == 2
        assert len(calls) >= 2
        assert 0.5 - 1j in calls[1]      # edge 0 at t = 0.75
        assert -1 - 0.5j in calls[1]     # edge 3 at t = 0.75, before the wrap

    def test_contour_zero_point_first_in_path_order_initial(self):
        # Zeros at edge 0, t = 0.75 and edge 1, t = 0.25: the first in
        # path order is not the one with the smaller t.
        f = lambda z: (z - (0.5 - 1j)) * (z - (1 - 0.5j))
        g, calls = self.counting(f)
        with pytest.raises(ContourZeroError) as err:
            winding_number(g, rectangle_path(-1, 1, -1, 1, 4), min_modulus=1e-8)
        assert err.value.point == 0.5 - 1j
        assert len(calls) == 1

    def test_contour_zero_point_first_in_path_order_refinement(self):
        # Zeros at edge 0, t = 0.875 and edge 1, t = 0.125: no initial
        # sample, but the midpoints of the steps across them.
        f = lambda z: (z - (0.75 - 1j)) * (z - (1 - 0.75j))
        g, calls = self.counting(f)
        with pytest.raises(ContourZeroError) as err:
            winding_number(g, rectangle_path(-1, 1, -1, 1, 4), min_modulus=1e-8)
        assert err.value.point == 0.75 - 1j
        assert len(calls) == 2
        assert 1 - 0.75j in calls[1]


class TestSpecs:
    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)

    def test_path_segment_validation(self):
        with pytest.raises(DomainError):
            PathSegment(0j, 1j, samples=1)
