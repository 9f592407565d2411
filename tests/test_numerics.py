"""Quadrature, principal values, Newton, and winding numbers."""

import heapq
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from plasmaskin import (
    ContourZeroError,
    DomainError,
    NewtonError,
    QuadratureError,
    QuadratureSpec,
    integrate_finite,
    integrate_principal_value,
    integrate_semi_infinite,
    newton_refine,
    winding_number,
)
from plasmaskin import numerics
from plasmaskin.numerics import (
    _CALL_VALUES,
    _WG,
    _WGK,
    _XGK,
    rectangle_path,
)

TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=4000)


def circle(radius=1.0, center=0j, samples=64):
    """An octagon inscribed in the circle, ``samples`` points per edge."""
    v = center + radius * np.exp(2j * math.pi * np.arange(8) / 8)
    t = np.arange(samples) / samples
    return (v[:, None] + t * (np.roll(v, -1) - v)[:, None]).ravel()


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


def _heap_integrate(f, a, b, spec, breakpoints=(), offset=0.0):
    """The one-panel-at-a-time engine the rounds replaced (the reference).

    A heap of panels keyed by their largest error relative to the
    component tolerances, re-keyed when a tolerance drifts by 2x; each
    split makes two integrand calls.  Returns (integral, panels).
    """
    def panel(lo, hi):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv = np.asarray(f(c + h * _XGK), dtype=np.complex128)
        ik = h * np.dot(_WGK, fv)
        return ik, abs(ik - h * np.dot(_WG, fv[1::2]))

    pts = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    panels = [(lo, hi) + panel(lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
    count = len(panels)
    total = sum(p[2] for p in panels)
    toterr = sum(p[3] for p in panels)
    vector = np.ndim(total) > 0

    def tolerance(total):
        return np.maximum(spec.rel_tol * abs(offset + total),
                          max(spec.abs_tol, np.finfo(float).tiny))

    key_tol = tolerance(total) if vector else 1.0

    def key(err):
        return -float(np.max(err / key_tol)) if vector else -float(err)

    counter = itertools.count()
    heap = [(key(e), next(counter), lo, hi, ik, e) for lo, hi, ik, e in panels]
    heapq.heapify(heap)
    for _ in range(spec.max_subdivisions * np.size(total)):
        tol = tolerance(total)
        if np.all(toterr <= tol):
            break
        if vector and np.any((tol < 0.5 * key_tol) | (tol > 2.0 * key_tol)):
            key_tol = tol
            heap = [(key(item[5]),) + item[1:] for item in heap]
            heapq.heapify(heap)
        _, _, lo, hi, ik, e = heapq.heappop(heap)
        total, toterr = total - ik, toterr - e
        for seg in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)):
            ik, e = panel(*seg)
            total, toterr = total + ik, toterr + e
            heapq.heappush(heap, (key(e), next(counter)) + seg + (ik, e))
            count += 1
    return total, count


def _spy(f):
    """f plus the list of the number of abscissae of each call."""
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return f(x)
    return g, sizes


def _wiggle(x):
    return 1e-12 * np.sin(2000.0 * np.asarray(x))


_ENGINE_CASES = {
    "scalar": (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 5.0, TIGHT, (), 0.0),
    "breakpoint": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, TIGHT,
                   (0.3,), 0.0),
    "vector": (_three, 0.0, 5.0, TIGHT, (1.0,), 0.0),
    "offset": (_wiggle, 0.0, 1.0,
               QuadratureSpec(rel_tol=1e-9, abs_tol=0.0, max_subdivisions=50),
               (), 1.0),
    "component offset": (lambda x: np.stack([_wiggle(x), 1.0 / (1e-3 + x)],
                                            axis=-1),
                         0.0, 1.0, QuadratureSpec(rel_tol=1e-10), (0.5,),
                         np.array([1.0, 0.0])),
}


class TestRounds:
    """The batched rounds against the one-panel-at-a-time reference."""

    @pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
    def test_agrees_with_reference(self, case):
        f, a, b, spec, bps, offset = _ENGINE_CASES[case]
        ref, ref_panels = _heap_integrate(f, a, b, spec, bps, offset)
        g, sizes = _spy(f)
        val = integrate_finite(g, a, b, spec, breakpoints=bps, offset=offset)
        tol = np.maximum(spec.rel_tol * np.abs(offset + ref), spec.abs_tol)
        assert np.all(np.abs(val - ref) <= 2.0 * tol)
        assert sum(sizes) % 15 == 0
        assert sum(sizes) // 15 <= 1.1 * ref_panels
        # A call per round, not one per panel.
        assert len(sizes) <= ref_panels

    @pytest.mark.parametrize("max_subdivisions", [1, 2, 7])
    def test_budget_is_never_exceeded(self, max_subdivisions):
        spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=max_subdivisions)
        g, sizes = _spy(_three)
        with pytest.raises(QuadratureError) as err:
            integrate_finite(g, 0.0, 40.0, spec, breakpoints=(1.0, 2.0))
        assert sum(sizes) <= 15 * (3 + 2 * max_subdivisions * 3)
        assert f"after {max_subdivisions * 3} subdivisions" in str(err.value)
        est, bound = err.value.estimate, err.value.error_bound
        assert est.shape == bound.shape == (3,)
        assert np.all(bound > 0.0)
        assert est == pytest.approx([1.0, math.atan(40.0), 0.1], abs=1e-3)

    def test_no_call_exceeds_the_node_cap(self):
        # 200 components, 400 initial panels and rounds of hundreds of
        # bisections: every call stays within the cap, which binds.
        k = np.arange(1.0, 201.0)

        def f(x):
            return np.exp(1j * np.outer(x, k))

        g, sizes = _spy(f)
        spec = QuadratureSpec(rel_tol=1e-10)
        val = integrate_finite(g, 0.0, 4.0, spec,
                               breakpoints=np.linspace(0.0, 1.0, 400))
        assert max(sizes) * k.size <= _CALL_VALUES
        assert max(sizes) * k.size > _CALL_VALUES // 2
        exact = (np.exp(4j * k) - 1.0) / (1j * k)
        assert np.all(np.abs(val - exact) <= 1e-10 * np.abs(exact))
        again = integrate_finite(f, 0.0, 4.0, spec,
                                 breakpoints=np.linspace(0.0, 1.0, 400))
        assert np.array_equal(val, again)

    def test_interval_collapse(self):
        # One ulp wide and never converged: the first bisection collapses.
        def f(x):
            return np.arange(np.size(x)) % 2.0

        with pytest.raises(QuadratureError, match="collapsed") as err:
            integrate_finite(f, 1.0, np.nextafter(1.0, 2.0),
                             QuadratureSpec(rel_tol=1e-13))
        assert isinstance(err.value.estimate, complex)
        assert err.value.error_bound > 0.0

    def test_non_finite_error_bound_raises_at_once(self):
        # The centre node of [0.25, 0.75] is the pole.
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        g, sizes = _spy(f)
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_finite(g, 0.0, 1.0, breakpoints=(0.25, 0.75))
        assert len(sizes) == 2   # the initial panels only


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

    def test_pole_values_in_one_call(self, monkeypatch):
        # g(pole), g(pole + dx) and g(pole - dx) come from one call and
        # equal the former three one-point calls bit for bit.
        def g(x):
            return np.exp(-np.asarray(x) ** 2) * (1.0 + 0.5j)

        spy, sizes = _spy(g)
        quads = []

        def record(f, *args, **kwargs):
            quads.append(f)
            return integrate_finite(f, *args, **kwargs)

        monkeypatch.setattr(numerics, "integrate_finite", record)
        pole, a, b = 0.3, -1.0, 2.0
        integrate_principal_value(spy, pole, a, b, TIGHT)
        assert sizes[0] == 3
        dx = 1e-7 * (b - a)
        gp = complex(np.asarray(g(np.array([pole])), dtype=np.complex128)[0])
        gprime = (np.asarray(g(np.array([pole + dx])))[0]
                  - np.asarray(g(np.array([pole - dx])))[0]) / (2.0 * dx)
        reg = quads[0]
        assert reg(np.array([pole]))[0] == gprime
        x = np.array([0.7])
        assert reg(x)[0] == (g(x)[0] - gp) / (x[0] - pole)

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

    @pytest.mark.parametrize("max_iter", [-1, 2.5, True, None])
    def test_rejects_bad_max_iter(self, max_iter):
        # max_iter = -1 used to leave the loop unentered and fail with
        # an UnboundLocalError.
        with pytest.raises(DomainError, match="max_iter"):
            newton_refine(lambda z: z - 1.0, lambda z: 1.0 + 0j, 2.0,
                          max_iter=max_iter)

    def test_zero_max_iter_only_tests_the_start(self):
        assert newton_refine(lambda z: z - 1.0, lambda z: 1.0 + 0j, 1.0,
                             max_iter=0) == 1.0
        with pytest.raises(NewtonError, match="within 0 iterations"):
            newton_refine(lambda z: z - 1.0, lambda z: 1.0 + 0j, 2.0,
                          max_iter=0)

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

    def test_empty_path_rejected(self):
        with pytest.raises(DomainError, match="at least three"):
            winding_number(lambda z: z, [])

    @pytest.mark.parametrize("points", [
        pytest.param([1, 1j], id="too_few"),
        pytest.param(np.ones((2, 4), dtype=complex), id="not_1d"),
        pytest.param([1, 1j, -1, complex(math.nan, 0.0)], id="nan"),
        pytest.param([1, 1j, complex(-math.inf, 0.0)], id="inf"),
        pytest.param(["a", "b", "c"], id="strings"),
        pytest.param([object(), object(), object()], id="objects"),
    ])
    def test_malformed_points_rejected(self, points):
        calls = []
        with pytest.raises(DomainError, match="at least three"):
            winding_number(calls.append, points)
        assert calls == []

    def test_rectangle_path_samples(self):
        # samples_per_side points per side, each side starting at its
        # first corner, counterclockwise from (x0, y0); at least two.
        corners = np.array([-1 - 2j, 3 - 2j, 3 + 5j, -1 + 5j])
        spans = np.roll(corners, -1) - corners
        for n, per_side in ((5, 5), (1, 2), (2, 2)):
            got = rectangle_path(-1, 3, -2, 5, n)
            want = [c + k / per_side * d for c, d in zip(corners, spans)
                    for k in range(per_side)]
            assert got.dtype == complex and np.array_equal(got, want)
        with pytest.raises(DomainError, match="degenerate"):
            rectangle_path(0, 0, 0, 1)
        f = lambda z: (z - 0.3j) * (z + 0.2)
        assert winding_number(f, rectangle_path(-1, 3, -2, 5, 1)) == 2

    def test_needs_refinement_high_order(self):
        # z^9 with coarse initial sampling forces midpoint insertion
        assert winding_number(lambda z: z**9, circle(samples=2)) == 9

    @staticmethod
    def counting(f):
        """f plus the list of point arrays it was called with."""
        calls = []

        def g(z):
            calls.append(np.array(z))
            return f(z)
        return g, calls

    def test_first_call_covers_every_initial_sample(self):
        pts = circle(samples=64)
        g, calls = self.counting(lambda z: z)
        assert winding_number(g, pts) == 1
        assert len(calls) == 1
        assert np.array_equal(calls[0], pts)

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
        # the bottom side (from 0 up to the corner 1 - 1j, the right
        # side's first sample) and one next to the path's start -1 - 1j,
        # so the step from the last sample back to the first needs
        # refinement.
        f = lambda z: (z - (0.5 - 0.99j)) * (z - (-0.99 - 0.99j))
        g, calls = self.counting(f)
        assert winding_number(g, rectangle_path(-1, 1, -1, 1, 2)) == 2
        assert len(calls) >= 2
        assert 0.5 - 1j in calls[1]      # bottom side, 3/4 of the way
        assert -1 - 0.5j in calls[1]     # left side, 3/4 of the way, before the wrap

    def test_contour_zero_point_first_in_path_order_initial(self):
        # Zeros 3/4 along the bottom side and 1/4 along the right side:
        # the first in path order is not the one nearer its side's start.
        f = lambda z: (z - (0.5 - 1j)) * (z - (1 - 0.5j))
        g, calls = self.counting(f)
        with pytest.raises(ContourZeroError) as err:
            winding_number(g, rectangle_path(-1, 1, -1, 1, 4), min_modulus=1e-8)
        assert err.value.point == 0.5 - 1j
        assert len(calls) == 1

    def test_contour_zero_point_first_in_path_order_refinement(self):
        # Zeros 7/8 along the bottom side and 1/8 along the right side:
        # no initial sample, but the midpoints of the steps across them.
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

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.nan}, {"rel_tol": math.inf},
        {"abs_tol": math.nan}, {"abs_tol": math.inf},
        {"max_subdivisions": 2.5}, {"max_subdivisions": 100.0},
        {"max_subdivisions": True}, {"max_subdivisions": "100"},
    ])
    def test_quadrature_spec_rejects_non_finite_and_non_integer(self, kwargs):
        # nan abs_tol used to reach integrate_finite and fail as a
        # collapsed interval; an infinite tolerance accepted the first
        # Kronrod estimate; a float budget failed on slicing.
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_quadrature_spec_accepts_numpy_integers(self):
        spec = QuadratureSpec(max_subdivisions=np.int64(50))
        assert integrate_finite(np.exp, 0.0, 1.0, spec) == pytest.approx(
            math.e - 1.0, rel=1e-13)
