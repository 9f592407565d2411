"""Zero counting and zero location for the dispersion function."""

import numpy as np
import pytest

from plasmaskin import (
    BoundaryProximityError,
    ContourZeroError,
    DomainError,
    NewtonError,
    compute_J,
    count_zeros,
    find_zeros,
    fourier_impedance,
    impedance,
    lam,
    lam_prime,
    make_params,
)
from plasmaskin import numerics, spectrum
from plasmaskin.dispersion import lam_many
from plasmaskin.spectrum import Region, strip_winding


class TestStripCount:
    """Synthetic functions with known zero/pole structure and quadratic
    growth exercise the exterior-count identity N = 2 - w_ccw."""

    def test_single_pair(self):
        c = 0.9 - 0.6j
        f = lambda z: (z * z - c * c)
        assert 2 - strip_winding(f, 20.0, 1e-3) == 2

    def test_two_pairs_via_strip_poles(self):
        # Four off-axis zeros; the z^2 growth is restored by a pole pair
        # hidden inside the strip (|Im| = 1e-4 < contour offset 1e-3).
        c, d = 1.1 - 0.8j, -0.4 + 2.0j
        f = lambda z: (z * z - c * c) * (z * z - d * d) / (z * z + 1e-8)
        assert 2 - strip_winding(f, 20.0, 1e-3) == 4

    def test_no_zeros_with_interior_pole_pair(self):
        # Only the strip poles: exterior count must be zero.
        f = lambda z: 1.0 / (z * z + 1e-8)
        # growth is z^-2, i.e. a double zero at infinity: N = 2 - w - 4
        # does not apply; instead check the raw winding value.
        assert strip_winding(f, 20.0, 1e-3) == -2

    def test_physical_count(self, base_params):
        assert count_zeros(base_params) == 2

    def test_count_stable_under_contour_doubling(self, base_params):
        assert count_zeros(base_params, contour_scale=2.0) == 2

    def test_count_even_and_allowed(self):
        for g in (0.05, 0.7, 1.2, 1.9):
            n = count_zeros(make_params(g, 1e-3, 1e-3))
            assert n in (2, 4)

    def test_bad_scale_rejected(self, base_params):
        with pytest.raises(DomainError):
            count_zeros(base_params, contour_scale=0.0)


def _outcome(fn, *args, **kwargs):
    """fn's result, or what it raised: class, message, and the point or
    boundary position carried by the error and by its cause."""
    try:
        return fn(*args, **kwargs)
    except (ContourZeroError, BoundaryProximityError) as exc:
        cause = exc.__cause__
        return (type(exc), str(exc), getattr(exc, "point", None),
                getattr(exc, "mu", None), type(cause), str(cause),
                getattr(cause, "point", None))


# The resonance sweep, and the default-range sweep at v_c = 0.5 whose
# count declines 163 of 401 rows (the count comes out 0 there).
_CACHE_GRIDS = {
    "resonance": (np.linspace(0.9, 1.1, 401), 1e-3, 1e-3),
    "vc_0.5": (np.linspace(0.01, 2.0, 401), 1e-3, 0.5),
}


class TestStripCache:
    """The counting strip's points are built once per (L, eps)."""

    # A floor of 1.0 trips ContourZeroError on most rows of both grids.
    @pytest.mark.parametrize("floor, stride", [(spectrum.BOUNDARY_FLOOR, 1),
                                               (1.0, 8)])
    @pytest.mark.parametrize("grid", sorted(_CACHE_GRIDS))
    def test_cached_strip_matches_fresh_path(self, grid, floor, stride,
                                             monkeypatch):
        gammas, epsilon, v_c = _CACHE_GRIDS[grid]
        ps = [make_params(float(g), epsilon, v_c) for g in gammas[::stride]]
        L = spectrum._strip_half_length(1.0)
        eps = spectrum.EPS_CONTOUR
        monkeypatch.setattr(spectrum, "BOUNDARY_FLOOR", floor)

        def outcomes():
            out = []
            for p in ps:
                out.append(_outcome(count_zeros, p))
                out.append(_outcome(strip_winding, lambda z: lam_many(z, p),
                                    L, eps, min_modulus=floor))
            return out

        cached = outcomes()
        # A fresh, writable array built on every call.
        monkeypatch.setattr(spectrum, "_strip_points",
                            spectrum._strip_points.__wrapped__)
        fresh = outcomes()
        assert cached == fresh
        raised = [o for o in cached if isinstance(o, tuple)]
        if floor == 1.0:
            assert sum(o[0] is ContourZeroError for o in raised) >= 40
        elif grid == "vc_0.5":
            assert len(raised) == 163
        else:
            assert raised == []

    def test_second_call_does_not_rebuild(self, base_params, monkeypatch):
        built = []
        axis = spectrum._graded_axis

        def spy(*args):
            built.append(args)
            return axis(*args)

        monkeypatch.setattr(spectrum, "_graded_axis", spy)
        spectrum._strip_points.cache_clear()
        try:
            assert count_zeros(base_params) == 2
            assert len(built) == 1
            assert count_zeros(make_params(0.5, 1e-3, 1e-3)) == 2
            assert len(built) == 1
        finally:
            spectrum._strip_points.cache_clear()

    def test_cached_arrays_reject_writes(self, base_params):
        count_zeros(base_params)
        pts = spectrum._strip_points(spectrum._strip_half_length(1.0),
                                     spectrum.EPS_CONTOUR)
        assert pts.ndim == 1 and pts.dtype == complex
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = pts[1]

    def test_strip_points_are_vertices_and_edge_midpoints(self):
        L, eps = spectrum._strip_half_length(1.0), spectrum.EPS_CONTOUR
        pts = spectrum._strip_points(L, eps)
        verts, mids = pts[0::2], pts[1::2]
        np.testing.assert_allclose(mids, 0.5 * (verts + np.roll(verts, -1)),
                                   rtol=0, atol=1e-15 * L)
        xs = spectrum._graded_axis(12.0, 0.25, 1.25, L)
        assert np.array_equal(verts, np.concatenate(
            [xs - 1j * eps, [L, L + 1j * eps], xs[::-1] + 1j * eps, [-L]]))
        assert strip_winding(lambda z: z * z - 1j, L, eps) == 0
        assert strip_winding(lambda z: z, L, eps) == 1

    def test_contour_scale_gets_its_own_strip(self, base_params):
        spectrum._strip_points.cache_clear()
        assert count_zeros(base_params) == 2
        assert count_zeros(base_params, contour_scale=2.0) == 2
        assert spectrum._strip_points.cache_info().currsize == 2
        for scale in (1.0, 2.0):
            L = spectrum._strip_half_length(scale)
            eps = spectrum.EPS_CONTOUR * scale
            pts = spectrum._strip_points(L, eps)
            assert np.max(pts.real) == L and np.max(pts.imag) == eps
        assert count_zeros(base_params, contour_scale=2.0) == 2
        assert spectrum._strip_points.cache_info().currsize == 2


class TestFindZeros:
    def test_residuals_and_decay_condition(self, base_params):
        p = base_params
        info = find_zeros(p, count_zeros(p))
        assert info.n_zeros == 2
        assert info.region is Region.D_MINUS
        assert len(info.zeros) == 1
        for eta, d in zip(info.zeros, info.lambda_prime_at_zeros):
            assert abs(lam(eta, p)) < 1e-12
            assert abs(lam(-eta, p)) < 1e-12          # pair symmetry
            assert (p.z0 / eta).real > 0.0            # decay condition
            assert d == pytest.approx(lam_prime(eta, p), rel=1e-14)
            assert abs(d) > 1e-10                     # simple zero

    def test_zeros_stable_under_search_doubling(self, panel):
        # contour_scale=2.0 doubles the strip and the search half-width.
        points = [p for p, _ in panel] + [make_params(0.1, 0.1, 0.5)]
        for p in points:
            n = count_zeros(p)
            a = find_zeros(p, n)
            b = find_zeros(p, n, contour_scale=2.0)
            assert len(a.zeros) == len(b.zeros) == n // 2
            for za, zb in zip(a.zeros, b.zeros):
                assert abs(za - zb) <= 1e-10 * abs(za), (p.gamma, za, zb)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, base_params, scale):
        with pytest.raises(DomainError, match="contour_scale"):
            find_zeros(base_params, 2, contour_scale=scale)

    def test_panel_points(self, panel):
        for p, coeffs in panel:
            info = coeffs.spectrum
            assert info.n_zeros == 2 * len(info.zeros)
            for eta in info.zeros:
                assert abs(lam(eta, p)) < 1e-12
                assert (p.z0 / eta).real > 0.0

    def test_sorted_by_modulus(self, panel):
        for _, coeffs in panel:
            mods = [abs(z) for z in coeffs.spectrum.zeros]
            assert mods == sorted(mods)

    def test_rejects_bad_count(self, base_params):
        with pytest.raises(DomainError):
            find_zeros(base_params, 3)


class TestPolishFailure:
    """A failed Newton polish is "no root here": the search splits further."""

    POINTS = ((1e-3, 1e-3, 1e-3), (0.1, 0.1, 0.5))

    @staticmethod
    def fail_first(monkeypatch, module, name, exc):
        real = getattr(module, name)
        calls = []

        def patched(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise exc("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, patched)
        return calls

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("module, name, exc", [
        (numerics, "newton_refine", NewtonError),
        (spectrum, "lam", DomainError),    # raised inside the Newton loop
    ])
    def test_same_zeros_after_a_failed_polish(self, monkeypatch, point,
                                              module, name, exc):
        p = make_params(*point)
        n = count_zeros(p)
        ref = find_zeros(p, n)
        calls = self.fail_first(monkeypatch, module, name, exc)
        info = find_zeros(p, n)
        assert len(calls) > 1
        assert len(info.zeros) == len(ref.zeros)
        for z, z_ref in zip(info.zeros, ref.zeros):
            assert abs(z - z_ref) <= 1e-14 * abs(z_ref)


class TestTwoPairRegion:
    def test_four_zero_point(self):
        # Moderate collisionality with a large velocity ratio puts the
        # parameters in the four-zero region: two stored pairs.
        p = make_params(0.1, 0.1, 0.5)
        n = count_zeros(p)
        assert n == 4
        info = find_zeros(p, n)
        assert info.region is Region.D_PLUS
        assert len(info.zeros) == 2
        for eta in info.zeros:
            assert abs(lam(eta, p)) < 1e-12
            assert (p.z0 / eta).real > 0.0
        assert count_zeros(p, contour_scale=2.0) == 4


class TestBoundaryProximity:
    def test_zero_inside_strip_reported(self):
        # Above the resonance with large v_c the zero pair approaches the
        # cut and slips inside the counting strip; the count must turn
        # into a boundary-proximity report rather than a bogus number.
        from plasmaskin import BoundaryProximityError

        p = make_params(1.3, 1e-3, 0.4)
        with pytest.raises(BoundaryProximityError):
            count_zeros(p)


class TestFarFieldZeroNearAxis:
    """Beyond the far-field radius lam has no numerical jump across the
    axis, so a zero within the strip offset of it is still a zero to
    count and locate (eta ~ 1732 -+ 3e-4i here)."""

    @pytest.mark.parametrize("gamma", [1.2246, 1.2247, 1.2248])
    def test_counted_located_and_oracle_checked(self, gamma):
        p = make_params(gamma, 1e-3, 1e-3)
        n = count_zeros(p)
        assert n == 2
        info = find_zeros(p, n)
        eta = info.zeros[0]
        assert abs(eta) > 1e3 and abs(eta.imag) < 2e-3
        assert abs(lam(eta, p)) < 1e-12
        z = impedance(p, J=compute_J(p)).Z
        zf = fourier_impedance(p)
        assert abs(z - zf) <= 1e-6 * abs(zf)


class TestDeepZeroRegime:
    """Near the resonance the zeros sit at |eta| ~ 1/sqrt|b-a| >> 1;
    location and derivative must stay accurate there."""

    def test_resonance_zero(self):
        p = make_params(1.0, 1e-3, 1e-3)
        info = find_zeros(p, count_zeros(p))
        eta = info.zeros[0]
        assert abs(eta) > 1e4
        assert abs(lam(eta, p)) < 1e-12
        # derivative against a central difference with wide, safe step
        h = abs(eta) * 1e-6
        fd = (lam(eta + h, p) - lam(eta - h, p)) / (2.0 * h)
        assert info.lambda_prime_at_zeros[0] == pytest.approx(fd, rel=1e-8)
