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
from plasmaskin.cli import _SWEEP_BLOCK, SweepSpec, run_sweep
from plasmaskin.dispersion import lam_many
from plasmaskin.spectrum import Region, SpectrumInfo, strip_winding


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

    @pytest.mark.parametrize("epsilon, v_c", [
        (1e-3, 1e-3), (1e-3, 0.5), (1e-2, 0.1), (1e-4, 0.177), (0.1, 0.5)])
    def test_cached_kernel_gives_lam_many_bits(self, epsilon, v_c,
                                               monkeypatch):
        # count_zeros' lam on the strip's own points comes from the cached
        # kernel, without lam_many, and equals lam_many bit for bit.
        L, eps = spectrum._strip_half_length(1.0), spectrum.EPS_CONTOUR
        pts = spectrum._strip_points(L, eps)
        kernel = spectrum._strip_kernel(L, eps)
        assert not kernel.flags.writeable and kernel.shape == pts.shape
        many_calls, strip_values = [], []
        monkeypatch.setattr(spectrum, "lam_many",
                            lambda z, p: many_calls.append(z) or lam_many(z, p))
        real_winding = spectrum.strip_winding

        def spy(f, *args, **kwargs):
            strip_values.append(f(pts))
            return real_winding(f, *args, **kwargs)

        monkeypatch.setattr(spectrum, "strip_winding", spy)
        for g in np.linspace(0.01, 2.0, 201):
            p = make_params(float(g), epsilon, v_c)
            many_calls.clear()
            _outcome(count_zeros, p)
            assert many_calls == [] or many_calls[0] is not pts
            bits = strip_values[-1].view(np.int64)
            assert np.array_equal(bits, lam_many(pts, p).view(np.int64))
        assert len(strip_values) == 201

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


def _analyzed(p):
    try:
        return spectrum.analyze(p)
    except Exception as exc:
        return exc


# 65-point lines: the resonance sweep, and the log sweep at (1e-2, 0.1),
# whose count drops from 4 to 2 at its fifth point.
_LINES = {
    "resonance": (np.linspace(0.9, 1.1, 65), 1e-3, 1e-3),
    "log": (np.geomspace(0.01, 2.0, 65), 1e-2, 0.1),
}


def _line(name):
    gammas, epsilon, v_c = _LINES[name]
    return [make_params(float(g), epsilon, v_c) for g in gammas]


class TestAnalyzeLine:
    """analyze_line continues each point's zeros from the previous point's
    and gives what per-point analyze gives."""

    @staticmethod
    def spy_find_zeros(monkeypatch):
        calls = []
        real = spectrum.find_zeros

        def spy(p, n, **kwargs):
            calls.append(p.gamma)
            return real(p, n, **kwargs)

        monkeypatch.setattr(spectrum, "find_zeros", spy)
        return calls

    @staticmethod
    def force_continuation(monkeypatch, ps, forced):
        """Newton from a per-point zero (a continuation start) returns
        forced(real_newton, f, fprime, start); the search's own Newton
        runs are left alone."""
        starts = {z for p in ps for z in getattr(_analyzed(p), "zeros", ())}
        real = numerics.newton_refine

        def patched(f, fprime, z0, *args, **kwargs):
            if z0 in starts:
                return forced(real, f, fprime, z0)
            return real(f, fprime, z0, *args, **kwargs)

        monkeypatch.setattr(numerics, "newton_refine", patched)

    @pytest.mark.parametrize("name", sorted(_LINES))
    def test_line_matches_per_point_analyze(self, name, monkeypatch):
        ps = _line(name)
        ref = [_analyzed(p) for p in ps]
        calls = self.spy_find_zeros(monkeypatch)
        out = spectrum.analyze_line(ps)
        assert len(out) == len(ps)
        # Only the first point and the point where N changes are searched.
        assert len(calls) == (2 if name == "log" else 1)
        assert [r.n_zeros for r in out] == [r.n_zeros for r in ref]
        for r, r_ref in zip(out, ref):
            assert r.region is r_ref.region
            for z, z_ref in zip(r.zeros, r_ref.zeros, strict=True):
                assert abs(z - z_ref) <= 1e-13 * abs(z_ref)
            for d, d_ref in zip(r.lambda_prime_at_zeros,
                                r_ref.lambda_prime_at_zeros, strict=True):
                assert abs(d - d_ref) <= 1e-12 * abs(d_ref)

    def test_failed_point_restarts_the_search(self):
        # At v_c = 0.5 the count declines the points past gamma ~ 1.2.
        gammas = np.linspace(1.1, 1.3, 9)
        ps = [make_params(float(g), 1e-3, 0.5) for g in gammas]
        out = spectrum.analyze_line(ps)
        ref = [_analyzed(p) for p in ps]
        kinds = [type(r) for r in out]
        assert kinds == [type(r) for r in ref]
        assert BoundaryProximityError in kinds and SpectrumInfo in kinds
        for r, r_ref in zip(out, ref):
            if isinstance(r, Exception):
                assert str(r) == str(r_ref)

    @pytest.mark.parametrize("name, forced", [
        ("resonance", "newton_error"),
        ("log", "newton_error"),
        ("log", "same_zero"),
        ("log", "mirror_zero"),
    ])
    def test_rejected_continuation_falls_back(self, name, forced, monkeypatch):
        # The log line's first four points have N = 4, the next four N = 2.
        n_points = 4 if forced.endswith("_zero") else 8
        ps = _line(name)[:n_points]
        ref = [_analyzed(p) for p in ps]
        first = []

        def force(real, f, fprime, z0):
            if forced == "newton_error":
                raise NewtonError("injected failure", [z0])
            # N = 4: each point's second start lands on its first start's
            # zero, or on that zero's mirror.
            if len(first) % 2 == 0:
                first.append(real(f, fprime, z0))
            else:
                first.append(first[-1] if forced == "same_zero" else -first[-1])
            return first[-1]

        self.force_continuation(monkeypatch, ps, force)
        calls = self.spy_find_zeros(monkeypatch)
        out = spectrum.analyze_line(ps)
        assert out == ref
        assert len(calls) == len(ps)
        if forced.endswith("_zero"):
            assert [r.n_zeros for r in ref] == [4] * 4

    def test_newton_failure_gives_per_point_rows(self, monkeypatch):
        spec = SweepSpec(gamma_start=0.9, gamma_end=1.1, n_points=20)
        ps = [make_params(float(g), spec.epsilon, spec.v_c)
              for g in spec.grid()]
        with monkeypatch.context() as m:
            m.setattr(spectrum, "analyze_line",
                      lambda ps: [_analyzed(p) for p in ps])
            per_point = run_sweep(spec, max_workers=1)

        def fail(real, f, fprime, z0):
            raise NewtonError("injected failure", [z0])

        self.force_continuation(monkeypatch, ps, fail)
        assert run_sweep(spec, max_workers=1) == per_point

    @pytest.mark.parametrize("widen", [False, True])
    def test_root_inside_strip_falls_back(self, widen, monkeypatch):
        # Count and search are replayed from per-point runs; widening the
        # strip puts every continued zero inside it.
        ps = _line("resonance")[:8]
        ref = {p: spectrum.analyze(p) for p in ps}
        calls = []

        def find_zeros(p, n):
            calls.append(p)
            return ref[p]

        monkeypatch.setattr(spectrum, "count_zeros", lambda p: ref[p].n_zeros)
        monkeypatch.setattr(spectrum, "find_zeros", find_zeros)
        if widen:
            monkeypatch.setattr(spectrum, "_strip_half_length", lambda s: 1e300)
            monkeypatch.setattr(spectrum, "EPS_CONTOUR", 1e300)
        out = spectrum.analyze_line(ps)
        assert len(calls) == (len(ps) if widen else 1)
        if widen:
            assert out == list(ref.values())

    def test_sweep_searches_once_per_block(self, monkeypatch):
        calls = self.spy_find_zeros(monkeypatch)
        spec = SweepSpec(gamma_start=0.9, gamma_end=1.1, n_points=401)
        rows = run_sweep(spec, max_workers=1)
        assert [r.status for r in rows] == ["ok"] * 401
        blocks = -(-401 // _SWEEP_BLOCK)
        assert len(calls) == blocks == 26
