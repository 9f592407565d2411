"""Span tracer for plasmaskin, installed from outside the package.

``Tracer.install`` rebinds each public function listed in ``BINDINGS`` to a
wrapper, in every plasmaskin module that holds the same function object
under the same name (``spectrum.lam_many`` is ``dispersion.lam_many``).
A wrapper records one span per call -- name, parent span, start, end, a
work count read from the arguments, and the class of an exception that
left the call -- in flat arrays kept in memory.  The wrappers of
``integrate_finite`` and ``winding_number`` also wrap the integrand they
receive, so every integrand evaluation is a span of its own: panels and
contour points are counted where the work happens.

Wrappers pass arguments and results through unchanged, so a traced run
computes bit-identical outputs.  ``uninstall`` restores every binding.

A binding that no longer exists (a later version removed or renamed the
function) is reported by ``install`` and left out; every metric that
needs it is reported as absent (``None``), never as zero.
"""

from __future__ import annotations

import array
import importlib
import time
from collections import Counter

import numpy as np

PACKAGE = "plasmaskin"
MODULES = ("specfun", "numerics", "dispersion", "spectrum", "solution",
           "oracle", "cli")
INTEGRAND = "integrand"

# (module, attribute path, work count).  The work count of a call is
#   one     -- 1 per call,
#   size    -- the number of points in the first argument,
#   fd      -- the unknowns of both finite-difference solves, from the config.
# Integrand spans (work = points) are added by the integrate_finite and
# winding_number wrappers.
BINDINGS = (
    ("specfun", "gauss_hilbert", "one"),
    ("specfun", "gauss_hilbert_array", "size"),
    ("specfun", "lambda0", "one"),
    ("specfun", "erfcx", "one"),
    ("specfun", "p_func", "one"),
    ("dispersion", "make_params", "one"),
    ("dispersion", "lam", "one"),
    ("dispersion", "lam_many", "size"),
    ("dispersion", "lam_boundary", "one"),
    ("dispersion", "boundary_arrays", "size"),
    ("dispersion", "lam_prime", "one"),
    ("dispersion", "lam_imag_axis", "size"),
    ("dispersion", "lam_asymptotic", "one"),
    ("dispersion", "zero_scale_estimate", "one"),
    ("numerics", "integrate_finite", "one"),
    ("numerics", "integrate_semi_infinite", "one"),
    ("numerics", "integrate_principal_value", "one"),
    ("numerics", "winding_number", "one"),
    ("numerics", "rectangle_path", "one"),
    ("spectrum", "count_zeros", "one"),
    ("spectrum", "find_zeros", "one"),
    ("spectrum", "analyze", "one"),
    ("spectrum", "strip_winding", "one"),
    ("solution", "compute_J", "one"),
    ("solution", "compute_coefficients", "one"),
    ("solution", "continuum_coefficient", "one"),
    ("solution", "field_e", "size"),
    ("solution", "field_h", "one"),
    ("solution", "impedance", "one"),
    ("solution", "impedance_reduced_form", "one"),
    ("solution", "identity_residuals", "one"),
    ("solution", "check_residue_identity", "one"),
    ("solution", "residual_field_normalization", "one"),
    ("solution", "residual_coefficient_constant", "one"),
    ("oracle", "fourier_impedance", "one"),
    ("oracle", "fd_profile", "fd"),
    ("oracle", "response_kernel", "size"),
    ("oracle", "spla.spsolve", "one"),
    ("cli", "run_sweep", "one"),
    ("cli", "write_rows_csv", "one"),
    ("cli", "write_rows_json", "one"),
    ("cli", "dump_profile", "one"),
    ("cli", "run_selfcheck", "one"),
)
_WRAPS_INTEGRAND = ("numerics.integrate_finite", "numerics.winding_number")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _fd_unknowns(fd_profile_args, default_config):
    p = fd_profile_args[0]
    cfg = fd_profile_args[1] if len(fd_profile_args) > 1 else None
    cfg = cfg if cfg is not None else default_config(p)
    n_coarse, n_fine = cfg.n_x, 2 * cfg.n_x - 1
    return (cfg.mu_nodes + 1) * (n_coarse + n_fine)


class Tracer:
    """Records spans of plasmaskin's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []          # span-name code -> name
        self._code: dict[str, int] = {}
        self.errors: list[str] = [""]       # error code -> class name
        self._err_code: dict[str, int] = {"": 0}
        self.span_name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("q")
        self.error = array.array("i")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def _name_code(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        return code

    def _record(self, code: int, work: int, fn, args, kwargs):
        sid = len(self.start)
        self.span_name.append(code)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            cls = type(exc).__name__
            ecode = self._err_code.get(cls)
            if ecode is None:
                ecode = self._err_code[cls] = len(self.errors)
                self.errors.append(cls)
            self.error[sid] = ecode
            raise
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def _traced_integrand(self, f):
        code = self._name_code(INTEGRAND)

        def integrand(x, *args, **kwargs):
            return self._record(code, int(np.size(x)), f, (x,) + args, kwargs)
        return integrand

    def _wrapper(self, name: str, fn, work: str, default_config):
        code = self._name_code(name)
        record = self._record
        if name in _WRAPS_INTEGRAND:
            traced = self._traced_integrand

            def wrapper(f, *args, **kwargs):
                return record(code, 1, fn, (traced(f),) + args, kwargs)
        elif work == "size":
            def wrapper(*args, **kwargs):
                work = int(np.size(args[0])) if args else 1
                return record(code, work, fn, args, kwargs)
        elif work == "fd":
            def wrapper(*args, **kwargs):
                return record(code, _fd_unknowns(args, default_config),
                              fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return record(code, 1, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- binding ---------------------------------------------------------
    def install(self) -> list[str]:
        """Rebind every listed function; return the names that are missing."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                pass
        holders = [importlib.import_module(PACKAGE)] + list(modules.values())
        oracle = modules.get("oracle")
        default_config = getattr(oracle, "default_config", None)
        for short, attr, work in BINDINGS:
            name = span_name(short, attr)
            owner = modules.get(short)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if owner is None or not callable(fn) or (
                    work == "fd" and default_config is None):
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, fn, work, default_config)
            targets = [owner] if path else holders
            for holder in targets:
                if getattr(holder, leaf, None) is fn:
                    setattr(holder, leaf, wrapper)
                    self._restore.append((holder, leaf, fn))
        return list(self.missing)

    def uninstall(self) -> None:
        for holder, leaf, fn in reversed(self._restore):
            setattr(holder, leaf, fn)
        self._restore.clear()

    # -- output ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans, with the name and error tables, as one .npz."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            errors=np.array(self.errors, dtype=str),
                            **self.arrays())


class Spans:
    """Analysis of recorded spans: self time, owners, ancestors."""

    def __init__(self, names, errors, name, parent, start, end, work, error):
        self.names = list(names)
        self.errors = list(errors)
        self.name = name
        self.parent = parent
        self.dur = end - start
        self.work = work
        self.error = error
        self._ancestors: dict[str, np.ndarray] = {}
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                               minlength=name.size)
        self.self_time = self.dur - children
        # An integrand is attributed to the nearest caller outside numerics:
        # field_e's integrand is solution code, run by the quadrature loop.
        layer_of = [nm.split(".")[0] for nm in self.names]
        layer = [layer_of[c] for c in name.tolist()]
        outer = list(layer)
        for i, p in enumerate(parent.tolist()):
            if p >= 0 and layer[i] in (INTEGRAND, "numerics"):
                outer[i] = outer[p]
                if layer[i] == INTEGRAND:
                    layer[i] = outer[i]
        self.layer = np.array(layer, dtype=object)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "Spans":
        a = tracer.arrays()
        return cls(tracer.names, tracer.errors, **a)

    def code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.code(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def work_sum(self, name: str) -> int:
        return int(self.work[self.mask(name)].sum())

    def self_of(self, *names: str) -> float:
        codes = [self.code(n) for n in names]
        return float(self.self_time[np.isin(self.name, codes)].sum())

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.layer == layer].sum())

    def errors_from(self, name: str, error_class: str) -> int:
        if error_class not in self.errors:
            return 0
        ecode = self.errors.index(error_class)
        return int(np.count_nonzero(self.mask(name) & (self.error == ecode)))

    def ancestor(self, name: str) -> np.ndarray:
        """Id of each span's nearest enclosing ``name`` span (itself
        included), or -1."""
        if name not in self._ancestors:
            self._ancestors[name] = self._ancestor(name)
        return self._ancestors[name]

    def _ancestor(self, name: str) -> np.ndarray:
        code = self.code(name)
        anc = []
        for i, (c, p) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            anc.append(i if c == code else anc[p] if p >= 0 else -1)
        return np.array(anc, dtype=np.int64)

    def per_ancestor(self, child: str, ancestor: str) -> np.ndarray:
        """Number of ``child`` spans under each ``ancestor`` span."""
        anc = self.ancestor(ancestor)
        sel = self.mask(child) & (anc >= 0)
        counts = np.bincount(anc[sel], minlength=self.name.size)
        return counts[self.mask(ancestor)]

    def error_counts(self) -> Counter:
        return Counter(self.errors[e] for e in self.error.tolist() if e)


# -- per-layer metrics ------------------------------------------------------
# Times and counts are per item attempted in the traced loop, so runs of a
# fixed length compare across versions of different speed.  Each entry is
# (name, unit, bindings it needs, value from (Spans, items, outputs)).

def _children(s: Spans, child: str, parent: str) -> np.ndarray:
    has = s.parent >= 0
    out = np.zeros(s.name.size, dtype=bool)
    out[has] = s.name[s.parent[has]] == s.code(parent)
    return out & s.mask(child)


def _ratio(num, den):
    return num / den if den else 0.0


_Q = "numerics.integrate_finite"
_W = "numerics.winding_number"
_CLI = ("cli.run_sweep", "cli.write_rows_csv", "cli.dump_profile",
        "cli.run_selfcheck")
_QUAD = (_Q, "numerics.integrate_semi_infinite",
         "numerics.integrate_principal_value")


def _panels_per_depth(s: Spans):
    under = (s.ancestor("solution.field_e") >= 0) & _children(s, INTEGRAND, _Q)
    return _ratio(int(np.count_nonzero(under)), s.work_sum("solution.field_e"))


LAYER_METRICS = (
    ("cli.call_s", "s/item", _CLI,
     lambda s, n, o: float(s.dur[(s.parent < 0) & (s.layer == "cli")].sum()) / n),
    ("cli.self_s", "s/item", _CLI, lambda s, n, o: s.layer_self("cli") / n),
    ("cli.write_s", "s/item", ("cli.write_rows_csv", "cli.write_rows_json"),
     lambda s, n, o: (s.total("cli.write_rows_csv")
                      + s.total("cli.write_rows_json")) / n),
    ("cli.output_bytes", "B/item", (), lambda s, n, o: o["output_bytes"] / n),
    ("cli.rows_near_boundary", "1/item", (),
     lambda s, n, o: o["statuses"].get("near_boundary", 0) / n),
    ("cli.rows_error", "1/item", (), lambda s, n, o: o["statuses"].get("error", 0) / n),
    ("spectrum.count_zeros_s", "s/item", ("spectrum.count_zeros",),
     lambda s, n, o: s.total("spectrum.count_zeros") / n),
    ("spectrum.count_zeros_calls", "1/item", ("spectrum.count_zeros",),
     lambda s, n, o: s.calls("spectrum.count_zeros") / n),
    ("spectrum.lam_many_per_count", "1/call",
     ("spectrum.count_zeros", "dispersion.lam_many"),
     lambda s, n, o: _ratio(int(s.per_ancestor("dispersion.lam_many",
                                               "spectrum.count_zeros").sum()),
                            s.calls("spectrum.count_zeros"))),
    ("spectrum.find_zeros_s", "s/item", ("spectrum.find_zeros",),
     lambda s, n, o: s.total("spectrum.find_zeros") / n),
    ("spectrum.find_zeros_calls", "1/item", ("spectrum.find_zeros",),
     lambda s, n, o: s.calls("spectrum.find_zeros") / n),
    ("spectrum.self_s", "s/item", ("spectrum.count_zeros", "spectrum.find_zeros"),
     lambda s, n, o: s.layer_self("spectrum") / n),
    ("spectrum.boundary_errors", "1/item",
     ("spectrum.count_zeros", "spectrum.find_zeros"),
     lambda s, n, o: (s.errors_from("spectrum.count_zeros", "BoundaryProximityError")
                      + s.errors_from("spectrum.find_zeros",
                                      "BoundaryProximityError")) / n),
    ("numerics.quad_calls", "1/item", (_Q,), lambda s, n, o: s.calls(_Q) / n),
    ("numerics.quad_panels", "1/item", (_Q,),
     lambda s, n, o: int(np.count_nonzero(_children(s, INTEGRAND, _Q))) / n),
    ("numerics.quad_points", "1/item", (_Q,),
     lambda s, n, o: int(s.work[_children(s, INTEGRAND, _Q)].sum()) / n),
    ("numerics.quad_self_s", "s/item", _QUAD, lambda s, n, o: s.self_of(*_QUAD) / n),
    ("numerics.quad_errors", "1/item", (_Q,),
     lambda s, n, o: s.errors_from(_Q, "QuadratureError") / n),
    ("numerics.winding_calls", "1/item", (_W,), lambda s, n, o: s.calls(_W) / n),
    ("numerics.winding_batches", "1/item", (_W,),
     lambda s, n, o: int(np.count_nonzero(_children(s, INTEGRAND, _W))) / n),
    ("numerics.winding_points", "1/item", (_W,),
     lambda s, n, o: int(s.work[_children(s, INTEGRAND, _W)].sum()) / n),
    ("numerics.winding_self_s", "s/item", (_W,), lambda s, n, o: s.self_of(_W) / n),
    ("dispersion.lam_many_calls", "1/item", ("dispersion.lam_many",),
     lambda s, n, o: s.calls("dispersion.lam_many") / n),
    ("dispersion.lam_many_points", "1/item", ("dispersion.lam_many",),
     lambda s, n, o: s.work_sum("dispersion.lam_many") / n),
    ("dispersion.points_per_call", "1/call", ("dispersion.lam_many",),
     lambda s, n, o: _ratio(s.work_sum("dispersion.lam_many"),
                            s.calls("dispersion.lam_many"))),
    ("dispersion.lam_calls", "1/item", ("dispersion.lam",),
     lambda s, n, o: s.calls("dispersion.lam") / n),
    ("dispersion.lam_prime_calls", "1/item", ("dispersion.lam_prime",),
     lambda s, n, o: s.calls("dispersion.lam_prime") / n),
    ("dispersion.boundary_points", "1/item",
     ("dispersion.boundary_arrays", "dispersion.lam_boundary"),
     lambda s, n, o: (s.work_sum("dispersion.boundary_arrays")
                      + s.calls("dispersion.lam_boundary")) / n),
    ("dispersion.imag_axis_points", "1/item", ("dispersion.lam_imag_axis",),
     lambda s, n, o: s.work_sum("dispersion.lam_imag_axis") / n),
    ("dispersion.self_s", "s/item", ("dispersion.lam_many",),
     lambda s, n, o: s.layer_self("dispersion") / n),
    ("specfun.gauss_hilbert_points", "1/item",
     ("specfun.gauss_hilbert_array", "specfun.gauss_hilbert"),
     lambda s, n, o: (s.work_sum("specfun.gauss_hilbert_array")
                      + s.calls("specfun.gauss_hilbert")) / n),
    ("specfun.self_s", "s/item", ("specfun.gauss_hilbert_array",),
     lambda s, n, o: s.layer_self("specfun") / n),
    ("solution.compute_J_s", "s/item", ("solution.compute_J",),
     lambda s, n, o: s.total("solution.compute_J") / n),
    ("solution.compute_J_calls", "1/item", ("solution.compute_J",),
     lambda s, n, o: s.calls("solution.compute_J") / n),
    ("solution.field_e_s", "s/item", ("solution.field_e",),
     lambda s, n, o: s.total("solution.field_e") / n),
    ("solution.field_e_depths", "1/item", ("solution.field_e",),
     lambda s, n, o: s.work_sum("solution.field_e") / n),
    ("solution.panels_per_depth", "1/depth", ("solution.field_e", _Q),
     lambda s, n, o: _panels_per_depth(s)),
    ("solution.field_h_s", "s/item", ("solution.field_h",),
     lambda s, n, o: s.total("solution.field_h") / n),
    ("solution.identity_s", "s/item", ("solution.identity_residuals",),
     lambda s, n, o: s.total("solution.identity_residuals") / n),
    ("solution.identity_calls", "1/item", ("solution.identity_residuals",),
     lambda s, n, o: s.calls("solution.identity_residuals") / n),
    ("solution.impedance_s", "s/item", ("solution.impedance",),
     lambda s, n, o: s.total("solution.impedance") / n),
    ("oracle.fourier_s", "s/item", ("oracle.fourier_impedance",),
     lambda s, n, o: s.total("oracle.fourier_impedance") / n),
    ("oracle.fourier_calls", "1/item", ("oracle.fourier_impedance",),
     lambda s, n, o: s.calls("oracle.fourier_impedance") / n),
    ("oracle.fd_profile_s", "s/item", ("oracle.fd_profile",),
     lambda s, n, o: s.total("oracle.fd_profile") / n),
    ("oracle.fd_profile_calls", "1/item", ("oracle.fd_profile",),
     lambda s, n, o: s.calls("oracle.fd_profile") / n),
    ("oracle.fd_sparse_solve_s", "s/item", ("oracle.spsolve",),
     lambda s, n, o: s.total("oracle.spsolve") / n),
    ("oracle.fd_assembly_s", "s/item", ("oracle.fd_profile", "oracle.spsolve"),
     lambda s, n, o: s.self_of("oracle.fd_profile") / n),
    ("oracle.fd_unknowns", "1/call", ("oracle.fd_profile",),
     lambda s, n, o: _ratio(s.work_sum("oracle.fd_profile"),
                            s.calls("oracle.fd_profile"))),
    ("trace.items_per_s", "1/s", (), lambda s, n, o: o["traced_items_per_s"]),
    ("trace.untraced_items_per_s", "1/s", (),
     lambda s, n, o: o["untraced_items_per_s"]),
)


def layer_metrics(spans: Spans, items: int, missing, outputs: dict,
                  time_scale: float = 1.0) -> dict:
    """Every per-layer metric; ``None`` where a binding it needs is missing.

    Times (unit s/item) are multiplied by ``time_scale``, the traced
    loop's load-adjusted over wall time, so they are comparable with
    ``items_per_s`` across runs on a loaded machine.
    """
    missing = set(missing)
    out = {}
    for name, unit, needs, value in LAYER_METRICS:
        v = None
        if not missing.intersection(needs):
            v = float(value(spans, items, outputs))
            if unit == "s/item":
                v *= time_scale
        out[name] = {"value": v, "unit": unit}
    return out


# -- the ROADMAP Baseline table ----------------------------------------------
# (row, unit, bindings it needs, per-call samples from Spans)
BASELINE_ROWS = (
    ("count_zeros", "ms/call", ("spectrum.count_zeros",),
     lambda s: 1e3 * s.dur[s.mask("spectrum.count_zeros")]),
    ("lam_many calls per count", "1/count",
     ("spectrum.count_zeros", "dispersion.lam_many"),
     lambda s: s.per_ancestor("dispersion.lam_many", "spectrum.count_zeros")),
    ("lam_many points per call in count_zeros", "1/call",
     ("spectrum.count_zeros", "dispersion.lam_many"),
     lambda s: s.work[s.mask("dispersion.lam_many")
                      & (s.ancestor("spectrum.count_zeros") >= 0)]),
    ("find_zeros", "ms/call", ("spectrum.find_zeros",),
     lambda s: 1e3 * s.dur[s.mask("spectrum.find_zeros")]),
    ("compute_J", "ms/call", ("solution.compute_J",),
     lambda s: 1e3 * s.dur[s.mask("solution.compute_J")]),
    ("fourier_impedance", "ms/call", ("oracle.fourier_impedance",),
     lambda s: 1e3 * s.dur[s.mask("oracle.fourier_impedance")]),
    ("identity_residuals", "ms/call", ("solution.identity_residuals",),
     lambda s: 1e3 * s.dur[s.mask("solution.identity_residuals")]),
    ("fd_profile", "s/call", ("oracle.fd_profile",),
     lambda s: s.dur[s.mask("oracle.fd_profile")]),
    ("field_e panels per depth", "1/depth", ("solution.field_e", _Q),
     lambda s: _field_e_panels(s)),
    ("field_e", "s/depth", ("solution.field_e",),
     lambda s: s.dur[s.mask("solution.field_e")]
     / np.maximum(s.work[s.mask("solution.field_e")], 1)),
)


def _field_e_panels(s: Spans) -> np.ndarray:
    """Panels of each integrate_finite call made under field_e (one a depth)."""
    per_quad = s.per_ancestor(INTEGRAND, _Q)
    quad_ids = np.nonzero(s.mask(_Q))[0]
    return per_quad[s.ancestor("solution.field_e")[quad_ids] >= 0]


def baseline_summary(spans: Spans, missing, time_scale: float = 1.0) -> dict:
    """Per-call statistics of each Baseline row; ``None`` where absent.

    Times are multiplied by ``time_scale``, as in ``layer_metrics``.
    """
    missing = set(missing)
    out = {}
    for row, unit, needs, samples in BASELINE_ROWS:
        stats = None
        if not missing.intersection(needs):
            v = np.asarray(samples(spans), dtype=float)
            if unit.split("/")[0] in ("s", "ms"):
                v = v * time_scale
            stats = {"n": int(v.size)}
            if v.size:
                stats.update(min=float(v.min()), median=float(np.median(v)),
                             max=float(v.max()), mean=float(v.mean()))
        out[row] = {"unit": unit, "stats": stats}
    return out
