"""Command-line interface: sweeps, profiles, self checks, exit codes."""

import csv
import io
import json
import math
import pickle

import numpy as np
import pytest

from plasmaskin import cli
from plasmaskin.cli import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    dump_profile,
    main,
    run_selfcheck,
    run_sweep,
    write_rows_csv,
    write_rows_json,
)
from plasmaskin.dispersion import make_params
from plasmaskin.errors import BoundaryProximityError, DomainError, PlasmaSkinError
from plasmaskin.solution import field_h, impedance


class TestSweep:
    def test_two_point_sweep(self):
        spec = SweepSpec(gamma_start=0.4, gamma_end=0.6, n_points=2)
        rows = run_sweep(spec, max_workers=1)
        assert len(rows) == 2
        assert rows[0].gamma < rows[1].gamma
        assert all(r.status == "ok" for r in rows)

    def test_row_invariants(self):
        spec = SweepSpec(gamma_start=0.3, gamma_end=1.2, n_points=5)
        for r in run_sweep(spec, max_workers=1):
            assert r.status == "ok"
            assert abs(r.abs_Z0 - math.hypot(r.re_Z0, r.im_Z0)) <= 1e-14 * r.abs_Z0
            assert -math.pi < r.arg_Z0 <= math.pi
            assert r.n_zeros in (2, 4)

    def test_log_scale_grid(self):
        spec = SweepSpec(gamma_start=0.01, gamma_end=1.0, n_points=3, scale="log")
        gs = [r.gamma for r in run_sweep(spec, max_workers=1)]
        assert gs == pytest.approx([0.01, 0.1, 1.0], rel=1e-12)

    def test_deterministic(self):
        spec = SweepSpec(gamma_start=0.8, gamma_end=0.9, n_points=3)
        a = run_sweep(spec, max_workers=1)
        b = run_sweep(spec, max_workers=1)
        assert a == b

    def test_near_boundary_rows_do_not_abort(self):
        # gamma just above resonance with large v_c: the discrete zero
        # approaches the cut and the rows must be tagged, not raised.
        spec = SweepSpec(gamma_start=1.25, gamma_end=1.35, n_points=2, v_c=0.4)
        rows = run_sweep(spec, max_workers=1)
        assert len(rows) == 2
        assert all(r.status == "near_boundary" for r in rows)
        for r in rows:
            assert r.re_Z0 is None and r.abs_Z0 is None and r.n_zeros is None

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(gamma_start=0.5, gamma_end=0.4, n_points=10)
        with pytest.raises(DomainError):
            SweepSpec(gamma_start=0.1, gamma_end=0.4, n_points=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_spec_rejects_non_integer_count(self, n):
        # 2.5 used to pass and fail later inside numpy with a TypeError.
        with pytest.raises(DomainError, match="integer"):
            SweepSpec(gamma_start=0.1, gamma_end=0.4, n_points=n)

    @pytest.mark.parametrize("field", ["gamma_start", "gamma_end",
                                       "epsilon", "v_c"])
    def test_spec_rejects_bool_parameters(self, field):
        # A bool epsilon or v_c used to pass here and fail on every row.
        kwargs = {"gamma_start": 0.1, "gamma_end": 2.0, "n_points": 5,
                  field: True}
        with pytest.raises(DomainError, match="bools"):
            SweepSpec(**kwargs)

    def test_spec_accepts_numpy_counts(self):
        spec = SweepSpec(gamma_start=np.float64(0.1), gamma_end=0.4,
                         n_points=np.int64(3))
        assert spec.grid().tolist() == pytest.approx([0.1, 0.25, 0.4])

    @pytest.mark.parametrize("field", ["gamma_start", "gamma_end",
                                       "epsilon", "v_c"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_spec_rejects_non_finite(self, field, value):
        kwargs = {"gamma_start": 0.5, "gamma_end": 0.6, "n_points": 5,
                  field: value}
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(**kwargs)

    def test_infinite_gamma_end_is_a_usage_error(self, capsys):
        # It used to exit 0 and write "gamma": NaN / Infinity, which
        # strict JSON parsers reject.
        code = main(["sweep", "--gamma-start", "0.5", "--gamma-end", "inf",
                     "--points", "5", "--format", "json"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


class TestFailedRowDetail:
    @pytest.fixture()
    def rows(self, monkeypatch):
        def outcome(p, info):
            if p.gamma < 0.45:
                return RuntimeError("spectrum step failed")
            if p.gamma > 0.55:
                return BoundaryProximityError("zero within 1e-9 of the cut")
            return info

        def analyze_line(ps):
            return [outcome(p, info) for p, info in zip(ps, real_line(ps))]

        real_line = cli._spectrum.analyze_line
        monkeypatch.setattr(cli._spectrum, "analyze_line", analyze_line)
        spec = SweepSpec(gamma_start=0.4, gamma_end=0.6, n_points=3)
        return run_sweep(spec, max_workers=1)

    def test_row_keeps_its_cause(self, rows):
        assert [r.status for r in rows] == ["error", "ok", "near_boundary"]
        assert [r.detail for r in rows] == [
            "RuntimeError: spectrum step failed", None,
            "zero within 1e-9 of the cut"]

    def test_detail_in_json_only(self, rows):
        buf = io.StringIO()
        write_rows_json(rows, buf)
        assert [d["detail"] for d in json.loads(buf.getvalue())] == [
            r.detail for r in rows]
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0.40000000000000002,,,,,,,,error"
        assert lines[3] == "0.59999999999999998,,,,,,,,near_boundary"


class TestSweepBlocks:
    def test_rows_do_not_depend_on_workers(self):
        # Three blocks, the last one short.
        spec = SweepSpec(gamma_start=0.9, gamma_end=1.1,
                         n_points=2 * cli._SWEEP_BLOCK + 3)
        assert run_sweep(spec, max_workers=1) == run_sweep(spec, max_workers=2)

    def test_block_agrees_with_single_point_impedance(self):
        spec = SweepSpec(gamma_start=0.95, gamma_end=1.05, n_points=5)
        for r in run_sweep(spec, max_workers=1):
            z0 = impedance(make_params(r.gamma, spec.epsilon, spec.v_c)).Z0
            assert abs(complex(r.re_Z0, r.im_Z0) - z0) <= 1e-10 * abs(z0)

    def test_failed_J_marks_only_its_row(self, monkeypatch):
        # |lam(i*tau)| dips to 0.013 at gamma = 0.95 and stays >= 1 above
        # the resonance, so a floor of 0.5 fails the block's J and then
        # the first row's J alone; the other rows get J point by point.
        monkeypatch.setattr(cli._solution, "_LAM_FLOOR", 0.5)
        spec = SweepSpec(gamma_start=0.95, gamma_end=1.1, n_points=4)
        rows = run_sweep(spec, max_workers=1)
        assert [r.status for r in rows] == ["error", "ok", "ok", "ok"]
        assert rows[0].detail.startswith("SpectralDegeneracyError: ")
        assert "gamma = 0.94999999999999996" in rows[0].detail
        assert rows[0].re_Z0 is None and rows[0].n_zeros is None
        for r in rows[1:]:
            z0 = impedance(make_params(r.gamma, spec.epsilon, spec.v_c)).Z0
            assert (r.re_Z0, r.im_Z0, r.detail) == (z0.real, z0.imag, None)


@pytest.mark.parametrize("args", [
    ["sweep", "--gamma-start", "0.7", "--gamma-end", "0.8", "--points", "2",
     "--workers", "1"],
    ["profile", "--gamma", "0.5", "--xmax", "10", "--points", "5"],
    ["selfcheck", "--panel", "PANEL"],
])
def test_out_file_matches_stdout(tmp_path, capsys, args):
    panel = tmp_path / "panel.json"
    panel.write_text(json.dumps([{"gamma": 1e-3, "epsilon": 1e-3, "v_c": 1e-3}]))
    args = [str(panel) if a == "PANEL" else a for a in args]
    assert main(args) == 0
    to_stdout = capsys.readouterr().out
    assert main(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out == to_stdout
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == to_stdout.encode()


class TestSweepRow:
    """Rows hold slots only; |Z0| and arg Z0 are derived from Z0."""

    def test_derived_fields_and_json_keys(self):
        rows = [SweepRow(gamma=1.0, re_Z0=-1.0, im_Z0=-0.0, n_zeros=2,
                         eta0_re=3.0, eta0_im=-4.0),
                SweepRow(gamma=2.0, status="error", detail="E: x")]
        assert rows[0].abs_Z0 == 1.0 and rows[0].arg_Z0 == math.pi
        assert rows[1].abs_Z0 is None and rows[1].arg_Z0 is None
        assert not hasattr(rows[0], "__dict__")
        assert pickle.loads(pickle.dumps(rows)) == rows
        buf = io.StringIO()
        write_rows_json(rows, buf)
        data = json.loads(buf.getvalue())
        assert [list(d) for d in data] == [CSV_HEADER.split(",") + ["detail"]] * 2
        assert data[0]["arg_Z0"] == math.pi and data[1]["abs_Z0"] is None


class TestCsvRoundTrip:
    def test_header_and_bit_exact_roundtrip(self):
        spec = SweepSpec(gamma_start=0.45, gamma_end=0.55, n_points=3)
        rows = run_sweep(spec, max_workers=1)
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        text = buf.getvalue().splitlines()
        assert text[0] == CSV_HEADER
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        for r, d in zip(rows, parsed):
            assert float(d["gamma"]) == r.gamma
            assert float(d["re_Z0"]) == r.re_Z0
            assert float(d["im_Z0"]) == r.im_Z0
            assert float(d["arg_Z0"]) == r.arg_Z0
            assert int(d["n_zeros"]) == r.n_zeros
            assert d["status"] == "ok"

    def test_sweep_csv_determinism_via_main(self, tmp_path):
        args = ["sweep", "--gamma-start", "0.7", "--gamma-end", "0.8",
                "--points", "3", "--epsilon", "1e-3", "--vc", "1e-3"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_text() == f2.read_text()

    def test_json_output(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["sweep", "--gamma-start", "0.7", "--gamma-end", "0.8",
                     "--points", "2", "--format", "json", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2 and rows[0]["status"] == "ok"


class TestProfile:
    def test_first_row_is_unit_modulus(self, base_params):
        buf = io.StringIO()
        dump_profile(base_params, 20.0, 40, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 40
        assert abs(float(rows[0]["abs_e"]) - 1.0) < 1e-6

    def test_decay_at_tail(self, base_params):
        buf = io.StringIO()
        dump_profile(base_params, 20.0, 40, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert float(rows[-1]["abs_e"]) < 1e-6

    def test_minimal_grid(self, base_params):
        buf = io.StringIO()
        dump_profile(base_params, 5.0, 2, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 2
        assert float(rows[0]["x"]) == 0.0
        assert float(rows[1]["x"]) == 5.0

    @pytest.mark.parametrize("x_max, n", [(math.inf, 5), (math.nan, 5),
                                          (-1.0, 5), (5.0, 2.5), (5.0, 1),
                                          (5.0, True)])
    def test_bad_grid_rejected_up_front(self, base_params, x_max, n):
        # x_max = inf used to raise a numpy RuntimeWarning first, and
        # n = 2.5 a numpy TypeError.
        buf = io.StringIO()
        with pytest.raises(DomainError):
            dump_profile(base_params, x_max, n, buf)
        assert buf.getvalue() == ""

    def test_numpy_count_accepted(self, base_params):
        buf = io.StringIO()
        dump_profile(base_params, 5.0, np.int64(3), buf)
        assert len(buf.getvalue().splitlines()) == 4

    def test_usage_error_keeps_out_file(self, tmp_path):
        out = tmp_path / "prof.csv"
        out.write_text("old\n")
        code = main(["profile", "--gamma", "0.5", "--xmax", "-1",
                     "--out", str(out)])
        assert code == 2
        assert out.read_text() == "old\n"

    def test_computational_failure_keeps_out_file(self, tmp_path,
                                                  monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise PlasmaSkinError("forced failure")

        monkeypatch.setattr(cli, "field_e", broken)
        out = tmp_path / "prof.csv"
        out.write_text("old\n")
        code = main(["profile", "--gamma", "0.5", "--out", str(out)])
        assert code == 1
        assert out.read_text() == "old\n"
        assert "forced failure" in capsys.readouterr().err

    def test_via_main(self, tmp_path):
        out = tmp_path / "prof.csv"
        code = main(["profile", "--gamma", "0.001", "--xmax", "10",
                     "--points", "5", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("x,re_e,im_e,abs_e")

    @pytest.mark.parametrize("gamma", ["1.0", "2.0"])
    def test_small_epsilon_via_main(self, tmp_path, gamma):
        out = tmp_path / "prof.csv"
        code = main(["profile", "--gamma", gamma, "--epsilon", "1e-4",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 200
        assert abs(float(rows[0]["abs_e"]) - 1.0) < 1e-6


class TestSelfcheck:
    def test_single_point_report(self):
        report = run_selfcheck([(1e-3, 1e-3, 1e-3)])
        assert report["all_pass"] is True
        entry = report["points"][0]
        assert entry["status"] == "pass"
        assert set(entry["checks"]) == {
            "field_normalization", "coefficient_constant", "resolvent",
            "surface_field", "specularity", "oracle_agreement"}

    def test_absurd_point_is_captured_not_raised(self):
        # The point is unphysical but must never crash the report: any
        # outcome (including a clean pass) is acceptable as long as the
        # entry is well formed.
        report = run_selfcheck([(0.5, 1e-3, 1e3)])
        entry = report["points"][0]
        assert entry["status"] in ("pass", "fail", "error", "near_boundary")
        assert entry["gamma"] == 0.5

    def test_empty_panel_rejected(self):
        with pytest.raises(DomainError):
            run_selfcheck([])

    def test_one_field_h_call_per_point(self, monkeypatch):
        calls = []

        def spy(x, mu, *args, **kwargs):
            calls.append(np.shape(mu))
            return field_h(x, mu, *args, **kwargs)

        monkeypatch.setattr(cli, "field_h", spy)
        report = run_selfcheck([(0.5, 1e-3, 1e-3), (1.3, 1e-3, 1e-3)])
        assert report["all_pass"] is True
        assert calls == [(2, 3), (2, 3)]

    def test_main_exit_codes(self, tmp_path):
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(
            [{"gamma": 1e-3, "epsilon": 1e-3, "v_c": 1e-3}]))
        out = tmp_path / "report.json"
        assert main(["selfcheck", "--panel", str(panel), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True

    def test_empty_panel_via_main(self, tmp_path):
        panel = tmp_path / "panel.json"
        panel.write_text("[]")
        assert main(["selfcheck", "--panel", str(panel)]) == 2

    @pytest.mark.parametrize("text, message", [
        ('[{"gamma": 0.5,', "not valid JSON"),
        ('[{"gamma": 0.5, "epsilon": 1e-3}]', "needs numeric gamma"),
        ('{"gamma": 0.5, "epsilon": 1e-3, "v_c": 1e-3}', "JSON list"),
    ])
    def test_malformed_panel_is_a_usage_error(self, tmp_path, capsys,
                                              text, message):
        panel = tmp_path / "panel.json"
        panel.write_text(text)
        assert main(["selfcheck", "--panel", str(panel)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scale", "cubic"])
    assert exc.value.code == 2


def test_io_error_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["sweep", "--gamma-start", "0.5", "--gamma-end", "0.6",
                 "--points", "2", "--out", str(missing_dir)])
    assert code == 1
