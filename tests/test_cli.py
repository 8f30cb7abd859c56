"""End-to-end tests of the command-line front end."""

import csv
import json

import numpy as np
import pytest

from sonarwave.ambiguity import (
    ambiguity_numeric, gsfm_af_closed, read_binary_surface,
)
from sonarwave.analysis import UndefinedMetricError, papr
from sonarwave.cli import _load_spec, run
from sonarwave.gbf import TruncationError
from sonarwave.signal_core import ParameterError, SampledSignal
from sonarwave.transducer import FormatError
from sonarwave.waveforms import CodeError, generate, m_sequence

SFM = {
    "family": "sfm", "T": 0.1, "f_c": 2000.0, "delta_f": 200.0, "f_m": 50.0,
}
LFM = {"family": "lfm", "T": 0.1, "f_c": 2000.0, "delta_f": 200.0}
GSFM = {
    "family": "gsfm", "T": 0.1, "f_c": 2000.0, "delta_f": 200.0,
    "rho": 2.0, "cycles": 5.0,
}


@pytest.fixture
def spec_file(tmp_path):
    def write(data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


class TestGen:
    def test_writes_and_round_trips(self, spec_file, tmp_path):
        out = tmp_path / "sig.csv"
        assert run(["gen", "--spec", spec_file(LFM), "--out", str(out)]) == 0
        t, re, im = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
        sig = SampledSignal(samples=re + 1j * im,
                            sample_rate=1.0 / np.mean(np.diff(t)))
        assert sig.energy == pytest.approx(1.0, rel=1e-6)
        # Metrics of the re-ingested signal match the original waveform.
        from sonarwave.waveforms import WaveformSpec, generate

        ref = generate(WaveformSpec.from_dict(LFM))
        assert papr(sig) == pytest.approx(papr(ref), abs=1e-6)
        assert len(sig) == len(ref)

    def test_determinism(self, spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = spec_file(SFM)
        assert run(["gen", "--spec", spec, "--out", str(a)]) == 0
        assert run(["gen", "--spec", spec, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMetrics:
    def test_json_report(self, spec_file, tmp_path):
        out = tmp_path / "m.json"
        assert run(
            ["metrics", "--spec", spec_file(SFM), "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["papr_db"] == pytest.approx(3.01, abs=0.05)
        assert data["carson_hz"] == pytest.approx(2 * (2 + 1) * 50.0)
        assert 0.0 < data["se"] <= 1.0

    def test_stdout_default(self, spec_file, capsys):
        assert run(["metrics", "--spec", spec_file(SFM)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "band_98" in data

    def test_undefined_band(self, spec_file, capsys):
        # The 98% band of a 255-chip BPSK at 2 kHz does not fit the grid:
        # with --band the report stands without it, without it exit 1.
        bpsk = {"family": "bpsk", "T": 0.5, "f_c": 2000.0,
                "code": [int(b) for b in m_sequence(8)]}
        path = spec_file(bpsk)
        assert run(["metrics", "--spec", path, "--band", "1000"]) == 0
        out = capsys.readouterr().out
        assert '"band_98": null' in out and '"tbp": null' in out
        assert np.isfinite(json.loads(out)["se"])
        assert run(["metrics", "--spec", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spectrum grid too narrow")


class TestSpectrum:
    def test_fft_csv(self, spec_file, tmp_path):
        out = tmp_path / "sp.csv"
        assert run(
            ["spectrum", "--spec", spec_file(SFM), "--out", str(out),
             "--fmin", "1500", "--fmax", "2500"]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "f,psd_db"
        freqs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        assert freqs.min() >= 1500.0 and freqs.max() <= 2500.0

    def test_closed_matches_fft_peak(self, spec_file, tmp_path):
        a, b = tmp_path / "fft.csv", tmp_path / "closed.csv"
        spec = spec_file(SFM)
        assert run(["spectrum", "--spec", spec, "--method", "fft",
                    "--fmin", "1900", "--fmax", "2100", "--out", str(a)]) == 0
        assert run(["spectrum", "--spec", spec, "--method", "closed",
                    "--fmin", "1900", "--fmax", "2100", "--out", str(b)]) == 0
        assert len(a.read_text().splitlines()) > 10
        assert len(b.read_text().splitlines()) > 10

    @pytest.mark.parametrize("method", ["fft", "closed"])
    @pytest.mark.parametrize("band, message", [
        (["--fmin=nan"], "--fmin must be a finite number"),
        (["--fmin=inf"], "--fmin must be a finite number"),
        (["--fmax=-inf"], "--fmax must be a finite number"),
        (["--fmin", "3000", "--fmax", "1000"], "is above --fmax"),
    ])
    def test_bad_band(self, spec_dir, tmp_path, capsys, band, message, method):
        # Each exited 0 with a header-only CSV.
        out = tmp_path / "sp.csv"
        assert run(["spectrum", "--spec", str(spec_dir / "fig5_sfm.json"),
                    "--method", method, *band, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_closed_unavailable_for_lfm(self, spec_file, tmp_path, capsys):
        assert run(
            ["spectrum", "--spec", spec_file(LFM), "--method", "closed",
             "--out", str(tmp_path / "x.csv")]
        ) == 1
        assert "closed-form" in capsys.readouterr().err


class TestAf:
    def test_origin_cell(self, spec_file, tmp_path):
        out = tmp_path / "af.csv"
        assert run(
            ["af", "--spec", spec_file(LFM), "--taus", "0", "--etas", "1",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "tau,eta,v,value"
        tau, eta, v, value = (float(x) for x in lines[1].split(","))
        assert (tau, eta, v) == (0.0, 1.0, 0.0)
        assert value == pytest.approx(1.0)

    def test_binary_round_trip(self, spec_file, tmp_path):
        out = tmp_path / "af.bin"
        assert run(
            ["af", "--spec", spec_file(LFM), "--taus=-0.05:0.05:21",
             "--etas", "0.999:1.001:5", "--format", "f32bin",
             "--out", str(out)]
        ) == 0
        surf = read_binary_surface(out)
        assert surf.values.shape == (5, 21)
        assert surf.values.max() == pytest.approx(1.0)

    def test_binary_non_uniform_grid(self, spec_file, tmp_path):
        out = tmp_path / "af.bin"
        assert run(
            ["af", "--spec", spec_file(LFM), "--taus=0,0.01,0.05",
             "--etas", "0.999,1,1.002", "--format", "f32bin",
             "--out", str(out)]
        ) == 0
        surf = read_binary_surface(out)
        np.testing.assert_array_equal(surf.delays, [0.0, 0.01, 0.05])
        np.testing.assert_array_equal(surf.dopplers, [0.999, 1.0, 1.002])

    @pytest.mark.parametrize("closed", [[], ["--closed"]],
                             ids=["numeric", "closed"])
    def test_grid_off_the_origin_warns(self, spec_file, tmp_path, capsys,
                                       closed):
        # The surface is normalized to its own maximum, off the origin.
        out = tmp_path / "af.csv"
        assert run(["af", "--spec", spec_file(SFM), "--taus=0.01,0.02",
                    "--etas", "1", *closed, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: ") == 1
        assert "does not span tau = 0, eta = 1" in err
        assert np.loadtxt(out, delimiter=",", skiprows=1)[:, 3].max() == 1.0
        assert run(["af", "--spec", spec_file(SFM), "--taus=-0.01:0.01:3",
                    "--etas", "1", *closed, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_form_path(self, spec_file, tmp_path):
        out = tmp_path / "af.csv"
        assert run(
            ["af", "--spec", spec_file(SFM), "--taus", "0,0.01",
             "--etas", "1", "--closed", "--out", str(out)]
        ) == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_closed_reciprocal_rows_match_one_row_calls(
        self, spec_dir, tmp_path
    ):
        # 1 / 0.8 == 1.25 exactly, so the 0.8 row folds onto the 1.25 row.
        out = tmp_path / "af.csv"
        spec = spec_dir / "fig6_gsfm.json"
        assert run(["af", "--spec", str(spec), "--taus=-0.5:0.5:41",
                    "--etas", "0.8,1,1.25", "--closed", "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        taus = np.linspace(-0.5, 0.5, 41)
        rows = [gsfm_af_closed(_load_spec(spec), None, taus, eta) ** 2
                for eta in (0.8, 1.0, 1.25)]
        want = np.concatenate(rows) / np.max(rows)
        np.testing.assert_array_equal(got[:, 0], np.tile(taus, 3))
        assert np.max(np.abs(got[:, 3] - want)) <= 1e-10

    @pytest.mark.parametrize("c", ["0", "nan", "-1500"])
    def test_bad_sound_speed(self, spec_file, tmp_path, capsys, c):
        # Each exited 0: c = 0 wrote every velocity as -0.0, nan as nan,
        # and -1500 flipped their sign.
        out = tmp_path / "af.csv"
        assert run(["af", "--spec", spec_file(LFM), "--taus=0,0.01",
                    "--etas=1,1.001", f"--c={c}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sound speed" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_grid_syntax(self, spec_file, tmp_path, capsys):
        assert run(
            ["af", "--spec", spec_file(LFM), "--taus", "0:1", "--etas", "1",
             "--out", str(tmp_path / "x.csv")]
        ) == 1


class TestCsvText:
    """The CSV writers produce the bytes of a ``csv.writer`` per row."""

    @staticmethod
    def writer_csv(path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(float(x)) for x in row])

    def test_gen_readme_example(self, spec_dir, tmp_path):
        out, ref = tmp_path / "gsfm.csv", tmp_path / "ref.csv"
        spec = spec_dir / "fig6_gsfm.json"
        assert run(["gen", "--spec", str(spec), "--out", str(out)]) == 0
        sig = generate(_load_spec(spec))
        self.writer_csv(ref, ["t", "re", "im"],
                        zip(sig.times, sig.samples.real, sig.samples.imag))
        assert out.read_bytes() == ref.read_bytes()

    def test_af_readme_example(self, spec_dir, tmp_path):
        out, ref = tmp_path / "af.csv", tmp_path / "ref.csv"
        spec = spec_dir / "fig6_gsfm.json"
        assert run(["af", "--spec", str(spec), "--taus=-0.25:0.25:101",
                    "--etas", "0.99:1.01:101", "--out", str(out)]) == 0
        taus = np.linspace(-0.25, 0.25, 101)
        etas = np.linspace(0.99, 1.01, 101)
        surf = ambiguity_numeric(generate(_load_spec(spec)), taus, etas)
        v = surf.velocities
        self.writer_csv(ref, ["tau", "eta", "v", "value"],
                        ((tau, eta, v[i], surf.values[i, j])
                         for i, eta in enumerate(etas)
                         for j, tau in enumerate(taus)))
        assert out.read_bytes() == ref.read_bytes()


class TestReportCsv:
    """Report rows whose error text holds commas keep the header's width."""

    BAD_COSTAS = {"family": "costas", "T": 0.1, "f_c": 2000.0,
                  "delta_f": 400.0, "code": [1, 2, 3, 4]}
    MESSAGE = "code [1, 2, 3, 4] fails the Costas difference check"

    def check(self, path, label):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows)
        by = {row[0]: dict(zip(header, row)) for row in rows}
        assert by[label]["error"] == self.MESSAGE
        return by

    def test_compare(self, spec_file, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(
            ["compare", "--specs", spec_file(self.BAD_COSTAS, "bad.json"),
             spec_file(LFM, "lfm.json"), "--band", "500", "--out", str(out)]
        ) == 0
        by = self.check(out, "bad")
        assert by["lfm"]["error"] == ""

    def test_trw(self, spec_file, tmp_path):
        resp = tmp_path / "resp.json"
        resp.write_text(json.dumps({"f_r": 2000.0, "band": [1800.0, 2200.0],
                                    "ripple_db": 4.07}))
        out = tmp_path / "trw.csv"
        assert run(
            ["trw", "--specs", spec_file(GSFM, "gsfm.json"),
             spec_file(self.BAD_COSTAS, "bad.json"), "--response", str(resp),
             "--reference", "gsfm", "--out", str(out)]
        ) == 0
        by = self.check(out, "bad")
        assert float(by["gsfm"]["e_tilde_db"]) == 0.0


class TestCompare:
    def test_auto_band_table(self, spec_file, tmp_path):
        d = tmp_path / "specs"
        d.mkdir()
        (d / "a_gsfm.json").write_text(json.dumps(GSFM))
        (d / "b_lfm.json").write_text(json.dumps(LFM))
        out = tmp_path / "cmp.csv"
        assert run(
            ["compare", "--specs", str(d), "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("label,family,band_hz")
        assert len(lines) == 3
        assert lines[1].startswith("a_gsfm,gsfm")

    def test_json_format(self, spec_file, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(
            ["compare", "--specs", spec_file(GSFM), "--band", "300",
             "--format", "json", "--out", str(out)]
        ) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["band_hz"] == 300.0

    def test_empty_directory(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert run(["compare", "--specs", str(d)]) == 1

    @pytest.mark.parametrize("band, message", [
        ("foo", "'auto' or a number"),
        ("nan", "band_hz"),
        ("-5", "band_hz"),
    ])
    def test_bad_band(self, spec_file, tmp_path, capsys, band, message):
        # "foo" was a ValueError traceback; nan and -5 exited 0 with an
        # error in every row.
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--specs", spec_file(GSFM), f"--band={band}",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestTrw:
    def response(self, tmp_path, **extra):
        cfg = {"mode": "parametric", "f_r": 2000.0,
               "band": [1800.0, 2200.0], "ripple_db": 4.07}
        cfg.update(extra)
        path = tmp_path / "resp.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_report(self, spec_file, tmp_path):
        out = tmp_path / "trw.csv"
        assert run(
            ["trw", "--specs", spec_file(GSFM, "gsfm.json"),
             spec_file(LFM, "lfm.json"),
             "--response", self.response(tmp_path),
             "--reference", "gsfm", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        by = {l.split(",")[0]: l for l in lines[1:]}
        assert float(by["gsfm"].split(",")[3]) == 0.0

    def test_equalize_config(self, spec_file, tmp_path):
        out = tmp_path / "trw.json"
        assert run(
            ["trw", "--specs", spec_file(GSFM, "gsfm.json"),
             "--response", self.response(tmp_path, equalize_to=0.39),
             "--reference", "gsfm", "--format", "json", "--out", str(out)]
        ) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["e_tilde_db"] == 0.0

    def test_repeated_label(self, spec_file, tmp_path, capsys):
        # Two files with one stem would report one energy for both.
        other = tmp_path / "other"
        other.mkdir()
        (other / "gsfm.json").write_text(json.dumps(LFM))
        out = tmp_path / "trw.csv"
        assert run(
            ["trw", "--specs", spec_file(GSFM, "gsfm.json"), str(other),
             "--response", self.response(tmp_path),
             "--reference", "gsfm", "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'gsfm'" in err
        assert not out.exists()

    def test_unknown_config_field(self, spec_file, tmp_path, capsys):
        assert run(
            ["trw", "--specs", spec_file(GSFM, "gsfm.json"),
             "--response", self.response(tmp_path, rippl_db=1.0),
             "--reference", "gsfm"]
        ) == 1
        assert "rippl_db" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: dict(c, band=5), "band must be two numbers"),
        (lambda c: dict(c, band=[1800.0, 2000.0, 2200.0]),
         "band must be two numbers"),
        (lambda c: dict(c, band=[True, 2200.0]), "band must be two numbers"),
        (lambda c: dict(c, band=[-1.0, 2200.0]), "need 0 < band[0] < f_r"),
        (lambda c: dict(c, band=[1800.0, 1e308]), "need 0 < band[0] < f_r"),
        (lambda c: dict(c, f_r="x"), "got f_r = 'x'"),
        (lambda c: dict(c, ripple_db=None), "ripple_db must be"),
        (lambda c: dict(c, equalize_to="a"), "target_ripple_db must be"),
        (lambda c: [1, 2], "response config must be a JSON object"),
        (lambda c: {k: v for k, v in c.items() if k != "f_r"},
         "missing response config field(s): ['f_r']"),
        (lambda c: dict(c, mode="tabulated", table_path=5),
         "table_path must be"),
        (lambda c: dict(c, mode="tabulated", table_path="missing.csv"),
         "cannot read response table"),
        (lambda c: dict(c, mode="tabulated", table_path="blank_first.csv"),
         "row 0: expected 3 columns"),
    ])
    def test_malformed_config(self, spec_file, tmp_path, monkeypatch, capsys,
                              edit, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blank_first.csv").write_text(
            "\n1000.0,0.0,0.0\n3000.0,-1.0,0.1\n"
        )
        cfg = {"mode": "parametric", "f_r": 2000.0,
               "band": [1800.0, 2200.0], "ripple_db": 4.07}
        (tmp_path / "resp.json").write_text(json.dumps(edit(cfg)))
        out = tmp_path / "trw.csv"
        assert run(
            ["trw", "--specs", spec_file(GSFM, "gsfm.json"),
             "--response", "resp.json", "--reference", "gsfm",
             "--out", str(out)]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestErrors:
    def test_one_error_root(self):
        # Every invalid-input error is a ParameterError, the class the CLI
        # turns into exit 1.
        for cls in (FormatError, UndefinedMetricError, CodeError,
                    TruncationError):
            assert issubclass(cls, ParameterError)

    def test_unknown_spec_field(self, spec_file, tmp_path, capsys):
        bad = dict(LFM, rho_=2.0)
        assert run(
            ["metrics", "--spec", spec_file(bad)]
        ) == 1
        assert "rho_" in capsys.readouterr().err

    def test_non_finite_spec_field(self, spec_file, tmp_path, capsys):
        bad = {"family": "cw", "T": float("nan"), "f_c": 2000.0}
        assert run(
            ["gen", "--spec", spec_file(bad), "--out", str(tmp_path / "x.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "T must be finite" in err
        assert "Traceback" not in err

    def test_sample_count_cap(self, spec_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        hour = {"family": "cw", "T": 3600.0, "f_c": 2000.0}
        assert run(["gen", "--spec", spec_file(hour), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_costas_order_cap(self, spec_file, tmp_path, capsys):
        # Within the sample cap, but its Welch code and Costas check would
        # take minutes: refused when the spec is built.
        out = tmp_path / "x.csv"
        big = {"family": "costas", "T": 1.0, "f_c": 100.0, "delta_f": 10.0,
               "n_chips": 65536, "sample_rate": 1000.0}
        assert run(["gen", "--spec", spec_file(big), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: Costas order 65536 is beyond the cap of 1024\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        (dict(LFM, taper={"kind": "tukey", "shape_param": "0.1"}),
         "shape_param must be a number"),
        ({"family": "bpsk", "T": 0.1, "f_c": 2000.0, "code": ["x", 1]},
         "code must be a sequence of integers"),
        ({"family": "bpsk", "T": 0.1, "f_c": 2000.0, "code": [0, 1.7, 1]},
         "code must be a sequence of integers"),
        ({"family": "bpsk", "T": 0.1, "f_c": 2000.0, "code": 5},
         "code must be a sequence of integers"),
        ({"family": "bpsk", "T": 0.5, "f_c": 2000.0, "delta_f": 200.0,
          "n_chips": 10, "code": [0, 1, 1, 0, 1]},
         "n_chips = 10 disagrees with the 5-chip code"),
        ({"family": "gsfm", "T": 4.0, "f_c": 2000.0, "delta_f": 200.0,
          "rho": 2000.0, "alpha": 1.0}, "rho is too large"),
        ({"family": "gsfm", "T": 4.0, "f_c": 2000.0, "delta_f": 200.0,
          "rho": 2000.0, "cycles": 10.0}, "rho is too large"),
    ])
    def test_malformed_spec_entry(self, spec_file, tmp_path, capsys, bad,
                                  message):
        assert run(
            ["gen", "--spec", spec_file(bad), "--out", str(tmp_path / "x.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad, message", [
        # JSON booleans are not numbers, though Python counts them as such.
        (dict(LFM, T=True), "T must be finite and a number"),
        (dict(LFM, n_chips=True), "n_chips must be a nonnegative integer"),
        (dict(LFM, family="bpsk", code=[True, False, True]),
         "code must be a sequence of integers"),
        (dict(LFM, taper={"kind": "tukey", "shape_param": True}),
         "shape_param must be a number"),
        (dict(LFM, family="qpsk", code=[0, 1], qpsk_sign=True),
         "qpsk_sign must be +1 or -1"),
        (dict(LFM, delta_f=None), "delta_f must be finite and a number"),
        (dict(LFM, family="bpsk", code=[10**30, 0]), "requires a bit code"),
        (dict(LFM, taper=5), "taper must be a JSON object, got int"),
        (dict(LFM, taper=None), "taper must be a JSON object"),
        ({"family": "lfm", "f_c": 2000.0},
         "missing waveform spec field(s): ['T']"),
        ([LFM], "waveform spec must be a JSON object, got list"),
        # 1.0 == 1, but only an integer sign samples.
        (dict(LFM, family="qpsk", code=[0, 1], qpsk_sign=1.0),
         "qpsk_sign must be +1 or -1"),
        # Checked for every family, so every spec is hashable.
        (dict(LFM, qpsk_sign=[]), "qpsk_sign must be +1 or -1"),
    ])
    def test_spec_input_contract(self, spec_file, tmp_path, capsys, bad,
                                 message):
        out = tmp_path / "x.csv"
        assert run(["gen", "--spec", spec_file(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        (["--taus=0:1:x", "--etas=1"], "not a number"),
        (["--taus=0,abc", "--etas=1"], "not a number"),
        (["--taus=nan,0", "--etas=1"], "non-finite"),
        (["--taus=0", "--etas=1,inf"], "non-finite"),
        (["--taus=0:1:1000000000000", "--etas=1"], "grid count"),
    ])
    def test_malformed_af_grid(self, spec_file, tmp_path, capsys, grid,
                               message):
        out = tmp_path / "x.csv"
        assert run(["af", "--spec", spec_file(LFM), *grid,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert run(["metrics", "--spec", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["metrics", "--spec", str(path)]) == 1

    def test_closed_af_order_cap(
        self, spec_file, tmp_path, capsys, huge_order_sfm, no_allocation
    ):
        assert run(
            ["af", "--spec", spec_file(huge_order_sfm), "--taus=-0.1:0.1:3",
             "--etas", "1.0", "--closed", "--out", str(tmp_path / "af.csv")]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap" in err
        assert "Traceback" not in err

    def test_closed_spectrum_order_cap(
        self, spec_file, capsys, huge_order_sfm, no_allocation
    ):
        assert run(
            ["spectrum", "--spec", spec_file(huge_order_sfm),
             "--method", "closed"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap" in err
        assert "Traceback" not in err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error: sonarwave: " in capsys.readouterr().err

    def test_usage_error_line(self, spec_file, capsys):
        # argparse's own errors end in the same "error: " line as every
        # other bad input, after the usage.
        assert run(["metrics", "--spec", spec_file(LFM), "--band=foo"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: sonarwave metrics")
        assert err[-1] == ("error: sonarwave metrics: argument --band: "
                           "invalid float value: 'foo'")

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
