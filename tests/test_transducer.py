"""Tests for the transmit-chain response model and TRW evaluation."""

import numpy as np
import pytest

from sonarwave.signal_core import ParameterError, Taper
from sonarwave.transducer import (
    FormatError,
    TransducerResponse,
    apply_response,
    equalize,
    load_response_table,
    make_response,
    peak_normalized,
    trw_report,
)
from sonarwave.waveforms import WaveformSpec, generate, m_sequence

BAND = (100e3, 120e3)
F_R = 110e3


def noneq_response():
    return make_response("parametric", F_R, BAND, 4.07)


# ----------------------------------------------------------------------
# Response construction
# ----------------------------------------------------------------------

class TestMakeResponse:
    def test_ripple_calibration(self):
        assert noneq_response().in_band_ripple() == pytest.approx(
            4.07, abs=0.05
        )
        eq = make_response("parametric", F_R, BAND, 0.39)
        assert eq.in_band_ripple() == pytest.approx(0.39, abs=0.05)

    def test_zero_ripple_flat(self):
        resp = make_response("parametric", F_R, BAND, 0.0)
        assert resp.in_band_ripple() == 0.0
        np.testing.assert_array_equal(resp.mag_db, 0.0)
        np.testing.assert_array_equal(resp.phase_rad, 0.0)

    def test_peak_gain_nonpositive(self):
        assert noneq_response().peak_gain_db <= 0.0

    def test_resonance_outside_band(self):
        with pytest.raises(ParameterError):
            make_response("parametric", 90e3, BAND, 4.0)

    def test_negative_ripple(self):
        with pytest.raises(ParameterError):
            make_response("parametric", F_R, BAND, -1.0)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            make_response("spline", F_R, BAND, 4.0)

    def test_out_of_band_rolloff(self):
        resp = noneq_response()
        lo, hi = BAND
        edge = float(resp.magnitude_at(hi))
        octave = float(resp.magnitude_at(2.0 * hi))
        assert edge - octave == pytest.approx(12.0, abs=0.1)


class TestTabulated:
    def write_table(self, path, rows, header=True):
        lines = (["freq_hz,mag_db,phase_rad"] if header else []) + [
            ",".join(str(x) for x in r) for r in rows
        ]
        path.write_text("\n".join(lines) + "\n")

    def test_load_and_peak_reference(self, tmp_path):
        path = tmp_path / "resp.csv"
        self.write_table(
            path,
            [(90e3, -8.0, 0.0), (105e3, 2.0, -0.4), (110e3, 3.0, -0.8),
             (115e3, 2.0, -1.2), (130e3, -8.0, -1.6)],
        )
        resp = load_response_table(path, f_r=F_R, band=BAND)
        assert resp.peak_gain_db == 0.0  # referenced to its own maximum
        assert resp.mode == "tabulated"
        assert resp.ripple_db > 0.0

    def test_make_response_tabulated_mode(self, tmp_path):
        path = tmp_path / "resp.csv"
        self.write_table(
            path, [(90e3, 0.0, 0.0), (110e3, 1.0, 0.0), (130e3, 0.0, 0.0)]
        )
        resp = make_response("tabulated", F_R, BAND, 0.0, table_path=path)
        assert resp.mode == "tabulated"
        with pytest.raises(ParameterError):
            make_response("tabulated", F_R, BAND, 0.0)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text("freq_hz,mag_db,phase_rad\n1.0,2.0\n")
        with pytest.raises(FormatError):
            load_response_table(path, f_r=F_R, band=BAND)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text("freq_hz,mag_db,phase_rad\n1.0,two,3.0\n2.0,0,0\n")
        with pytest.raises(FormatError):
            load_response_table(path, f_r=F_R, band=BAND)

    def test_band_outside_table(self, tmp_path):
        path = tmp_path / "resp.csv"
        self.write_table(path, [(105e3, 0.0, 0.0), (115e3, 0.0, 0.0)])
        with pytest.raises(FormatError):
            load_response_table(path, f_r=F_R, band=BAND)

    def test_duplicate_frequency(self, tmp_path):
        path = tmp_path / "resp.csv"
        self.write_table(
            path, [(90e3, 0.0, 0.0), (90e3, 1.0, 0.0), (130e3, 0.0, 0.0)]
        )
        with pytest.raises(FormatError):
            load_response_table(path, f_r=F_R, band=BAND)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_refused(self, tmp_path, bad):
        # A nan magnitude once loaded as a response with ripple_db = nan.
        for row in ((110e3, bad, 0.0), (110e3, 0.0, bad), (bad, 0.0, 0.0)):
            path = tmp_path / "resp.csv"
            self.write_table(path, [(90e3, 0.0, 0.0), row, (130e3, 0.0, 0.0)])
            with pytest.raises(FormatError, match="finite"):
                load_response_table(path, f_r=F_R, band=BAND)

    def test_band_between_rows(self, tmp_path):
        # Two rows around the band: the ripple is read from the curve
        # across the band, where the loader's own copy of it once raised
        # numpy's "zero-size array" error.
        path = tmp_path / "resp.csv"
        self.write_table(path, [(90e3, 0.0, 0.0), (130e3, -4.0, -1.0)])
        resp = load_response_table(path, f_r=F_R, band=BAND)
        assert resp.ripple_db == pytest.approx(2.0)
        assert resp.ripple_db == resp.in_band_ripple()
        with pytest.raises(FormatError, match="band"):
            equalize(resp, 0.5)
        assert equalize(resp, 3.0).flags == (
            "equalize: no-op, target >= current",)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "resp.csv"
        self.write_table(path, [])
        with pytest.raises(ParameterError, match="non-empty"):
            load_response_table(path, f_r=F_R, band=BAND)


class TestResponseTable:
    """A response built directly meets the rule of one read from a file."""

    FREQS = np.array([90e3, 110e3, 130e3])

    def build(self, freqs=FREQS, mag_db=np.zeros(3), phase_rad=np.zeros(3)):
        return TransducerResponse("tabulated", F_R, BAND, 0.0, freqs, mag_db,
                                  phase_rad)

    @pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 4), (2, 3, 3)])
    def test_lengths_must_match(self, lengths):
        # Mismatched lengths raised numpy's broadcast ValueError on use.
        freqs, mag, phase = (np.linspace(90e3, 130e3, n) for n in lengths)
        with pytest.raises(FormatError, match="equal length"):
            self.build(freqs, mag * 0.0, phase * 0.0)

    def test_one_row_refused(self):
        # One row raised IndexError in response_at.
        with pytest.raises(FormatError, match="at least 2 rows"):
            self.build(self.FREQS[:1], np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("freqs", [FREQS[::-1], np.array([90e3] * 3)])
    def test_frequencies_must_ascend(self, freqs):
        # Descending rows read -inf dB, silently.
        with pytest.raises(FormatError, match="ascending"):
            self.build(freqs)

    def test_queries_must_be_real(self):
        resp = self.build()
        for query in (resp.magnitude_at, resp.response_at):
            with pytest.raises(ParameterError, match="real numbers"):
                query(np.array([100e3 + 1j]))


# ----------------------------------------------------------------------
# Equalization
# ----------------------------------------------------------------------

class TestEqualize:
    def test_flatten_attenuates_peak(self):
        resp = noneq_response()
        eq = equalize(resp, 0.39)
        assert eq.in_band_ripple() == pytest.approx(0.39, abs=0.05)
        assert eq.peak_gain_db == pytest.approx(
            resp.peak_gain_db - (4.07 - 0.39), abs=0.05
        )
        assert "equalized" in eq.flags

    def test_idempotent(self):
        eq = equalize(noneq_response(), 0.39)
        again = equalize(eq, 0.39)
        assert abs(again.in_band_ripple() - eq.in_band_ripple()) < 0.01

    def test_target_at_or_above_current_is_noop(self):
        resp = noneq_response()
        same = equalize(resp, 5.0)
        np.testing.assert_array_equal(same.mag_db, resp.mag_db)
        assert any("no-op" in f for f in same.flags)

    def test_negative_target(self):
        with pytest.raises(ParameterError):
            equalize(noneq_response(), -0.1)

    def test_out_of_band_untouched(self):
        resp = noneq_response()
        eq = equalize(resp, 0.39)
        out = resp.freqs > BAND[1]
        np.testing.assert_array_equal(eq.mag_db[out], resp.mag_db[out])


# ----------------------------------------------------------------------
# Applying the response
# ----------------------------------------------------------------------

def cw_spec(f_c, T=5e-3):
    return WaveformSpec(family="cw", T=T, f_c=f_c)


class TestApplyResponse:
    def test_flat_response_is_identity(self):
        flat = make_response("parametric", F_R, BAND, 0.0)
        drive = peak_normalized(generate(cw_spec(F_R)))
        trw = apply_response(drive, flat)
        np.testing.assert_allclose(
            trw.samples.real, drive.samples.real, atol=1e-9
        )

    def test_linearity(self):
        resp = noneq_response()
        drive = peak_normalized(generate(cw_spec(F_R)))
        a = apply_response(drive.scaled(0.25), resp)
        b = apply_response(drive, resp)
        np.testing.assert_allclose(a.samples, 0.25 * b.samples, atol=1e-12)

    def test_single_tone_gains(self):
        resp = noneq_response()
        at_res = apply_response(
            peak_normalized(generate(cw_spec(F_R))), resp
        )
        ref = peak_normalized(generate(cw_spec(F_R)))
        loss_res = 10 * np.log10(at_res.energy / ref.energy)
        assert loss_res == pytest.approx(0.0, abs=0.2)

        edge_drive = peak_normalized(generate(cw_spec(BAND[0])))
        at_edge = apply_response(edge_drive, resp)
        loss_edge = 10 * np.log10(at_edge.energy / edge_drive.energy)
        assert loss_edge == pytest.approx(-4.07, abs=0.4)

    def test_equalization_never_increases_energy(self):
        resp = noneq_response()
        eq = equalize(resp, 0.39)
        for f_c in (102e3, 110e3, 118e3):
            drive = peak_normalized(generate(cw_spec(f_c)))
            assert (
                apply_response(drive, eq).energy
                <= apply_response(drive, resp).energy + 1e-12
            )

    def test_band_entirely_outside_response(self):
        resp = noneq_response()
        low = peak_normalized(generate(
            WaveformSpec(family="cw", T=0.05, f_c=500.0, sample_rate=8000.0)
        ))
        with pytest.raises(FormatError):
            apply_response(low, resp)

    def test_zero_drive_rejected(self):
        from sonarwave.signal_core import SampledSignal

        resp = noneq_response()
        sig = SampledSignal(samples=1j * np.ones(64), sample_rate=1e6)
        with pytest.raises(ParameterError):
            apply_response(sig, resp)
        with pytest.raises(ParameterError):
            peak_normalized(sig)

    def test_one_sample_drive_rejected(self):
        from sonarwave.signal_core import SampledSignal

        # The zero-ripple table starts at 0 Hz, so the band check alone
        # would index a positive bin that one sample does not have.
        flat = make_response("parametric", F_R, BAND, 0.0)
        with pytest.raises(ParameterError):
            apply_response(SampledSignal(samples=[1.0], sample_rate=1e6), flat)


# ----------------------------------------------------------------------
# TRW report
# ----------------------------------------------------------------------

class TestTrwReport:
    def specs(self):
        return [
            ("gsfm", WaveformSpec(
                family="gsfm", T=5e-3, f_c=F_R, delta_f=10e3, rho=2.0,
                cycles=7.5, taper=Taper("tukey", 0.1),
            )),
            ("bpsk", WaveformSpec(
                family="bpsk", T=5e-3, f_c=F_R, code=m_sequence(4),
                taper=Taper("hann", scope="per-chip"),
            )),
        ]

    def test_reference_row_zero(self):
        rows = trw_report(self.specs(), noneq_response(), "gsfm")
        by = {r["label"]: r for r in rows}
        assert by["gsfm"]["e_tilde_db"] == 0.0
        assert by["bpsk"]["e_tilde_db"] < -3.0

    def test_missing_reference(self):
        with pytest.raises(ParameterError):
            trw_report(self.specs(), noneq_response(), "lfm")

    def test_row_failure_recorded(self):
        specs = self.specs() + [
            ("bad", WaveformSpec(family="bpsk", T=5e-3, f_c=F_R))  # no code
        ]
        rows = trw_report(specs, noneq_response(), "gsfm")
        bad = [r for r in rows if r["label"] == "bad"][0]
        assert bad["error"] is not None
        assert bad["e_tilde_db"] is None

    def test_repeated_label(self):
        gsfm, bpsk = self.specs()
        with pytest.raises(ParameterError, match="'gsfm'"):
            trw_report([gsfm, ("gsfm", bpsk[1])], noneq_response(), "gsfm")
