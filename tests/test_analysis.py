"""Tests for scalar metrics, Carson rules, closed spectra, and the sweep."""

import json
import tracemalloc

import numpy as np
import pytest

from sonarwave import analysis
from sonarwave.analysis import (
    UndefinedMetricError,
    bandwidth_98,
    carson_gsfm,
    carson_sfm,
    closed_spectrum,
    energy_efficiency,
    gsfm_spectrum_closed,
    metrics_report,
    papr,
    se_papr_sweep,
    sfm_spectrum_closed,
    spectral_efficiency,
)
from sonarwave.gbf import _CHUNK_BYTES, TruncationError
from sonarwave.signal_core import (
    ParameterError,
    SampledSignal,
    Spectrum,
    Taper,
    spectrum_of,
)
from sonarwave.waveforms import WaveformSpec, generate, m_sequence

T, FC, DF = 0.5, 2000.0, 200.0


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# ----------------------------------------------------------------------
# PAPR
# ----------------------------------------------------------------------

class TestPapr:
    def test_rect_cw_floor(self):
        sig = generate(WaveformSpec(family="cw", T=T, f_c=FC))
        assert papr(sig) == pytest.approx(3.0103, abs=0.02)

    def test_hann_cw(self):
        sig = generate(
            WaveformSpec(family="cw", T=T, f_c=FC, taper=Taper("hann"))
        )
        assert papr(sig) == pytest.approx(7.27, abs=0.05)

    def test_tukey_gsfm(self):
        sig = generate(
            WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                         cycles=7.0, taper=Taper("tukey", 0.1))
        )
        assert papr(sig) == pytest.approx(3.29, abs=0.1)

    def test_zero_signal(self):
        sig = SampledSignal(samples=1j * np.ones(64), sample_rate=100.0)
        with pytest.raises(UndefinedMetricError):
            papr(sig)

    def test_scale_invariance(self):
        sig = generate(WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF))
        assert papr(sig.scaled(7.3)) == pytest.approx(papr(sig), abs=1e-9)

    def test_carrier_phase_invariance(self):
        sig = generate(WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF))
        rotated = sig.scaled(np.exp(1j * 1.1))
        assert abs(papr(rotated) - papr(sig)) < 0.05

    def test_tukey_monotonicity(self):
        values = []
        for a_t in (0.0, 0.1, 0.5, 1.0):
            sig = generate(
                WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF,
                             taper=Taper("tukey", a_t))
            )
            values.append(papr(sig))
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# Spectral efficiency / 98% bandwidth
# ----------------------------------------------------------------------

class TestSpectralEfficiency:
    def test_whole_grid_is_one(self):
        sig = generate(WaveformSpec(family="cw", T=T, f_c=FC))
        sp = spectrum_of(sig)
        full = 2.0 * min(FC, sp.freqs[-1] - FC)
        assert spectral_efficiency(sp, FC, full) == pytest.approx(1.0, abs=1e-3)

    def test_rect_cw_mainlobe(self):
        sig = generate(WaveformSpec(family="cw", T=T, f_c=FC))
        sp = spectrum_of(sig, nfft=1 << 17)
        assert spectral_efficiency(sp, FC, 2.0 / T) == pytest.approx(
            0.903, abs=0.005
        )

    def test_band_outside_grid(self):
        sig = generate(WaveformSpec(family="cw", T=T, f_c=FC))
        sp = spectrum_of(sig)
        with pytest.raises(ParameterError):
            spectral_efficiency(sp, FC, 10.0 * sp.freqs[-1])

    @pytest.mark.parametrize("delta_f", [np.nan, np.inf, -np.inf])
    def test_non_finite_band(self, delta_f):
        sp = spectrum_of(generate(WaveformSpec(family="cw", T=T, f_c=FC)))
        with pytest.raises(ParameterError, match="finite"):
            spectral_efficiency(sp, FC, delta_f)

    def test_scale_invariance(self):
        sig = generate(WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF))
        sp = spectrum_of(sig)
        scaled = Spectrum(sp.freqs, 3.0 * sp.values, sp.df)
        assert spectral_efficiency(scaled, FC, DF) == pytest.approx(
            spectral_efficiency(sp, FC, DF), abs=1e-12
        )

    def test_hann_bpsk_below_gsfm(self):
        gsfm = WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                            cycles=7.0, taper=Taper("tukey", 0.1))
        band = bandwidth_98(spectrum_of(generate(gsfm)), FC)
        bpsk = WaveformSpec(
            family="bpsk", T=T, f_c=FC, code=m_sequence(7),
            taper=Taper("hann", scope="per-chip"),
        )
        se_g = spectral_efficiency(spectrum_of(generate(gsfm)), FC, band)
        se_b = spectral_efficiency(spectrum_of(generate(bpsk)), FC, band)
        assert se_b < se_g

    def test_monotone_in_band(self):
        sig = generate(WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF,
                                    f_m=10.0))
        sp = spectrum_of(sig)
        bands = np.linspace(10.0, 1000.0, 25)
        ses = [spectral_efficiency(sp, FC, b) for b in bands]
        assert all(b >= a - 1e-12 for a, b in zip(ses, ses[1:]))


class TestBandwidth98:
    def test_rect_cw(self):
        # sinc^2 tail: fraction outside +-w/T of the line is 1/(pi^2 w),
        # so the 98% band is 2w/T with w = 1/(0.02 pi^2) ~ 5.07.
        sig = generate(WaveformSpec(family="cw", T=T, f_c=FC))
        b98 = bandwidth_98(spectrum_of(sig, nfft=1 << 18), FC)
        assert b98 == pytest.approx(2.0 / (0.02 * np.pi**2) / T, rel=0.1)

    def test_sfm_near_carson(self):
        sig = generate(
            WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
        )
        b98 = bandwidth_98(spectrum_of(sig), FC)
        assert abs(b98 - 220.0) / 220.0 < 0.15

    def test_grid_too_narrow(self):
        sp = Spectrum(freqs=np.linspace(0, 100, 401),
                      values=np.ones(401), df=0.25)
        with pytest.raises(ParameterError):
            bandwidth_98(sp, 5.0)

    @pytest.mark.parametrize("kwargs", [
        # tol_hz = 0 used to bisect forever, and a NaN fraction used to
        # return the whole grid's width.
        {"tol_hz": 0.0}, {"tol_hz": -1.0}, {"tol_hz": np.nan},
        {"tol_hz": np.inf}, {"fraction": np.nan}, {"fraction": 0.0},
        {"fraction": -0.5}, {"fraction": 1.5},
    ])
    def test_invalid_fraction_or_tolerance(self, kwargs):
        sp = spectrum_of(generate(
            WaveformSpec(family="lfm", T=0.1, f_c=FC, delta_f=DF)
        ))
        with pytest.raises(ParameterError):
            bandwidth_98(sp, FC, **kwargs)

    def test_whole_energy_fraction(self):
        # All energy in the 41 bins of 50 +- 5 Hz, whose edges span 10.25 Hz.
        freqs = np.linspace(0, 100, 401)
        sp = Spectrum(freqs=freqs, values=1.0 * (np.abs(freqs - 50) <= 5),
                      df=0.25)
        b = bandwidth_98(sp, 50.0, fraction=1.0)
        assert 10.25 <= b <= 10.25 + 0.1

    @pytest.mark.parametrize("f_c", [-1.0, 1e9, np.nan])
    def test_carrier_off_grid(self, f_c):
        sp = spectrum_of(generate(WaveformSpec(family="cw", T=T, f_c=FC)))
        with pytest.raises(ParameterError):
            bandwidth_98(sp, f_c)


# ----------------------------------------------------------------------
# Carson rules
# ----------------------------------------------------------------------

class TestCarson:
    def test_sfm_values(self):
        assert carson_sfm(200.0, 10.0) == pytest.approx(220.0)
        assert carson_sfm(0.0, 10.0) == pytest.approx(20.0)
        with pytest.raises(ParameterError):
            carson_sfm(200.0, 0.0)

    def test_gsfm_nonsymmetric_value(self):
        assert carson_gsfm(200.0, 14.0, 2.0, 0.5, "nonsymmetric") == (
            pytest.approx(228.0)
        )

    def test_rho_one_reduces_to_sfm_rule(self):
        f_m, df = 12.0, 300.0
        assert carson_gsfm(df, f_m, 1.0, 0.5, "nonsymmetric") == (
            pytest.approx(carson_sfm(df, f_m))
        )

    def test_carson_brackets_numeric(self):
        # Carson should land within +25%/-5% of the numeric 98% bandwidth.
        spec = WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                            cycles=7.0)
        b98 = bandwidth_98(spectrum_of(generate(spec)), FC)
        carson = carson_gsfm(DF, spec.gsfm_alpha, 2.0, T, "even")
        assert -0.05 < (carson - b98) / b98 < 0.25


# ----------------------------------------------------------------------
# Closed-form spectra
# ----------------------------------------------------------------------

SFM_SPEC = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
GSFM_SPEC = WaveformSpec(
    family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
)


class TestClosedSpectra:
    def band_grid(self, half_width=1500.0):
        return np.arange(FC - half_width, FC + half_width, 0.25)

    def test_sfm_zero_beta_single_sinc(self):
        spec = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=0.0, f_m=10.0)
        freqs = self.band_grid(100.0)
        sp = sfm_spectrum_closed(spec, freqs)
        expect = np.sqrt(T) * np.sinc(T * (freqs - FC))
        np.testing.assert_allclose(sp.values, expect, atol=1e-10)

    @pytest.mark.parametrize("f_m", [10.0, 9.0, 10.5])
    @pytest.mark.parametrize("symmetry", ["even", "nonsymmetric"])
    def test_sfm_matches_fft(self, symmetry, f_m):
        # A nonsymmetric pulse lives on [0, T], which gives each spectral
        # line its own phase; non-integer f_m T varies that phase further.
        spec = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=f_m,
                            symmetry=symmetry)
        fft = spectrum_of(generate(spec), nfft=1 << 18)
        sel = np.abs(fft.freqs - FC) < 1500.0
        closed = sfm_spectrum_closed(spec, fft.freqs[sel])
        assert rel_l2(np.abs(closed.values), np.abs(fft.values[sel])) < 1e-3

    def test_sfm_line_spacing(self):
        freqs = self.band_grid(60.0)
        p = np.abs(sfm_spectrum_closed(SFM_SPEC, freqs).values) ** 2
        # The strongest spectral lines all sit at f_c + k f_m.
        strong = p > 0.2 * p.max()
        offsets = (freqs[strong] - FC + 5.0) % 10.0 - 5.0
        assert np.max(np.abs(offsets)) < 1.5

    def test_gsfm_matches_fft(self):
        sig = generate(GSFM_SPEC)
        fft = spectrum_of(sig, nfft=1 << 18)
        sel = np.abs(fft.freqs - FC) < 1500.0
        closed = gsfm_spectrum_closed(GSFM_SPEC, fft.freqs[sel])
        assert rel_l2(np.abs(closed.values), np.abs(fft.values[sel])) < 1e-2

    def test_gsfm_rho_one_reduces_to_sfm(self):
        gs = WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=1.0,
                          alpha=10.0)
        sf = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)
        freqs = self.band_grid()
        a = gsfm_spectrum_closed(gs, freqs).values
        b = sfm_spectrum_closed(sf, freqs).values
        assert rel_l2(np.abs(a), np.abs(b)) < 1e-6

    def test_gsfm_centroid_shift(self):
        from sonarwave.waveforms import gsfm_fourier_coeffs

        model = gsfm_fourier_coeffs(GSFM_SPEC)
        sp = spectrum_of(generate(GSFM_SPEC), nfft=1 << 18)
        p = np.abs(sp.values) ** 2
        centroid = np.sum(sp.freqs * p) / np.sum(p)
        assert abs(centroid - (FC + model.center_shift)) < 1.0 / T

    def test_grid_too_coarse(self):
        with pytest.raises(ParameterError):
            sfm_spectrum_closed(SFM_SPEC, np.arange(1000.0, 3000.0, 1.0))

    def test_grid_must_ascend(self):
        # The series kernel's singular-pair search needs ascending freqs.
        for freqs in (self.band_grid(50.0)[::-1], np.array([FC]),
                      np.array([FC, np.nan, FC + 0.1])):
            with pytest.raises(ParameterError, match="ascending"):
                sfm_spectrum_closed(SFM_SPEC, freqs)

    def test_order_cap_refuses_before_allocating(
        self, huge_order_sfm, no_allocation
    ):
        spec = WaveformSpec.from_dict(huge_order_sfm)
        with pytest.raises(TruncationError, match="cap"):
            closed_spectrum(spec, self.band_grid(10.0))

    def test_grid_must_be_uniform(self):
        # 0.25 Hz steps to 1501 Hz, then 50 Hz steps: spectral_efficiency
        # read this fig5 grid as df = 0.25 and gave SE = 0.83 for 200 Hz.
        freqs = np.concatenate([np.arange(1500.0, 1501.0, 0.25),
                                np.arange(1501.0, 2500.5, 50.0)])
        with pytest.raises(ParameterError, match="uniform"):
            sfm_spectrum_closed(SFM_SPEC, freqs)

    def test_fig6_cli_grid_bounded_memory(self, spec_dir):
        # The CLI's closed-spectrum grid for the README fig6 gsfm is 2^18
        # points over [0, fs); the former lines x freqs sinc tensor asked
        # for 11.8 GiB on it.  Every other point is a 2^17-point FFT bin.
        spec = WaveformSpec.from_dict(
            json.loads((spec_dir / "fig6_gsfm.json").read_text())
        )
        sig = generate(spec)
        nfft = 1 << int(np.ceil(np.log2(8 * len(sig.samples))))
        assert nfft == 1 << 18
        freqs = np.arange(nfft) * sig.sample_rate / nfft
        tracemalloc.start()
        try:
            closed = closed_spectrum(spec, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _CHUNK_BYTES
        fft = spectrum_of(sig, nfft=1 << 17)
        sel = np.abs(fft.freqs - spec.f_c) < 800.0
        err = rel_l2(np.abs(closed.values[::2][sel]), np.abs(fft.values[sel]))
        assert err < 1e-2

    def test_taper_rejected(self):
        spec = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0,
                            taper=Taper("hann"))
        with pytest.raises(ParameterError):
            sfm_spectrum_closed(spec, self.band_grid())

    def test_wrong_family(self):
        with pytest.raises(ParameterError):
            gsfm_spectrum_closed(SFM_SPEC, self.band_grid())

    def test_nonsymmetric_gsfm_has_no_closed_form(self):
        spec = WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                            cycles=7.0, symmetry="nonsymmetric")
        with pytest.raises(ParameterError, match="closed-form"):
            gsfm_spectrum_closed(spec, self.band_grid())


# ----------------------------------------------------------------------
# Energy efficiency, report, sweep
# ----------------------------------------------------------------------

class TestEnergyEfficiency:
    def test_trivials(self):
        assert energy_efficiency(1.0, 1.0) == 0.0
        assert energy_efficiency(0.5, 1.0) == pytest.approx(-3.0103, abs=1e-3)
        with pytest.raises(ParameterError):
            energy_efficiency(0.0, 1.0)

    def test_hann_bpsk_drive_vs_gsfm_drive(self):
        # Peak-normalized drive energies differ by roughly the PAPR gap.
        from sonarwave.transducer import peak_normalized

        gsfm = peak_normalized(generate(
            WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                         cycles=7.0, taper=Taper("tukey", 0.1))
        ))
        bpsk = peak_normalized(generate(
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(6),
                         taper=Taper("hann", scope="per-chip"))
        ))
        e = energy_efficiency(bpsk.energy, gsfm.energy)
        assert e == pytest.approx(-4.2, abs=0.7)


class TestMetricsReport:
    def test_fields_and_json(self):
        rep = metrics_report(SFM_SPEC)
        data = json.loads(rep.to_json())
        assert set(data) == {
            "papr_db", "se", "band_98", "carson_hz", "energy", "tbp"
        }
        assert data["carson_hz"] == pytest.approx(220.0)
        assert 0.0 <= data["se"] <= 1.0
        assert data["se"] == pytest.approx(0.98, abs=0.001)
        assert data["energy"] == pytest.approx(1.0, rel=1e-9)

    def test_carson_none_for_lfm(self):
        rep = metrics_report(WaveformSpec(family="lfm", T=T, f_c=FC,
                                          delta_f=DF))
        assert rep.carson_hz is None


class TestUndefinedBand:
    """A 255-chip BPSK at 2 kHz: its 98% band does not fit the FFT grid."""

    SPEC = WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(8))
    MESSAGE = "spectrum grid too narrow to reach the requested energy fraction"

    def test_report_with_band(self):
        rep = metrics_report(self.SPEC, band_hz=1000.0)
        assert rep.band_98 is None and rep.tbp is None
        assert np.isfinite(rep.se) and np.isfinite(rep.papr_db)
        assert json.loads(rep.to_json())["band_98"] is None

    def test_report_without_band_raises(self):
        with pytest.raises(UndefinedMetricError) as info:
            metrics_report(self.SPEC)
        assert str(info.value) == self.MESSAGE
        with pytest.raises(UndefinedMetricError, match=self.MESSAGE):
            bandwidth_98(spectrum_of(generate(self.SPEC)), FC)

    def test_sweep_row(self):
        # The row the sweep wrote when it measured PAPR and SE itself.
        sig = generate(self.SPEC)
        (row,) = se_papr_sweep([("s", self.SPEC)], band_hz=1000.0)
        assert row == {
            "label": "s", "family": "bpsk", "band_hz": 1000.0, "tbp": None,
            "papr_db": papr(sig),
            "se": spectral_efficiency(spectrum_of(sig), FC, 1000.0),
            "error": None,
        }
        assert row["papr_db"] == pytest.approx(3.0099524664070376, rel=1e-12)
        assert row["se"] == pytest.approx(0.9028456188473125, rel=1e-12)


class TestSweep:
    def test_rows_and_band_default(self):
        specs = [
            ("gsfm", WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF,
                                  rho=2.0, cycles=7.0,
                                  taper=Taper("tukey", 0.1))),
            ("cw", WaveformSpec(family="cw", T=T, f_c=FC)),
        ]
        rows = se_papr_sweep(specs)
        assert [r["label"] for r in rows] == ["gsfm", "cw"]
        assert rows[0]["band_hz"] == rows[1]["band_hz"] > 0
        assert rows[0]["se"] == pytest.approx(0.98, abs=0.005)
        assert all(r["error"] is None for r in rows)

    def test_no_gsfm_requires_band(self):
        specs = [("cw", WaveformSpec(family="cw", T=T, f_c=FC))]
        with pytest.raises(ParameterError):
            se_papr_sweep(specs)
        rows = se_papr_sweep(specs, band_hz=100.0)
        assert rows[0]["se"] > 0.9

    @pytest.mark.parametrize("band", [float("nan"), float("inf"), -5.0,
                                      True])
    def test_bad_band_refused_before_any_row(self, band, monkeypatch):
        # Such a band used to give a table whose every row is an error.
        def no_rows(*args):
            raise AssertionError("a row was measured")

        monkeypatch.setattr(analysis, "metrics_report", no_rows)
        specs = [("cw", WaveformSpec(family="cw", T=T, f_c=FC))]
        with pytest.raises(ParameterError, match="band_hz"):
            se_papr_sweep(specs, band_hz=band)

    def test_per_row_failure_recorded(self):
        specs = [
            ("ok", WaveformSpec(family="cw", T=T, f_c=FC)),
            ("bad", WaveformSpec(family="bpsk", T=T, f_c=FC)),  # no code
        ]
        rows = se_papr_sweep(specs, band_hz=100.0)
        assert rows[0]["error"] is None
        assert rows[1]["error"] is not None
        assert rows[1]["se"] is None
