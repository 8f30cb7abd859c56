"""Tests for sampling, tapering, resampling, and spectral primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonarwave import signal_core
from sonarwave.signal_core import (
    ParameterError,
    SampledSignal,
    Spectrum,
    Taper,
    make_taper,
    resample_scale,
    spectrum_of,
)
from sonarwave.ambiguity import doppler_eta
from sonarwave.waveforms import WaveformSpec, generate, m_sequence


def cw_signal(f_c=2000.0, T=0.5, fs=16000.0):
    t = (np.arange(int(round(T * fs))) + 0.5) / fs
    return SampledSignal(
        samples=np.exp(2j * np.pi * f_c * t), sample_rate=fs, t0=0.0
    ).normalized()


# ----------------------------------------------------------------------
# SampledSignal
# ----------------------------------------------------------------------

class TestSampledSignal:
    def test_midpoint_times(self):
        sig = SampledSignal(samples=np.ones(4), sample_rate=8.0, t0=-0.25)
        np.testing.assert_allclose(
            sig.times, [-0.25 + 1 / 16, -0.25 + 3 / 16, -0.25 + 5 / 16,
                        -0.25 + 7 / 16]
        )

    def test_energy_is_midpoint_rule(self):
        sig = SampledSignal(samples=2.0 * np.ones(10), sample_rate=5.0)
        assert sig.energy == pytest.approx(4.0 * 10 / 5.0)

    def test_normalized_unit_energy(self):
        sig = SampledSignal(
            samples=np.random.default_rng(0).normal(size=64)
            + 1j * np.random.default_rng(1).normal(size=64),
            sample_rate=100.0,
        ).normalized()
        assert sig.energy == pytest.approx(1.0, rel=1e-9)

    def test_zero_signal_normalize_fails(self):
        sig = SampledSignal(samples=np.zeros(8), sample_rate=1.0)
        with pytest.raises(ParameterError):
            sig.normalized()

    def test_empty_and_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            SampledSignal(samples=np.array([]), sample_rate=1.0)
        with pytest.raises(ParameterError):
            SampledSignal(samples=np.ones(4), sample_rate=0.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, True, "8"])
    def test_non_finite_rate_rejected(self, rate):
        # NaN once gave a NaN duration, and inf a duration of 0.0.
        with pytest.raises(ParameterError, match="sample_rate"):
            SampledSignal(samples=np.ones(4), sample_rate=rate)

    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf, None])
    def test_non_finite_t0_rejected(self, t0):
        with pytest.raises(ParameterError, match="t0"):
            SampledSignal(samples=np.ones(4), sample_rate=8.0, t0=t0)

    @pytest.mark.parametrize("samples", [np.ones((2, 2)), np.ones((4, 1)),
                                         np.array(1.0)])
    def test_samples_must_be_1d(self, samples):
        with pytest.raises(ParameterError, match="1-D"):
            SampledSignal(samples=samples, sample_rate=8.0)


# ----------------------------------------------------------------------
# Taper / make_taper
# ----------------------------------------------------------------------

class TestTaper:
    def test_rectangular_is_all_ones(self):
        np.testing.assert_array_equal(
            make_taper(Taper("rectangular"), 8), np.ones(8)
        )

    def test_tukey_zero_equals_rectangular(self):
        np.testing.assert_allclose(
            make_taper(Taper("tukey", shape_param=0.0), 64), np.ones(64)
        )

    def test_tukey_one_equals_hann(self):
        np.testing.assert_allclose(
            make_taper(Taper("tukey", shape_param=1.0), 65),
            make_taper(Taper("hann"), 65),
            atol=1e-12,
        )

    def test_hann_mean_square_limit(self):
        w = make_taper(Taper("hann"), 4096)
        assert np.mean(w**2) == pytest.approx(0.375, abs=1e-3)

    def test_shape_param_out_of_range(self):
        with pytest.raises(ParameterError):
            Taper("tukey", shape_param=1.5)
        with pytest.raises(ParameterError):
            Taper("tukey", shape_param=-0.1)

    def test_unknown_kind_and_scope(self):
        with pytest.raises(ParameterError):
            Taper("blackman")
        with pytest.raises(ParameterError):
            Taper("hann", scope="per-sample")

    def test_length_below_two_rejected(self):
        with pytest.raises(ParameterError):
            make_taper(Taper(), 1)

    @pytest.mark.parametrize(
        "taper",
        [Taper("rectangular"), Taper("hann"), Taper("tukey", 0.3)],
    )
    @pytest.mark.parametrize("n", [16, 17])
    def test_symmetric_about_midpoint(self, taper, n):
        w = make_taper(taper, n)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)
        assert np.all(w <= 1.0 + 1e-12)


# ----------------------------------------------------------------------
# resample_scale
# ----------------------------------------------------------------------

def _former_resample_scale(sig: SampledSignal, eta: float) -> SampledSignal:
    """The resampler before its Kaiser window's I0 was evaluated inline:
    np.i0 per block, divided by np.i0(beta), under a support mask."""
    beta, taps, block = 7.857, 32, 256
    if eta == 1.0:
        return sig
    fs = sig.sample_rate
    n_in = len(sig.samples)
    n_out = int(round(n_in / eta))
    half = taps // 2
    offsets = np.arange(-half + 1, half + 1)
    cutoff = min(1.0, 1.0 / eta)
    padded = np.zeros(n_in + 2 * taps, dtype=np.complex128)
    padded[taps : taps + n_in] = sig.samples
    out = np.empty(n_out, dtype=np.complex128)
    for lo in range(0, n_out, block):
        p = (np.arange(lo, min(lo + block, n_out)) + 0.5) * eta - 0.5
        base = np.floor(p).astype(int)
        frac = p - base
        x = offsets[None, :] - frac[:, None]
        kern = cutoff * np.sinc(cutoff * x)
        win_arg = x / half
        win = np.where(
            np.abs(win_arg) <= 1.0,
            np.i0(beta * np.sqrt(np.maximum(0.0, 1.0 - win_arg**2)))
            / np.i0(beta),
            0.0,
        )
        kern *= win
        gathered = padded[base[:, None] + offsets[None, :] + taps]
        out[lo : lo + block] = np.sum(gathered * kern, axis=1)
    return SampledSignal(samples=out, sample_rate=fs, t0=sig.t0 / eta)


# Like the benchmark's af-numeric pool: 2 kHz, T = 0.5 s.
_ORACLE_SPECS = [
    WaveformSpec(family="sfm", T=0.5, f_c=2000.0, delta_f=420.0, f_m=10.0),
    WaveformSpec(family="gsfm", T=0.5, f_c=2000.0, delta_f=310.0, rho=2.2,
                 cycles=11.0, symmetry="even"),
    WaveformSpec(family="costas", T=0.5, f_c=2000.0, delta_f=400.0,
                 n_chips=16, taper=Taper("tukey", 0.4)),
    WaveformSpec(family="bpsk", T=0.5, f_c=2000.0, code=m_sequence(8)),
]


class TestResampleScale:
    def test_identity_scale(self):
        sig = cw_signal()
        out = resample_scale(sig, 1.0)
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-9)

    def test_tone_frequency_scales(self):
        eta = 1.020202
        sig = cw_signal(f_c=2000.0, fs=16000.0)
        out = resample_scale(sig, eta)
        sp = spectrum_of(out, nfft=1 << 17)
        peak = sp.freqs[np.argmax(np.abs(sp.values[: len(sp.freqs) // 2]))]
        assert abs(peak - 2040.4) <= sp.df

    def test_duration_expands(self):
        eta = 0.980198
        sig = cw_signal()
        out = resample_scale(sig, eta)
        assert out.duration == pytest.approx(sig.duration / eta, rel=1e-3)

    def test_energy_scales_inverse_eta(self):
        eta = 1.3
        sig = cw_signal()
        out = resample_scale(sig, eta)
        assert out.energy == pytest.approx(sig.energy / eta, rel=1e-3)

    def test_round_trip(self):
        eta = 1.25
        sig = cw_signal()
        back = resample_scale(resample_scale(sig, eta), 1.0 / eta)
        # Interior samples only: edge transients are outside contract.
        n = min(len(back), len(sig))
        sl = slice(64, n - 64)
        err = np.linalg.norm(back.samples[sl] - sig.samples[sl])
        assert err / np.linalg.norm(sig.samples[sl]) < 1e-3

    @pytest.mark.parametrize("eta", [0.5, 2.0, 0.2, 3.0])
    def test_eta_out_of_bounds(self, eta):
        with pytest.raises(ParameterError):
            resample_scale(cw_signal(), eta)

    def test_t0_scales(self):
        sig = cw_signal()
        sig = SampledSignal(sig.samples, sig.sample_rate, t0=-0.25)
        out = resample_scale(sig, 1.25)
        assert out.t0 == pytest.approx(-0.25 / 1.25)

    @pytest.mark.parametrize("spec", _ORACLE_SPECS,
                             ids=[s.family for s in _ORACLE_SPECS])
    def test_bit_identical_to_former_function(self, spec):
        sig = generate(spec)
        for v in (-20.0, -10.0, 10.0, 20.0):
            eta = doppler_eta(v)
            np.testing.assert_array_equal(
                resample_scale(sig, eta).samples,
                _former_resample_scale(sig, eta).samples)

    @pytest.mark.parametrize("eta", [0.5001, 1.9999, 0.6])
    def test_bit_identical_at_the_edges(self, eta):
        sig = generate(_ORACLE_SPECS[2])
        new = resample_scale(sig, eta)
        old = _former_resample_scale(sig, eta)
        np.testing.assert_array_equal(new.samples, old.samples)
        assert new.t0 == old.t0

    def test_edge_case_eta_hits_input_samples(self):
        # At eta = 0.6 a fifth of the output samples land exactly on an
        # input sample (frac == 0, the sinc's zero branch), so the case
        # above covers that branch.
        n_out = round(len(generate(_ORACLE_SPECS[2])) / 0.6)
        p = (np.arange(n_out) + 0.5) * 0.6 - 0.5
        assert np.mean(p == np.floor(p)) == pytest.approx(0.2, abs=0.01)

    @pytest.mark.parametrize("eta", [0.7, 1.013, 1.9])
    def test_blocks_match_one_pass(self, eta, monkeypatch):
        # Blocking the output samples changes no arithmetic: compare with
        # the whole signal resampled as one block.
        sig = cw_signal()
        blocked = resample_scale(sig, eta).samples
        monkeypatch.setattr(signal_core, "_BLOCK", len(blocked))
        np.testing.assert_array_equal(
            resample_scale(sig, eta).samples, blocked
        )


# ----------------------------------------------------------------------
# spectrum_of / Spectrum
# ----------------------------------------------------------------------

class TestSpectrum:
    def test_parseval_any_nfft(self):
        sig = cw_signal()
        for nfft in (8192, 16384, 1 << 15):
            sp = spectrum_of(sig, nfft=nfft)
            assert sp.energy == pytest.approx(sig.energy, rel=1e-6)

    def test_rect_cw_mainlobe_energy(self):
        f_c, T = 2000.0, 0.5
        sig = cw_signal(f_c=f_c, T=T)
        sp = spectrum_of(sig, nfft=1 << 17)
        sel = np.abs(sp.freqs - f_c) <= 1.0 / T
        frac = np.sum(np.abs(sp.values[sel]) ** 2) * sp.df / sp.energy
        assert frac == pytest.approx(0.903, abs=0.005)

    def test_lfm_98_band_near_sweep(self):
        from sonarwave.analysis import bandwidth_98

        spec = WaveformSpec(family="lfm", T=0.5, f_c=2000.0, delta_f=200.0)
        sp = spectrum_of(generate(spec))
        b98 = bandwidth_98(sp, spec.f_c)
        assert abs(b98 - 200.0) / 200.0 < 0.15

    def test_nfft_too_small(self):
        sig = cw_signal()
        with pytest.raises(ParameterError):
            spectrum_of(sig, nfft=len(sig) - 1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            Spectrum(freqs=np.arange(4.0), values=np.ones(3), df=1.0)

    @pytest.mark.parametrize("df", [-1.0, 0.0, np.nan, np.inf, None, True])
    def test_df_must_be_finite_positive(self, df):
        # df = -1 once gave spectral_efficiency 0.25 on a band that
        # bandwidth_98 called undefined.
        with pytest.raises(ParameterError, match="df"):
            Spectrum(freqs=np.arange(8.0), values=np.ones(8), df=df)

    @pytest.mark.parametrize("freqs, values", [
        (np.arange(8.0).reshape(2, 4), np.ones((2, 4))),
        (np.arange(4.0), np.ones((4, 1))),
        (np.array(1.0), np.array(1.0)),
    ])
    def test_spectrum_must_be_1d(self, freqs, values):
        # A 2 x 4 spectrum once made bandwidth_98 raise numpy's bare
        # "truth value of an array is ambiguous".
        with pytest.raises(ParameterError, match="1-D"):
            Spectrum(freqs=freqs, values=values, df=1.0)

    @pytest.mark.parametrize("freqs, values", [
        (np.arange(4.0) + 1j, np.ones(4)),
        (np.array(["0", "1", "2", "3"]), np.ones(4)),
        (np.arange(4.0), np.array(["1"] * 4)),
        (np.arange(4.0), [[1.0, 2.0], [3.0]]),
    ])
    def test_spectrum_arrays_must_be_numbers(self, freqs, values):
        # Complex freqs were cut to their real part, and numeric strings
        # parsed as numbers.
        with pytest.raises(ParameterError, match="numbers"):
            Spectrum(freqs=freqs, values=values, df=1.0)

    def test_power_db_of_a_zero_spectrum_is_the_floor(self):
        # 0 / 0 once: a RuntimeWarning, and NaN in every bin.
        sp = Spectrum(freqs=np.arange(4.0), values=np.zeros(4), df=1.0)
        np.testing.assert_array_equal(sp.power_db(), np.full(4, -300.0))
        np.testing.assert_array_equal(sp.power_db(-80.0), np.full(4, -80.0))

    def test_power_db_floor(self):
        sp = Spectrum(
            freqs=np.arange(3.0), values=np.array([1.0, 0.0, 1e-30]), df=1.0
        )
        db = sp.power_db()
        assert db[0] == 0.0
        assert db[1] == -300.0

    @given(
        t0=st.floats(-1.0, 1.0),
        f=st.sampled_from([1000.0, 1500.0, 2500.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_parseval_with_offset_origin(self, t0, f):
        fs = 8000.0
        t = t0 + (np.arange(1024) + 0.5) / fs
        sig = SampledSignal(np.exp(2j * np.pi * f * t), fs, t0=t0).normalized()
        sp = spectrum_of(sig)
        assert sp.energy == pytest.approx(1.0, rel=1e-6)


# ----------------------------------------------------------------------
# CSV writer
# ----------------------------------------------------------------------

@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_write_columns_is_repr_per_row(tmp_path, end):
    # The one-pass template writes what formatting each value by repr, row
    # by row, writes: signed zeros, non-finite values, extremes and ints.
    cols = [np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-310, 1.7e308]),
            np.array([1, -2, 3, 0, 5, 6, 7]),
            np.linspace(-1.0, 1.0, 7) / 3.0]
    path = tmp_path / "out.csv"
    signal_core._write_columns(path, "a,b,c", cols, end)
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in cols))
    want = "a,b,c" + end + "".join(",".join(map(repr, r)) + end for r in rows)
    assert path.read_bytes() == want.encode()
    signal_core._write_columns(path, "a", [np.array([])], end)
    assert path.read_bytes() == ("a" + end).encode()
