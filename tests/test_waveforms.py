"""Tests for the waveform generators, discrete codes, and phase model."""

import numpy as np
import pytest

import sonarwave
from sonarwave.signal_core import ParameterError, Taper, spectrum_of
from sonarwave.waveforms import (
    _N_SAMPLES_CAP,
    CodeError,
    FourierPhaseModel,
    TruncationError,
    WaveformSpec,
    costas_code,
    generate,
    gsfm_fourier_coeffs,
    gsfm_if_modulation,
    is_costas,
    m_sequence,
)

T, FC, DF = 0.5, 2000.0, 200.0


def if_estimate(sig):
    """Phase-difference instantaneous-frequency estimate (interior points)."""
    ph = np.unwrap(np.angle(sig.samples))
    return np.diff(ph) * sig.sample_rate / (2.0 * np.pi)


# ----------------------------------------------------------------------
# WaveformSpec
# ----------------------------------------------------------------------

class TestWaveformSpec:
    def test_beta(self):
        spec = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=200.0, f_m=10.0)
        assert spec.beta == 10.0

    def test_gsfm_alpha_cycles_exclusive(self):
        with pytest.raises(ParameterError):
            WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0)
        with pytest.raises(ParameterError):
            WaveformSpec(
                family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                alpha=14.0, cycles=7.0,
            )

    def test_gsfm_cycles_round_trip(self):
        even = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, alpha=14.0
        )
        assert even.cycles == pytest.approx(2.0 * 14.0 * 0.25**2)
        nonsym = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0,
            symmetry="nonsymmetric",
        )
        assert nonsym.alpha == pytest.approx(7.0 / T**2)

    def test_rho_below_one_rejected(self):
        with pytest.raises(ParameterError):
            WaveformSpec(
                family="gsfm", T=T, f_c=FC, delta_f=DF, rho=0.5, alpha=10.0
            )

    def test_from_dict_strict(self):
        with pytest.raises(ParameterError):
            WaveformSpec.from_dict(
                {"family": "cw", "T": T, "f_c": FC, "rho_": 2.0}
            )
        with pytest.raises(ParameterError):
            WaveformSpec.from_dict(
                {"family": "cw", "T": T, "f_c": FC,
                 "taper": {"kind": "hann", "alpha": 0.1}}
            )

    def test_dict_round_trip(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.2, alpha=20.0,
            taper=Taper("tukey", 0.1),
        )
        assert WaveformSpec.from_dict(spec.to_dict()) == spec

    def test_sample_count_cap(self, no_allocation):
        cap = _N_SAMPLES_CAP
        WaveformSpec(family="cw", T=1.0, f_c=FC, sample_rate=float(cap))
        for bad in (
            dict(family="cw", T=1.0, f_c=FC, sample_rate=float(cap + 1)),
            dict(family="cw", T=3600.0, f_c=FC),
            dict(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                 alpha=14.0, sample_rate=1e9),
            # Two samples per chip, whatever the sample rate.
            dict(family="costas", T=T, f_c=FC, n_chips=cap,
                 sample_rate=8000.0),
        ):
            with pytest.raises(ParameterError, match="cap"):
                WaveformSpec(**bad)

    @pytest.mark.parametrize("fields, message", [
        (dict(family="bpsk", code=(0, 1, 1, 0, 1), n_chips=10),
         "disagrees with the 5-chip code"),
        (dict(family="costas", code=(2, 4, 3, 1), n_chips=3),
         "disagrees with the 4-chip code"),
        (dict(family="costas", n_chips=2.5), "n_chips must be"),
        (dict(family="bpsk", n_chips=-1), "n_chips must be"),
    ])
    def test_chips_must_match_code(self, fields, message):
        with pytest.raises(ParameterError, match=message):
            WaveformSpec(T=T, f_c=FC, delta_f=DF, **fields)

    @pytest.mark.parametrize("fields", [
        dict(family="bpsk"), dict(family="qpsk", code=()),
        dict(family="costas"),
    ], ids=lambda f: f["family"])
    def test_coded_family_needs_chips(self, fields):
        # Such a spec is valid to build (a sweep records its row failure),
        # but there is no grid to sample.
        with pytest.raises(ParameterError, match="needs at least one chip"):
            generate(WaveformSpec(T=T, f_c=FC, delta_f=DF, **fields))

    @pytest.mark.parametrize("symmetry", ["even", "nonsymmetric"])
    @pytest.mark.parametrize("form", [{"alpha": 1.0}, {"cycles": 10.0}])
    @pytest.mark.parametrize("duration", [4.0, 0.5])
    def test_rho_beyond_float_range(self, symmetry, form, duration):
        # T^rho overflows at T = 4 and underflows to 0 at T = 0.5.
        with pytest.raises(ParameterError, match="rho is too large"):
            WaveformSpec(family="gsfm", T=duration, f_c=FC, delta_f=DF,
                         rho=2000.0, symmetry=symmetry, **form)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            WaveformSpec(family="pm", T=T, f_c=FC)

    @pytest.mark.parametrize("field", ["T", "f_c", "delta_f", "f_m", "rho",
                                       "alpha", "sample_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5"])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        good = dict(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0,
                    alpha=14.0)
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            WaveformSpec(**dict(good, **{field: value}))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

class TestLfm:
    def test_zero_sweep_is_cw(self):
        lfm = generate(WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=0.0))
        cw = generate(WaveformSpec(family="cw", T=T, f_c=FC))
        np.testing.assert_allclose(lfm.samples, cw.samples, atol=1e-12)

    def test_sweep_rate(self):
        sig = generate(WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF))
        f_est = if_estimate(sig)
        t = sig.times[:-1]
        slope = np.polyfit(t, f_est, 1)[0]
        assert slope == pytest.approx(DF / T, rel=0.02)

    def test_acf_first_null(self):
        from sonarwave.ambiguity import acf

        sig = generate(WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF))
        delays = np.linspace(0.0, 0.01, 2001)
        cut = acf(sig, delays)
        # First local minimum of the envelope away from the peak.
        mins = np.nonzero(
            (cut.values[1:-1] < cut.values[:-2])
            & (cut.values[1:-1] < cut.values[2:])
            & (cut.values[1:-1] < 0.2)
        )[0]
        first_null = delays[mins[0] + 1]
        assert first_null == pytest.approx(1.0 / DF, abs=2e-4)


class TestSfm:
    SPEC = WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0)

    def test_if_range_equals_delta_f(self):
        sig = generate(self.SPEC)
        f_est = if_estimate(sig)
        assert f_est.max() - f_est.min() == pytest.approx(DF, rel=0.01)

    def test_spectral_lines_spaced_f_m(self):
        sig = generate(self.SPEC)
        sp = spectrum_of(sig, nfft=1 << 18)
        p = np.abs(sp.values) ** 2
        # The strongest spectral lines all sit at f_c + k f_m.
        strong = p > 0.2 * p.max()
        offsets = (sp.freqs[strong] - FC + 5.0) % 10.0 - 5.0
        assert np.max(np.abs(offsets)) < 1.5

    def test_requires_f_m(self):
        with pytest.raises(ParameterError):
            WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF)


class TestGsfm:
    def test_rho_one_collapses_to_sfm(self):
        f_m = 10.0
        sfm = generate(
            WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=f_m,
                         symmetry="nonsymmetric")
        )
        gsfm = generate(
            WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=1.0,
                         alpha=f_m, symmetry="nonsymmetric",
                         sample_rate=sfm.sample_rate)
        )
        assert np.linalg.norm(gsfm.samples - sfm.samples) < 1e-8

    def test_if_matches_analytic(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
        )
        sig = generate(spec)
        f_est = if_estimate(sig)
        t_mid = 0.5 * (sig.times[:-1] + sig.times[1:])
        f_true = FC + (DF / 2.0) * gsfm_if_modulation(spec, t_mid)
        assert np.max(np.abs(f_est - f_true)) < DF * 1e-3

    def test_if_cycle_count(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, alpha=14.0
        )
        assert spec.cycles == pytest.approx(2.0 * 14.0 * 0.25**2)  # 1.75
        # Count IF modulation cycles by zero crossings: 2 per cycle.
        t = np.linspace(-T / 2, T / 2, 200001)
        g = gsfm_if_modulation(spec, t)
        crossings = np.sum(np.diff(np.signbit(g)))
        assert crossings == pytest.approx(2.0 * spec.cycles, abs=1.0)


class TestCostas:
    def test_single_chip_is_cw(self):
        costas = generate(
            WaveformSpec(family="costas", T=T, f_c=FC, delta_f=0.0,
                         n_chips=1, symmetry="nonsymmetric")
        )
        cw = generate(
            WaveformSpec(family="cw", T=T, f_c=FC, symmetry="nonsymmetric",
                         sample_rate=costas.sample_rate)
        )
        np.testing.assert_allclose(costas.samples, cw.samples, atol=1e-9)

    def test_welch_order_four(self):
        assert costas_code(4) == (2, 4, 3, 1)
        assert is_costas((2, 4, 3, 1))

    def test_welch_order_sixteen(self):
        code = costas_code(16)
        assert len(code) == 16
        assert is_costas(code)

    def test_order_one(self):
        assert costas_code(1) == (1,)

    def test_unsupported_order(self):
        with pytest.raises(CodeError):
            costas_code(5)  # 6 is not prime

    def test_invalid_code_rejected(self):
        assert not is_costas((1, 2, 3, 4))
        with pytest.raises(CodeError):
            generate(
                WaveformSpec(family="costas", T=T, f_c=FC, delta_f=DF,
                             code=(1, 2, 3, 4))
            )

    def test_phase_continuity(self):
        sig = generate(
            WaveformSpec(family="costas", T=T, f_c=FC, delta_f=DF, n_chips=16)
        )
        # A phase jump at a chip boundary would spike the IF estimate far
        # beyond the hop band.
        f_est = if_estimate(sig)
        assert np.max(np.abs(f_est - FC)) < DF

    def test_mainlobe_matches_lfm(self):
        from sonarwave.ambiguity import acf, mainlobe_width

        delays = np.linspace(-0.02, 0.02, 4001)
        w = {}
        for fam, extra in [
            ("costas", {"n_chips": 16}),
            ("lfm", {}),
        ]:
            sig = generate(
                WaveformSpec(family=fam, T=T, f_c=FC, delta_f=DF, **extra)
            )
            w[fam] = mainlobe_width(acf(sig, delays), 3.0).width
        assert abs(w["costas"] - w["lfm"]) / w["lfm"] < 0.10


class TestBpsk:
    def test_all_zero_code_is_cw(self):
        bpsk = generate(
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=(0,) * 8,
                         symmetry="nonsymmetric")
        )
        cw = generate(
            WaveformSpec(family="cw", T=T, f_c=FC, symmetry="nonsymmetric",
                         sample_rate=bpsk.sample_rate)
        )
        np.testing.assert_allclose(bpsk.samples, cw.samples, atol=1e-9)

    def test_empty_code_rejected(self):
        with pytest.raises(ParameterError):
            generate(WaveformSpec(family="bpsk", T=T, f_c=FC))

    def test_rect_chip_sidelobes_6db_per_octave(self):
        sig = generate(
            WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(6))
        )
        sp = spectrum_of(sig, nfft=1 << 18)
        chip_bw = 63.0 / T
        # Average sidelobe power one and two octaves beyond the main band.
        def avg_db(mult):
            sel = (np.abs(sp.freqs - FC) > mult * chip_bw) & (
                np.abs(sp.freqs - FC) < 2.0 * mult * chip_bw
            )
            return 10.0 * np.log10(np.mean(np.abs(sp.values[sel]) ** 2))

        decay = avg_db(1) - avg_db(2)
        assert decay == pytest.approx(6.0, abs=2.0)


class TestQpsk:
    def test_all_zero_bits_quadriphase_staircase(self):
        n_ch = 8
        spec = WaveformSpec(
            family="qpsk", T=T, f_c=FC, code=(0,) * n_ch,
            symmetry="nonsymmetric",
        )
        sig = generate(spec)
        n_chip = len(sig) // n_ch
        # Baseband chip phase at mid-chip (before the transition ramp).
        base = np.angle(
            sig.samples * np.exp(-2j * np.pi * FC * sig.times)
        )
        mids = base[n_chip // 4 :: n_chip][:n_ch]
        steps = np.unwrap(mids)
        np.testing.assert_allclose(np.diff(steps), np.pi / 2.0, atol=1e-6)

    def test_constant_envelope(self):
        sig = generate(
            WaveformSpec(family="qpsk", T=T, f_c=FC, code=m_sequence(5))
        )
        mag = np.abs(sig.samples)
        assert mag.max() - mag.min() < 1e-9

    def test_papr_bound(self):
        from sonarwave.analysis import papr

        sig = generate(
            WaveformSpec(family="qpsk", T=T, f_c=FC, code=m_sequence(6))
        )
        assert papr(sig) <= 3.3

    def test_sidelobes_12db_per_octave(self):
        sig = generate(
            WaveformSpec(family="qpsk", T=T, f_c=FC, code=m_sequence(6))
        )
        sp = spectrum_of(sig, nfft=1 << 18)
        chip_bw = 63.0 / T

        def avg_db(mult):
            sel = (np.abs(sp.freqs - FC) > mult * chip_bw) & (
                np.abs(sp.freqs - FC) < 2.0 * mult * chip_bw
            )
            return 10.0 * np.log10(np.mean(np.abs(sp.values[sel]) ** 2))

        # The CPM smoothing reaches its asymptotic slope a few octaves out
        # (the 10%-of-chip ramp sets the transition scale).
        decay = avg_db(4) - avg_db(8)
        assert decay == pytest.approx(12.0, abs=3.0)

    def test_bad_sign_rejected(self):
        with pytest.raises(ParameterError):
            generate(
                WaveformSpec(family="qpsk", T=T, f_c=FC, code=(0, 1),
                             qpsk_sign=2)
            )


# ----------------------------------------------------------------------
# m-sequences
# ----------------------------------------------------------------------

class TestMSequence:
    def test_balance_degree_four(self):
        seq = m_sequence(4)
        assert len(seq) == 15
        assert sum(seq) == 8  # eight ones, seven zeros

    def test_degree_five_length(self):
        assert len(m_sequence(5)) == 31

    def test_periodic_autocorrelation(self):
        seq = np.array(m_sequence(6))
        x = 1.0 - 2.0 * seq  # bits to +-1
        for shift in range(1, 63):
            assert np.dot(x, np.roll(x, shift)) == pytest.approx(-1.0)

    def test_degree_out_of_range(self):
        for deg in (1, 17):
            with pytest.raises(ParameterError):
                m_sequence(deg)


# ----------------------------------------------------------------------
# Shared generator invariants
# ----------------------------------------------------------------------

UNTAPERED = [
    WaveformSpec(family="cw", T=T, f_c=FC),
    WaveformSpec(family="lfm", T=T, f_c=FC, delta_f=DF),
    WaveformSpec(family="sfm", T=T, f_c=FC, delta_f=DF, f_m=10.0),
    WaveformSpec(family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0),
    WaveformSpec(family="costas", T=T, f_c=FC, delta_f=DF, n_chips=10),
    WaveformSpec(family="bpsk", T=T, f_c=FC, code=m_sequence(5)),
    WaveformSpec(family="qpsk", T=T, f_c=FC, code=m_sequence(5)),
]


@pytest.mark.parametrize("spec", UNTAPERED, ids=lambda s: s.family)
def test_constant_modulus_untapered(spec):
    sig = generate(spec)
    mag = np.abs(sig.samples)
    assert mag.max() - mag.min() < 1e-9 * mag.max()


@pytest.mark.parametrize("spec", UNTAPERED, ids=lambda s: s.family)
def test_unit_energy(spec):
    assert generate(spec).energy == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("spec", UNTAPERED, ids=lambda s: s.family)
def test_parseval(spec):
    sig = generate(spec)
    assert spectrum_of(sig).energy == pytest.approx(sig.energy, rel=1e-6)


@pytest.mark.parametrize("fields", [
    dict(family="cw"),
    dict(family="lfm", delta_f=DF),
    dict(family="sfm", delta_f=DF, f_m=10.0),
    dict(family="gsfm", delta_f=DF, rho=2.0, cycles=7.0),
], ids=lambda f: f["family"])
def test_per_chip_taper_of_uncoded_family_is_whole_pulse(fields):
    # An uncoded pulse is one chip, so its per-chip taper is the whole-pulse
    # taper, bit for bit.
    def sig(**taper):
        return generate(WaveformSpec(T=T, f_c=FC, taper=Taper(**taper),
                                     **fields)).samples

    chip = sig(kind="hann", scope="per-chip")
    assert np.array_equal(chip, sig(kind="hann"))
    assert not np.array_equal(chip, sig())


def test_nyquist_guard():
    with pytest.raises(ParameterError):
        generate(
            WaveformSpec(family="cw", T=T, f_c=FC, sample_rate=3000.0)
        )


# ----------------------------------------------------------------------
# Fourier phase model
# ----------------------------------------------------------------------

class TestFourierPhaseModel:
    def test_sfm_embedded_single_harmonic(self):
        # rho=1 with alpha = 1/T puts all IF energy in the first harmonic.
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=8.0, rho=1.0, alpha=2.0
        )
        model = gsfm_fourier_coeffs(spec, K=64)
        assert model.a_k[0] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(model.a_k[1:])) < 1e-9
        # beta_1 = delta_f / (2 f_m) with f_m = alpha.
        assert model.beta_k[0] == pytest.approx(8.0 / (2.0 * 2.0), abs=1e-9)

    def test_if_reconstruction_residual(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
        )
        # Even truncated to 4C + 20 harmonics, the series reconstructs the
        # IF to the stated budget (the adaptive choice keeps more terms).
        full = gsfm_fourier_coeffs(spec)
        k = int(4 * spec.cycles + 20)
        model = FourierPhaseModel(
            a0=full.a0, a_k=full.a_k[:k], beta_k=full.beta_k[:k], K=k,
            T=full.T, delta_f=full.delta_f,
        )
        t = np.linspace(-T / 2, T / 2, 4001)
        resid = model.if_reconstruction(t) - gsfm_if_modulation(spec, t)
        # Residual of the IF itself, (delta_f/2) * g, within delta_f * 1e-3.
        assert np.max(np.abs(resid)) * DF / 2.0 < DF * 1e-3

    def test_a0_quadrature_oracle(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
        )
        model = gsfm_fourier_coeffs(spec)
        t = np.linspace(-T / 2, T / 2, 400001)
        a0 = 2.0 * np.trapezoid(gsfm_if_modulation(spec, t), t) / T
        assert model.a0 == pytest.approx(a0, abs=1e-6)

    def test_truncation_error(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.9, cycles=40.0
        )
        with pytest.raises(TruncationError) as exc:
            gsfm_fourier_coeffs(spec, K=16)
        assert exc.value.suggested_k == 32

    def test_truncation_error_is_the_package_one(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.9, cycles=40.0
        )
        with pytest.raises(sonarwave.TruncationError):
            gsfm_fourier_coeffs(spec, K=16)
        assert issubclass(sonarwave.TruncationError, ParameterError)

    def test_requires_even_symmetry(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0,
            symmetry="nonsymmetric",
        )
        with pytest.raises(ParameterError):
            gsfm_fourier_coeffs(spec)
