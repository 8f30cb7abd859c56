"""Tests for the waveform generators, discrete codes, and phase model."""

import gc
import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import sonarwave
from sonarwave.gbf import TruncationError, gbf_coeffs
from sonarwave.signal_core import ParameterError, Taper, spectrum_of
from sonarwave.waveforms import (
    _COSTAS_MAX,
    _N_SAMPLES_CAP,
    FAMILIES,
    _sample,
    CodeError,
    WaveformSpec,
    costas_code,
    generate,
    gsfm_fourier_coeffs,
    gsfm_if_modulation,
    harmonic_series,
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
        assert even.gsfm_cycles == pytest.approx(2.0 * 14.0 * 0.25**2)
        nonsym = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0,
            symmetry="nonsymmetric",
        )
        assert nonsym.gsfm_alpha == pytest.approx(7.0 / T**2)

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

    def test_costas_order_cap(self, no_allocation):
        # The costas case of the sample-cap test meets this cap first, so
        # a bpsk checks the two-samples-a-chip rule.
        WaveformSpec(family="costas", T=T, f_c=FC, n_chips=_COSTAS_MAX)
        with pytest.raises(ParameterError, match="Costas order 1025 is"):
            WaveformSpec(family="costas", T=T, f_c=FC,
                         n_chips=_COSTAS_MAX + 1)
        with pytest.raises(ParameterError, match="samples, beyond the cap"):
            WaveformSpec(family="bpsk", T=T, f_c=FC, n_chips=_N_SAMPLES_CAP,
                         sample_rate=8000.0)

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


@st.composite
def spec_fields(draw):
    """Fields of a sampleable spec of any family, symmetry, taper and gsfm
    form."""
    family = draw(st.sampled_from(FAMILIES))
    kind = draw(st.sampled_from(["rectangular", "tukey", "hann"]))
    taper = Taper(kind, draw(st.floats(0.0, 1.0)) if kind == "tukey" else 0.0,
                  draw(st.sampled_from(["whole-pulse", "per-chip"])))
    kw = dict(family=family, T=draw(st.floats(0.05, 0.2)), f_c=FC,
              delta_f=draw(st.floats(0.0, 400.0)), taper=taper,
              symmetry=draw(st.sampled_from(["even", "nonsymmetric"])),
              sample_rate=draw(st.sampled_from([None, 6000.0, 9000.0])))
    if family == "sfm":
        kw["f_m"] = draw(st.floats(5.0, 50.0))
    if family == "gsfm":
        kw["rho"] = draw(st.floats(1.0, 3.0))
        kw[draw(st.sampled_from(["alpha", "cycles"]))] = draw(
            st.floats(1.0, 10.0))
    n = draw(st.sampled_from([4, 6, 10, 12]))
    code = (costas_code(n) if family == "costas"
            else draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if family == "costas" and draw(st.booleans()):
        kw["n_chips"] = n  # the Welch code, built when sampled
    elif family in ("costas", "bpsk", "qpsk"):
        kw.update(code=code, n_chips=draw(st.sampled_from([0, n])))
    if family == "qpsk":
        kw["qpsk_sign"] = draw(st.sampled_from([1, -1]))
    return kw


def built(kw):
    """The spec of the fields ``kw``, or None if they are refused."""
    try:
        return WaveformSpec(**kw)
    except ParameterError:
        return None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_fields(), spec_fields(),
       st.sampled_from([f.name for f in fields(WaveformSpec)]))
def test_spec_round_trip_and_replace(kw, other, name):
    spec = WaveformSpec(**kw)
    back = WaveformSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back == spec
    a, b = generate(spec), _sample(back)
    assert np.array_equal(a.samples, b.samples)
    assert (a.t0, a.sample_rate) == (b.t0, b.sample_rate)
    # Derived values follow the fields, so varying one field of a built
    # spec is the same as building from the varied fields.
    value = getattr(WaveformSpec(**other), name)
    try:
        varied = replace(spec, **{name: value})
    except ParameterError:
        varied = None
    assert varied == built(dict(kw, **{name: value}))


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
        assert spec.gsfm_cycles == pytest.approx(2.0 * 14.0 * 0.25**2)  # 1.75
        # Count IF modulation cycles by zero crossings: 2 per cycle.
        t = np.linspace(-T / 2, T / 2, 200001)
        g = gsfm_if_modulation(spec, t)
        crossings = np.sum(np.diff(np.signbit(g)))
        assert crossings == pytest.approx(2.0 * spec.gsfm_cycles, abs=1.0)


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
# One shared, read-only signal per live spec
# ----------------------------------------------------------------------

def same_signal(a, b):
    return (np.array_equal(a.samples, b.samples) and a.t0 == b.t0
            and a.sample_rate == b.sample_rate
            and a.energy_normalized == b.energy_normalized)


def test_generate_matches_sampler_on_corpus_and_pools(pool_specs):
    assert len(pool_specs) > 300
    for doc in pool_specs:
        spec = WaveformSpec.from_dict(doc)
        held = generate(spec)
        assert same_signal(held, _sample(spec)), doc
        assert generate(WaveformSpec.from_dict(doc)) is held


def test_equal_spec_shares_the_held_signal():
    held = generate(WaveformSpec(family="lfm", T=0.25, f_c=FC, delta_f=DF))
    generate(WaveformSpec(family="cw", T=0.25, f_c=FC))  # another spec between
    assert generate(WaveformSpec(family="lfm", T=0.25, f_c=2000,
                                 delta_f=200)) is held


def test_held_signal_is_not_kept_past_two_other_specs():
    # Only the last two distinct specs are kept: once two others were asked
    # for, an equal spec is sampled afresh, though a caller holds the first.
    a = WaveformSpec(family="lfm", T=0.25, f_c=FC, delta_f=DF)
    held = generate(a)
    generate(WaveformSpec(family="cw", T=0.25, f_c=FC))
    generate(WaveformSpec(family="cw", T=0.25, f_c=FC + 1.0))
    again = generate(a)
    assert again is not held
    assert same_signal(again, held)


def test_samples_are_read_only():
    samples = generate(WaveformSpec(family="cw", T=T, f_c=FC)).samples
    with pytest.raises(ValueError):
        samples[0] = 0.0
    with pytest.raises(ValueError):
        samples *= 2.0
    with pytest.raises(ValueError):
        samples.flags.writeable = True
    # The array under them is locked too.
    assert not samples.base.flags.writeable
    with pytest.raises(ValueError):
        samples.base[0] = 0.0


def test_raising_spec_raises_again():
    spec = WaveformSpec(family="costas", T=T, f_c=FC, delta_f=DF,
                        code=(1, 2, 3, 4))
    for _ in range(2):
        with pytest.raises(CodeError, match="Costas difference check"):
            generate(spec)


def test_unheld_signals_are_not_retained():
    # 50 distinct 17,600-sample specs, none held: only the last two asked
    # for stay, not 50 x 282 kB.
    def spec(k):
        return WaveformSpec(family="cw", T=T, f_c=FC + k)

    nbytes = generate(spec(-1)).samples.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(50):
            generate(spec(k))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 2 * nbytes <= retained < 2.5 * nbytes


def test_concurrent_generate_returns_correct_signals():
    # 4 threads ask for 8 specs, each in its own order, so misses, hits and
    # evictions of the kept specs race: every signal must still be right.
    specs = [WaveformSpec(family="lfm", T=0.05, f_c=FC + 10 * k, delta_f=DF)
             for k in range(8)]
    expected = [_sample(spec) for spec in specs]
    start = threading.Barrier(4)

    def ask(seed):
        order = np.random.default_rng(seed).permutation(8 * 25) % 8
        start.wait()
        return [(k, generate(specs[k])) for k in order]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(ask, range(4)))
    for got in results:
        for k, sig in got:
            assert same_signal(sig, expected[k])


NUMBER_FIELDS = ("T", "f_c", "delta_f", "f_m", "rho", "alpha", "cycles",
                 "sample_rate")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_fields(), st.sampled_from([1, 2]),
       st.sampled_from([(int, int), (np.float32, np.int64),
                        (np.int64, np.int64)]))
def test_int_and_float_fields_sample_equally(kw, T, kinds):
    # T = 1 or 2 s and the other number fields rounded to integers, typed
    # as float in one spec and as int or a numpy scalar in the other: the
    # specs are equal, so they must sample bit for bit alike.
    def typed(real, integer):
        out = {k: real(max(round(v), 1)) if k in NUMBER_FIELDS and v is not None
               else v for k, v in dict(kw, T=float(T)).items()}
        out.update({k: integer(kw[k]) for k in ("n_chips", "qpsk_sign")
                    if k in kw})
        taper = kw["taper"]
        out["taper"] = replace(taper, shape_param=real(round(taper.shape_param)))
        return out

    a = built(typed(float, int))
    assume(a is not None)
    b = WaveformSpec(**typed(*kinds))
    assert a == b and hash(a) == hash(b)
    assert same_signal(_sample(a), _sample(b))


@pytest.mark.parametrize("kw", [
    # float32 arithmetic would round the lfm's phase differently.
    dict(family="lfm", T=np.float32(0.5), f_c=2000.0, delta_f=200.0),
    # An exact int 5**23 would give an alpha one ulp off the float's.
    dict(family="gsfm", T=5, f_c=2000, delta_f=200, rho=23, cycles=2,
         symmetry="nonsymmetric", sample_rate=6000),
])
def test_number_fields_are_held_as_builtins(kw):
    spec = WaveformSpec(**kw)
    as_float = WaveformSpec(**{k: float(v) if isinstance(v, (int, np.number))
                               else v for k, v in kw.items()})
    assert spec == as_float
    assert all(type(getattr(spec, f.name)) is type(getattr(as_float, f.name))
               for f in fields(WaveformSpec))
    assert same_signal(_sample(spec), _sample(as_float))
    held = generate(spec)
    assert generate(as_float) is held


# ----------------------------------------------------------------------
# Fourier phase model
# ----------------------------------------------------------------------

class TestFourierPhaseModel:
    def test_sfm_embedded_single_harmonic(self):
        # rho=1 with alpha = 1/T puts all IF energy in the first harmonic.
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=8.0, rho=1.0, alpha=2.0
        )
        model = gsfm_fourier_coeffs(spec)
        # beta_1 = delta_f / (2 f_m) with f_m = alpha.
        assert model.beta_k[0] == pytest.approx(8.0 / (2.0 * 2.0), abs=1e-9)
        # The IF's other cosine coefficients, a_k = 2 k beta_k / (delta_f T)
        # = k beta_k / 2, vanish.
        k = np.arange(1, len(model.beta_k) + 1)
        assert np.max(np.abs(k * model.beta_k / 2.0)[1:]) < 1e-9

    def test_if_reconstruction_residual(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
        )
        # Even truncated to 4C + 20 harmonics, the series reconstructs the
        # IF to the stated budget (the adaptive choice keeps more terms).
        # The normalized IF's cosine series: a_k = 2 k beta_k / (delta_f T)
        # and a0 = 4 center_shift / delta_f.
        model = gsfm_fourier_coeffs(spec)
        k = np.arange(1, int(4 * spec.cycles + 20) + 1)
        a_k = 2.0 * k * model.beta_k[: len(k)] / (DF * T)
        a0 = 4.0 * model.center_shift / DF
        t = np.linspace(-T / 2, T / 2, 4001)
        g = a0 / 2.0 + np.cos(2.0 * np.pi * np.outer(t, k) / T) @ a_k
        resid = g - gsfm_if_modulation(spec, t)
        # Residual of the IF itself, (delta_f/2) * g, within delta_f * 1e-3.
        assert np.max(np.abs(resid)) * DF / 2.0 < DF * 1e-3

    def test_a0_quadrature_oracle(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0
        )
        model = gsfm_fourier_coeffs(spec)
        t = np.linspace(-T / 2, T / 2, 400001)
        a0 = 2.0 * np.trapezoid(gsfm_if_modulation(spec, t), t) / T
        # center_shift = a0 delta_f / 4, with a0 held to 1e-6.
        assert model.center_shift == pytest.approx(a0 * DF / 4.0,
                                                   abs=1e-6 * DF / 4.0)

    def test_truncation_error_is_the_package_one(self):
        # The one order cap on the closed forms is the Bessel series'; a
        # wide gsfm's phase model reaches it.
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=2e5, delta_f=1e5, rho=2.0, cycles=7.0
        )
        with pytest.raises(sonarwave.TruncationError, match="cap"):
            gbf_coeffs(harmonic_series(spec)[0])
        assert TruncationError is sonarwave.TruncationError
        assert issubclass(sonarwave.TruncationError, ParameterError)

    def test_requires_even_symmetry(self):
        spec = WaveformSpec(
            family="gsfm", T=T, f_c=FC, delta_f=DF, rho=2.0, cycles=7.0,
            symmetry="nonsymmetric",
        )
        with pytest.raises(ParameterError):
            gsfm_fourier_coeffs(spec)
