"""Side-by-side checks of the design-report kernels.

Each kernel below is kept as it was before it stopped repeating work, and
serves as the reference:

- ``_reference_bandwidth_98`` bisects through ``_reference_spectral_efficiency``,
  which rebuilds the cumulative energy on every step.  ``bandwidth_98``
  builds it once and must return the same float (``==``) on every spec of
  ``specs/`` and on drawn specs.
- ``_reference_trw_energy`` is the energy of ``apply_response``'s analytic
  TRW, and ``_analytic_energy`` takes it by Parseval from X H, the rfft of
  the real drive times the response, phase included.  ``trw_report`` takes
  it from magnitudes alone and must agree with both to 1e-12 relative, for
  odd and even lengths, through both README responses and a zero-ripple
  one, on ``specs/`` and on the benchmark's drawn pools.
- ``metrics_report`` must equal (``==``) the report built from the public
  ``bandwidth_98`` and ``spectral_efficiency``.
- The spectrum a signal from ``generate`` keeps must equal one computed
  afresh from a writable copy, bit for bit, and be read-only; kept
  transforms, the spectrum's cumulative-energy table among them, are freed
  with their signal, and a writable signal or spectrum keeps none.
- ``_reference_cumulative_simpson`` evaluates every interval looking ahead
  and looking behind and keeps half of each.  ``_cumulative_simpson``
  evaluates only the intervals it keeps and must agree by
  ``np.array_equal``, on odd and even lengths and with unequal steps.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sonarwave import waveforms
from sonarwave.analysis import (
    UndefinedMetricError,
    _cumulative_energy,
    bandwidth_98,
    metrics_report,
    papr,
    spectral_efficiency,
)
from sonarwave.cli import _load_response, _load_spec
from sonarwave.signal_core import (
    ParameterError,
    SampledSignal,
    Spectrum,
    Taper,
    spectrum_of,
)
from sonarwave.transducer import (
    _trw_energy,
    apply_response,
    equalize,
    make_response,
    peak_normalized,
    trw_report,
)
from sonarwave.waveforms import (
    WaveformSpec,
    _cumulative_simpson,
    generate,
    gsfm_if_modulation,
    m_sequence,
)


# ----------------------------------------------------------------------
# bandwidth_98
# ----------------------------------------------------------------------

def _reference_spectral_efficiency(spec, f_c, delta_F):
    if delta_F < 0:
        raise ParameterError("delta_F must be nonnegative")
    lo, hi = f_c - delta_F / 2.0, f_c + delta_F / 2.0
    slack = 1e-9 * (abs(spec.freqs[-1]) + spec.df)
    if (
        lo < spec.freqs[0] - spec.df / 2 - slack
        or hi > spec.freqs[-1] + spec.df / 2 + slack
    ):
        raise ParameterError("band extends outside the spectrum grid")
    p = np.abs(spec.values) ** 2
    cum = np.concatenate([[0.0], np.cumsum(p) * spec.df])
    edges = np.concatenate(
        [[spec.freqs[0] - spec.df / 2], spec.freqs + spec.df / 2]
    )
    total = cum[-1]
    e_lo, e_hi = np.interp([lo, hi], edges, cum)
    return float((e_hi - e_lo) / total)


def _reference_bandwidth_98(spec, f_c, fraction=0.98, tol_hz=0.1):
    max_df = 2.0 * min(
        f_c - (spec.freqs[0] - spec.df / 2),
        (spec.freqs[-1] + spec.df / 2) - f_c,
    )
    if _reference_spectral_efficiency(spec, f_c, max_df) < fraction:
        raise ParameterError(
            "spectrum grid too narrow to reach the requested energy fraction"
        )
    lo, hi = 0.0, max_df
    while hi - lo > tol_hz:
        mid = 0.5 * (lo + hi)
        if _reference_spectral_efficiency(spec, f_c, mid) >= fraction:
            hi = mid
        else:
            lo = mid
    return float(hi)


def _assert_same_bandwidth(sp, f_c, **kwargs):
    try:
        ref = _reference_bandwidth_98(sp, f_c, **kwargs)
    except ParameterError:
        with pytest.raises(ParameterError):
            bandwidth_98(sp, f_c, **kwargs)
        return
    assert bandwidth_98(sp, f_c, **kwargs) == ref


def test_bandwidth_matches_reference_on_corpus(spec_dir):
    paths = [
        path for path in sorted(spec_dir.rglob("*.json"))
        if "family" in json.loads(path.read_text())
    ]
    assert len(paths) >= 20
    for path in paths:
        spec = _load_spec(path)
        _assert_same_bandwidth(spectrum_of(generate(spec)), spec.f_c)


def _reference_metrics(spec, band_hz):
    sig = generate(spec)
    sp = spectrum_of(sig)
    try:
        b98 = bandwidth_98(sp, spec.f_c)
    except UndefinedMetricError:
        if band_hz is None:
            raise
        b98 = None
    return (papr(sig),
            spectral_efficiency(sp, spec.f_c, b98 if band_hz is None else band_hz),
            b98, None if b98 is None else sig.duration * b98)


@pytest.mark.parametrize("band_hz", [None, 300.0])
def test_metrics_report_matches_public_metrics_on_corpus(spec_dir, band_hz):
    for path in sorted(spec_dir.rglob("*.json")):
        if "family" not in json.loads(path.read_text()):
            continue
        spec = _load_spec(path)
        try:
            ref = _reference_metrics(spec, band_hz)
        except ParameterError as exc:
            with pytest.raises(type(exc), match=str(exc)):
                metrics_report(spec, band_hz)
            continue
        rep = metrics_report(spec, band_hz)
        assert (rep.papr_db, rep.se, rep.band_98, rep.tbp) == ref, path


def _drawn_spec(family, T, f_c, tbp, cycles, taper):
    extra = {
        "cw": {},
        "lfm": {},
        "sfm": {"f_m": cycles / T},
        "gsfm": {"rho": 2.0 + cycles / 20.0, "cycles": cycles},
        "costas": {"n_chips": 6},
        "bpsk": {"code": m_sequence(5)},
        "qpsk": {"code": m_sequence(6)},
    }[family]
    if taper != "rectangular" and family in ("costas", "bpsk", "qpsk"):
        scope = "per-chip"
    else:
        scope = "whole-pulse"
    shape = 0.2 if taper == "tukey" else 0.0
    return WaveformSpec(
        family=family, T=T, f_c=f_c, delta_f=tbp / T,
        taper=Taper(taper, shape, scope=scope), **extra,
    )


_DRAWN = settings(
    max_examples=50, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_DRAWN
@given(
    spec=st.builds(
        _drawn_spec,
        family=st.sampled_from(
            ["cw", "lfm", "sfm", "gsfm", "costas", "bpsk", "qpsk"]),
        T=st.floats(0.02, 0.1),
        f_c=st.floats(1000.0, 4000.0),
        tbp=st.floats(5.0, 60.0),
        cycles=st.floats(3.0, 10.0),
        taper=st.sampled_from(["rectangular", "hann", "tukey"]),
    ),
    fraction=st.sampled_from([0.98, 0.5, 0.9, 0.999]),
    tol_hz=st.sampled_from([0.1, 1e-3, 7.0]),
)
def test_bandwidth_matches_reference_on_drawn_specs(spec, fraction, tol_hz):
    _assert_same_bandwidth(spectrum_of(generate(spec)), spec.f_c,
                           fraction=fraction, tol_hz=tol_hz)


# ----------------------------------------------------------------------
# TRW energy
# ----------------------------------------------------------------------

def _reference_trw_energy(drive, resp):
    return apply_response(drive, resp).energy


def _analytic_energy(half: np.ndarray, n: int, sample_rate: float) -> float:
    """Energy of ``_analytic(half, n)`` at ``sample_rate``, by Parseval.

    Over the same mask: the real parts of DC and (n even) Nyquist once,
    each positive bin 4 times in power, all divided by n * sample_rate.
    """
    positive = half[1 : len(half) - 1 if n % 2 == 0 else len(half)]
    power = 4.0 * np.sum(positive.real ** 2 + positive.imag ** 2)
    power += half[0].real ** 2
    if n % 2 == 0:
        power += half[-1].real ** 2
    return float(power / (n * sample_rate))


def _responses(spec_dir):
    return {
        "nonequalized": _load_response(
            spec_dir / "trw" / "response_nonequalized.json"),
        "equalized": _load_response(
            spec_dir / "trw" / "response_equalized.json"),
        "zero-ripple": make_response(
            "parametric", 110e3, (100e3, 120e3), 0.0),
    }


def _responses_at(f_c):
    """The three responses above, resonant at ``f_c`` instead of 110 kHz."""
    band = (f_c * 100.0 / 110.0, f_c * 120.0 / 110.0)
    resonant = make_response("parametric", f_c, band, 4.07)
    return {
        "nonequalized": resonant,
        "equalized": equalize(resonant, 0.39),
        "zero-ripple": make_response("parametric", f_c, band, 0.0),
    }


def _writable_copy(sig):
    return SampledSignal(sig.samples.copy(), sig.sample_rate, sig.t0)


def _filtered_rfft(sig, resp):
    """X H: the rfft of the real drive times the response at its bins."""
    n = len(sig)
    f = np.fft.rfftfreq(n, d=1.0 / sig.sample_rate)
    return np.fft.rfft(sig.samples.real) * resp.response_at(f), n


@pytest.mark.parametrize("response",
                         ["nonequalized", "equalized", "zero-ripple"])
def test_trw_energy_matches_analytic_signal(spec_dir, response):
    resp = _responses(spec_dir)[response]
    for path in sorted((spec_dir / "trw").rglob("*.json")):
        if "family" not in json.loads(path.read_text()):
            continue
        held = generate(_load_spec(path))
        drive = peak_normalized(held)
        lengths = set()
        for n in (len(drive), len(drive) - 1):
            sig = SampledSignal(held.samples[:n], held.sample_rate, held.t0)
            cut = SampledSignal(drive.samples[:n], drive.sample_rate, drive.t0)
            got = _trw_energy(sig, resp)
            ref = _reference_trw_energy(cut, resp)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
            parseval = _analytic_energy(*_filtered_rfft(cut, resp),
                                        cut.sample_rate)
            assert got == pytest.approx(parseval, rel=1e-12, abs=0)
            lengths.add(n % 2)
        assert lengths == {0, 1}


def test_trw_report_energies_match_analytic_signal(spec_dir):
    specs = [
        (path.stem, _load_spec(path))
        for path in sorted((spec_dir / "trw").rglob("*.json"))
        if "family" in json.loads(path.read_text())
    ]
    for resp in _responses(spec_dir).values():
        rows = trw_report(specs, resp, "gsfm_ii")
        for (label, spec), row in zip(specs, rows):
            assert row["label"] == label
            ref = _reference_trw_energy(peak_normalized(generate(spec)), resp)
            assert row["energy"] == pytest.approx(ref, rel=1e-12, abs=0)


def test_trw_report_keeps_its_row_errors(spec_dir):
    # A 2 kHz drive lies below the 110 kHz response, and it stays a row
    # error, worded as apply_response words it.
    resp = _responses(spec_dir)["nonequalized"]
    low = WaveformSpec(family="lfm", T=0.5, f_c=2000.0, delta_f=200.0)
    ref = _load_spec(spec_dir / "trw" / "narrowband" / "gsfm_ii.json")
    with pytest.raises(ParameterError) as exc:
        apply_response(peak_normalized(generate(low)), resp)
    rows = trw_report([("low", low), ("ref", ref)], resp, "ref")
    assert rows[0]["error"] == str(exc.value)
    assert rows[0]["energy"] is None and rows[1]["error"] is None
    for samples, message in (([0.0, 0.0], "all-zero"), ([1.0], "one sample")):
        sig = SampledSignal(np.array(samples), 1000.0)
        with pytest.raises(ParameterError, match=message):
            _trw_energy(sig, resp)


# ----------------------------------------------------------------------
# Transforms kept with a generated signal
# ----------------------------------------------------------------------

def _assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 0
    with pytest.raises(ValueError):
        a.flags.writeable = True


def test_kept_transforms_match_fresh_on_corpus_and_pools(pool_specs):
    # Each spec goes through one of the three responses in turn, which
    # keeps this test to a few seconds; the corpus tests above take all
    # three on every TRW spec.
    assert len(pool_specs) > 300
    names = list(_responses_at(1.0))
    for i, doc in enumerate(pool_specs):
        spec = WaveformSpec.from_dict(doc)
        sig = generate(spec)
        kept, fresh = spectrum_of(sig), spectrum_of(_writable_copy(sig))
        assert spectrum_of(sig) is kept
        assert kept.df == fresh.df
        for a, b in ((kept.freqs, fresh.freqs), (kept.values, fresh.values)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), doc
            _assert_read_only(a)
        resp = _responses_at(spec.f_c)[names[i % 3]]
        (row,) = trw_report([("w", spec)], resp, "w")
        ref = _reference_trw_energy(peak_normalized(sig), resp)
        assert row["energy"] == pytest.approx(ref, rel=1e-12, abs=0), doc


def test_writable_signal_keeps_no_transform():
    held = generate(WaveformSpec(family="lfm", T=0.25, f_c=2000.0,
                                 delta_f=200.0))
    resp = _responses_at(2000.0)["nonequalized"]
    own = held.samples.copy()
    # A read-only view of a writable array may still change under it.
    view = own.view()
    view.flags.writeable = False
    for sig in (SampledSignal(own, held.sample_rate, held.t0),
                SampledSignal(view, held.sample_rate, held.t0)):
        before = spectrum_of(sig).values.copy()
        energy = _trw_energy(sig, resp)
        own[: len(own) // 2] = 0.0
        assert np.array_equal(
            spectrum_of(sig).values, spectrum_of(_writable_copy(sig)).values)
        assert not np.array_equal(spectrum_of(sig).values, before)
        assert _trw_energy(sig, resp) != energy
        assert spectrum_of(sig).values.flags.writeable
        own[:] = held.samples


def test_writable_spectrum_keeps_no_table():
    sp = spectrum_of(generate(WaveformSpec(family="lfm", T=0.25, f_c=2000.0,
                                           delta_f=200.0)))
    values = sp.values.copy()
    own = Spectrum(sp.freqs.copy(), values, sp.df)
    # A read-only view of a writable array may still change under it.
    view = values.view()
    view.flags.writeable = False
    for spec in (own, Spectrum(sp.freqs, view, sp.df)):
        before = bandwidth_98(spec, 2000.0)
        assert before == bandwidth_98(sp, 2000.0)
        values[np.abs(spec.freqs - 2000.0) > 20.0] = 0.0
        assert bandwidth_98(spec, 2000.0) < before
        values[:] = sp.values
    assert _cumulative_energy(sp) is _cumulative_energy(sp)


def test_kept_transforms_are_freed_with_their_signal():
    # 50 distinct 16,000-sample specs, each transformed and dropped: only
    # the last two asked for stay, with their transforms, not 50 of them.
    def spec(k):
        return WaveformSpec(family="cw", T=0.5, f_c=2000.0 + k,
                            sample_rate=32000.0)

    resp = _responses_at(2000.0)["nonequalized"]

    def transform(sig):
        sp = spectrum_of(sig)
        bandwidth_98(sp, 2000.0)
        _trw_energy(sig, resp)
        edges, cum, _ = _cumulative_energy(sp)
        return (sig.samples.nbytes + sp.freqs.nbytes + sp.values.nbytes
                + edges.nbytes + cum.nbytes)

    nbytes = transform(generate(spec(-1)))
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(50):
            transform(generate(spec(k)))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 2 * nbytes <= retained < 2.5 * nbytes


def test_design_loop_samples_its_reference_once(monkeypatch):
    # Each candidate is scored against one reference, and no signal is
    # held between reports: the reference stays among the last two specs
    # asked for, so it is sampled once, not once per candidate.
    resp = _responses_at(3000.0)["nonequalized"]
    ref = WaveformSpec(family="lfm", T=0.25, f_c=3000.0, delta_f=300.0,
                       sample_rate=24000.0)
    sampled = []
    sample = waveforms._sample

    def counted(spec):
        sampled.append(spec)
        return sample(spec)

    monkeypatch.setattr(waveforms, "_sample", counted)
    for k in range(5):
        cand = WaveformSpec(family="cw", T=0.25, f_c=3001.0 + k,
                            sample_rate=24000.0)
        rows = trw_report([(f"c{k}", cand), ("ref", ref)], resp, "ref")
        assert rows[0]["error"] is None
    assert sampled.count(ref) == 1
    assert len(sampled) == 6


# ----------------------------------------------------------------------
# Cumulative Simpson rule
# ----------------------------------------------------------------------

def _reference_simpson_intervals(y, h):
    r = h[:-1] / (h[:-1] + h[1:])
    rq = r * (h[:-1] / h[1:])
    return h[:-1] / 6 * (
        (3 - r) * y[:-2] + (3 + rq + r) * y[1:-1] - rq * y[2:]
    )


def _reference_cumulative_simpson(y, x):
    h = np.diff(x)
    ahead = _reference_simpson_intervals(y, h)
    behind = _reference_simpson_intervals(y[::-1], h[::-1])[::-1]
    parts = np.empty(len(h))
    parts[:-1:2] = ahead[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    out = np.zeros(len(y))
    np.cumsum(parts, out=out[1:])
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6, 101, 1000])
def test_cumulative_simpson_matches_two_pass_form(n):
    rng = np.random.default_rng(n)
    uniform = np.linspace(-0.25, 0.25, n)
    unequal = np.cumsum(rng.uniform(0.1, 2.0, n))
    for x in (uniform, unequal):
        y = np.cos(7.0 * x) + rng.standard_normal(n)
        assert np.array_equal(
            _cumulative_simpson(y, x), _reference_cumulative_simpson(y, x)
        )


@pytest.mark.parametrize("name", ["fig6_gsfm", "gsfm_iv_a"])
def test_cumulative_simpson_matches_two_pass_form_on_gsfm(spec_dir, name):
    spec = _load_spec(spec_dir / f"{name}.json")
    sig = generate(spec)
    edges = sig.t0 + np.arange(4 * len(sig) + 1) / (4 * sig.sample_rate)
    for x in (edges, edges[:-1]):
        g = gsfm_if_modulation(spec, x)
        assert np.array_equal(
            _cumulative_simpson(g, x), _reference_cumulative_simpson(g, x)
        )
