"""Side-by-side check of the numeric AF kernel.

``_resample_af_row`` is the former implementation of one row of
``ambiguity_numeric``: it time-scales the signal with the Kaiser-windowed
sinc resampler, cross-correlates with ``scipy.signal.fftconvolve`` and
interpolates |chi| onto the delays.  The frequency-domain kernel must
reproduce it to 1e-3 of the surface peak |chi(0, 1)| (the signal energy)
on the README specs, a Costas code and the untapered 255-chip BPSK, over
the grid of acceptance criterion 4 and over edge grids: delays next to
+-T, a one-sided grid, a delay beyond the support, and Doppler scales next
to the (0.5, 2) bounds.  It must also agree with the closed form on drawn
rectangular sfm and even gsfm specs, keep a far-off delay from growing
its FFT, and give zero rows where there is nothing to correlate.

``_af_rows`` and ``_czt`` below are the frequency-domain kernel before its
arrays moved into one workspace per call and before a row eta_b < 1 was
read from its reciprocal partner eta_a, with the one row rule of today's
kernel: every row, eta = 1 too, interpolates chi demodulated by the
spectral centroid.  The kernel must reproduce them to 1e-12 of the peak
through ``ambiguity_numeric`` and ``acf`` on specs like the benchmark's
af-numeric pool, each folded row against the former kernel's eta_a row
read at -tau / eta_a.  Folded rows must also stay within 1e-3 of
|chi(0, 1)| of the former kernel's own eta_b rows.  On the benchmark's own
af-numeric pools the eta = 1 row must lie within 2e-4 of |chi(0, 1)| of
the closed form.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from sonarwave import ambiguity
from sonarwave.ambiguity import (
    _BAND_LOSS,
    _fast_len,
    acf,
    ambiguity_numeric,
    closed_af_surface,
    doppler_eta,
)
from sonarwave.signal_core import (
    ParameterError,
    SampledSignal,
    Taper,
    resample_scale,
)
from sonarwave.waveforms import WaveformSpec, generate, m_sequence

RTOL = 1e-3


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase) for real ``phase``, as cos + 1j sin.

    Its values are np.exp(1j * phase)'s and it costs about the same.
    """
    out = np.empty(phase.shape, dtype=np.complex128)
    out.real = np.cos(phase)
    out.imag = np.sin(phase)
    return out


def _czt(x: np.ndarray, f_lo: float, df: float, k: int, fs: float):
    """DTFT sum_n x[n] exp(-2j pi f n / fs) at f = f_lo + df * (0 .. k-1).

    Bluestein's chirp-z transform (Rabiner, Schafer & Rader, 1969):
    n m = (n^2 + m^2 - (m - n)^2) / 2 turns the sum into one convolution
    with a chirp, taken by FFTs of a fast length >= len(x) + k - 1.
    """
    n = len(x)
    size = _fast_len(n + k - 1)
    j = np.arange(max(n, k), dtype=float)
    chirp = _cis(-np.pi * (df / fs) * (j * j))
    a = x * _cis(-2.0 * np.pi * (f_lo / fs) * j[:n]) * chirp[:n]
    h = np.zeros(size, dtype=np.complex128)
    h[:k] = chirp[:k].conj()
    h[size - n + 1 :] = chirp[n - 1 : 0 : -1].conj()
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(h))
    return conv[:k] * chirp[:k]


def _af_rows(
    sig: SampledSignal, delays: np.ndarray, etas: np.ndarray
) -> np.ndarray:
    """|chi(tau, eta)| on ``delays`` (columns) for each of ``etas`` (rows).

    In the frequency domain the wideband AF is

        chi(tau, eta) = eta^-1/2 int S(f) conj(S(f / eta)) exp(-2j pi f tau) df

    with S(f) = X(f) exp(-2j pi f a) / fs, X the DTFT of the samples and a
    the time of the first one.  X is taken once by an FFT on the grid
    f_k = k df, k signed (|f| < fs/2, the samples' own band), whose delay
    period 1/df keeps every alias of the delay window off the support.
    Every row forms P_k = X_k conj(X(f_k / eta)): an eta != 1 row takes
    X(f_k / eta) exactly by one chirp-z transform, over the band holding
    all but ``_BAND_LOSS`` of the energy, and the eta = 1 row takes X
    itself on the whole grid.  One FFT of P gives chi at the sample lags,
    delayed by a (1/eta - 1); chi demodulated by the spectral centroid is
    interpolated onto ``delays``.  Cells outside a row's support are zero.
    """
    fs, t0, T = sig.sample_rate, sig.t0, sig.duration
    shift = (t0 + 0.5 / fs) * (1.0 / etas - 1.0)
    # chi(., eta) vanishes outside the support overlap, tau in (lo, hi).
    lo = t0 / etas - t0 - T
    hi = (t0 + T) / etas - t0
    first = np.clip(delays.min(), lo, hi) - shift
    last = np.clip(delays.max(), lo, hi) - shift
    lags = np.arange(
        int(np.floor(first.min() * fs)) - 1, int(np.ceil(last.max() * fs)) + 2
    )
    # One FFT period, in lags, holds the window and the support beyond
    # either end of it, so no alias of chi lands in the window.
    period = max((hi - shift).max() * fs - lags[0],
                 lags[-1] - (lo - shift).min() * fs)
    nfft = _fast_len(max(len(sig), int(np.ceil(period)) + 1))
    df = fs / nfft
    x = np.fft.fft(sig.samples, nfft)
    power = np.abs(x) ** 2
    # Signed bins k in [-half, nfft - half) holding all but _BAND_LOSS.
    half = nfft // 2
    shifted = np.fft.fftshift(power)
    cum = np.cumsum(shifted)
    out = np.zeros((len(etas), len(delays)))
    if cum[-1] == 0:
        return out
    k_lo, k_hi = np.searchsorted(
        cum, [0.5 * _BAND_LOSS * cum[-1], (1.0 - 0.5 * _BAND_LOSS) * cum[-1]]
    ) - half
    # chi carries the carrier: near its nulls |chi| has kinks that linear
    # interpolation misses, while chi shifted down by the spectral
    # centroid is a smooth envelope.
    fbar = df * np.sum(np.arange(-half, nfft - half) * shifted) / cum[-1]
    demod = _cis(2.0 * np.pi * fbar / fs * lags)
    for i, eta in enumerate(etas):
        if eta == 1.0:
            prod = x * x.conj()
        else:
            prod = np.zeros(nfft, dtype=np.complex128)
            k = np.arange(max(int(np.floor(eta * k_lo)), -half),
                          min(int(np.ceil(eta * k_hi)), nfft - half - 1) + 1)
            if len(k):
                scaled = _czt(sig.samples, k[0] * df / eta, df / eta, len(k),
                              fs)
                prod[k] = x[k] * scaled.conj()
        chi = np.fft.fft(prod)[lags % nfft] * (df / fs**2 / np.sqrt(eta))
        chi *= demod
        inside = (delays > lo[i]) & (delays < hi[i])
        out[i, inside] = np.abs(
            np.interp(delays[inside], lags / fs + shift[i], chi)
        )
    return out


def _load(spec_dir, name):
    return WaveformSpec.from_dict(
        json.loads((spec_dir / f"{name}.json").read_text())
    )


def _pool_specs():
    """Specs like the benchmark's af-numeric pool: 2 kHz, T = 0.5 s,
    rectangular sfm and even gsfm over the spec corpus's ranges, a Costas
    code under each taper and the untapered 255-chip BPSK."""
    rng = np.random.default_rng(2)
    specs = []
    for delta_f in rng.uniform(200.0, 648.0, 4):
        specs.append(WaveformSpec(family="sfm", T=0.5, f_c=2000.0,
                                  delta_f=delta_f, f_m=10.0))
    for delta_f, rho, cycles in zip(rng.uniform(200.0, 648.0, 4),
                                    rng.uniform(2.0, 2.55, 4),
                                    rng.uniform(7.0, 15.0, 4)):
        specs.append(WaveformSpec(family="gsfm", T=0.5, f_c=2000.0,
                                  delta_f=delta_f, rho=rho, cycles=cycles,
                                  symmetry="even"))
    for taper, n_chips in ((Taper(), 10), (Taper("tukey", 0.4), 16),
                           (Taper("hann"), 18)):
        specs.append(WaveformSpec(family="costas", T=0.5, f_c=2000.0,
                                  delta_f=400.0, n_chips=n_chips,
                                  taper=taper))
    specs.append(WaveformSpec(family="bpsk", T=0.5, f_c=2000.0,
                              code=m_sequence(8)))
    return specs


@pytest.mark.parametrize(
    "spec", _pool_specs(),
    ids=[f"{s.family}-{i}" for i, s in enumerate(_pool_specs())],
)
def test_workspace_kernel_matches_former_kernel(spec):
    sig = generate(spec)
    T = spec.T
    taus = np.linspace(-T / 2, T / 2, 21)
    # Rows -20 and -10 m/s are read from the 20 and 10 m/s rows.
    etas = np.array([doppler_eta(v) for v in np.linspace(-20.0, 20.0, 5)])
    mag = _read_folded(sig, taus, etas, [(0, 4), (1, 3)])
    ref = mag**2 / np.max(mag**2)
    assert np.max(np.abs(ambiguity_numeric(sig, taus, etas).values - ref)) \
        <= 1e-12
    # acf is the eta = 1 row, here on a finer grid.
    fine = np.linspace(-T, T, 801)
    cut = _af_rows(sig, fine, np.ones(1))[0]
    np.testing.assert_allclose(acf(sig, fine).values, cut / cut.max(),
                               rtol=0, atol=1e-12)


def _read_folded(sig, taus, etas, pairs):
    """The former kernel's |chi| on (taus x etas), with each row b of the
    (b, a) ``pairs`` read from row a at -taus / etas[a].

    The extra delays lie inside the span of ``taus``, so the former kernel
    keeps the lag window and FFT length of ``taus`` alone.
    """
    at = [-taus / etas[a] for _, a in pairs]
    assert all(x.min() >= taus.min() and x.max() <= taus.max() for x in at)
    mag = _af_rows(sig, np.concatenate([taus, *at]), etas)
    n = len(taus)
    out = mag[:, :n]
    for k, (b, a) in enumerate(pairs, start=1):
        out[b] = mag[a, k * n : (k + 1) * n]
    return out


_README = ("fig5_sfm", "fig6_gsfm", "fig2_costas")


@pytest.mark.parametrize("n_tau, n_eta", [(21, 5), (101, 101)])
@pytest.mark.parametrize(
    "spec",
    _pool_specs() + [_load(Path(__file__).resolve().parents[1] / "specs", n)
                     for n in _README],
    ids=[f"{s.family}-{i}" for i, s in enumerate(_pool_specs())]
    + list(_README),
)
def test_folded_rows_match_direct_rows(spec, n_tau, n_eta):
    # The af-numeric and criterion 4 grids: every row below eta = 1 is read
    # from its +v partner, within 1e-3 of |chi(0, 1)| of its own transform.
    sig = generate(spec)
    taus = np.linspace(-spec.T / 2, spec.T / 2, n_tau)
    etas = np.array([doppler_eta(v)
                     for v in np.linspace(-20.0, 20.0, n_eta)])
    folded, partner = ambiguity._reciprocal_partners(etas)
    np.testing.assert_array_equal(folded, np.arange(n_eta // 2))
    np.testing.assert_array_equal(partner, n_eta - 1 - folded)
    new = ambiguity._af_rows(sig, taus, etas)
    ref = _af_rows(sig, taus, etas)
    assert np.max(np.abs(new[folded] - ref[folded])) <= RTOL * sig.energy
    unfolded = np.arange(n_eta // 2, n_eta)
    assert np.max(np.abs(new[unfolded] - ref[unfolded])) \
        <= 1e-12 * sig.energy


_ULP = float(np.spacing(1.25))  # 1 / 0.8 == 1.25 exactly


@pytest.mark.parametrize("etas, pairs", [
    ([0.8, 0.9, 1.0], []),                            # no row above 1
    ([0.8, 1.0], []),                                 # one side only
    ([0.8, 1.25, 1.0, 1.25, 0.8], [(0, 1), (4, 1)]),  # duplicated rows
    ([0.8, 1.0, 1.25 + 2 * _ULP], [(0, 2)]),          # 2 ulp: folds
    ([0.8, 1.0, 1.25 + 3 * _ULP], []),                # 3 ulp: does not
], ids=["below-only", "one-side", "duplicates", "2-ulp", "3-ulp"])
def test_grid_shapes_fold_as_paired(etas, pairs):
    # Each folded row is the former kernel's partner row at -tau / eta_a,
    # every other row the former kernel's own, both to 1e-12.
    sig = generate(_pool_specs()[8])
    taus = np.linspace(-0.25, 0.25, 21)
    etas = np.array(etas)
    new = ambiguity._af_rows(sig, taus, etas)
    ref = _read_folded(sig, taus, etas, pairs)
    assert np.max(np.abs(new - ref)) <= 1e-12 * sig.energy


@pytest.mark.parametrize("spec", [_pool_specs()[i] for i in (0, 4, 8, 11)],
                         ids=["sfm-0", "gsfm-4", "costas-8", "bpsk-11"])
def test_fold_on_one_sided_and_far_delays(spec):
    # A one-sided grid puts the folded points -tau / eta_a outside every
    # row's own lag window, which widens to hold them; a delay beyond the
    # support stays zero in both rows of a pair.
    sig = generate(spec)
    T = spec.T
    etas = np.array([doppler_eta(v) for v in np.linspace(-20.0, 20.0, 5)])
    for taus in (np.linspace(0.1 * T, 0.9 * T, 50),
                 np.array([-0.3 * T, 0.0, 3.0 * T])):
        new = ambiguity._af_rows(sig, taus, etas)
        ref = _af_rows(sig, taus, etas)
        assert np.max(np.abs(new - ref)) <= RTOL * sig.energy
    assert np.all(new[:, 2] == 0.0)


def _resample_af_row(sig, eta, delays):
    """|chi(tau, eta)| on ``delays`` by resampling and FFT correlation."""
    y = resample_scale(sig, eta)
    fs = sig.sample_rate
    # r[m] = sum_n s[n] conj(y[n + d]) with d = len(y) - 1 - m.
    r = fftconvolve(sig.samples, np.conj(y.samples[::-1]))
    d = (len(y.samples) - 1) - np.arange(len(r))
    taus = d / fs + sig.t0 * (1.0 / eta - 1.0)
    mag = np.abs(r) * np.sqrt(eta) / fs
    return np.interp(delays, taus[::-1], mag[::-1], left=0.0, right=0.0)


def _grids(T):
    """Criterion 4's extents, then the edge grids."""
    etas = np.array([doppler_eta(v) for v in (-20.0, -5.0, 0.0, 7.0, 20.0)])
    edge_etas = np.array([0.5001, 0.7, 1.0, 1.5, 1.9999])
    return [
        (np.linspace(-T / 2, T / 2, 101), etas),
        (T * np.array([-1.0 + 1e-9, -0.999, 0.0, 0.9995, 1.0 - 1e-9]),
         etas),
        (np.linspace(0.1 * T, 0.9 * T, 50), etas),
        (np.array([-0.3 * T, 0.0, 3.0 * T]), etas),
        (np.linspace(-T, T, 41), edge_etas),
    ]


@pytest.mark.parametrize("name", ["fig5_sfm", "fig6_gsfm", "fig2_costas",
                                  "bpsk255"])
def test_matches_resampling_kernel(spec_dir, name):
    if name == "bpsk255":
        spec = WaveformSpec(family="bpsk", T=0.5, f_c=2000.0,
                            code=m_sequence(8))
    else:
        spec = _load(spec_dir, name)
    sig = generate(spec)
    for delays, etas in _grids(spec.T):
        new = ambiguity._af_rows(sig, delays, etas)
        ref = np.array([_resample_af_row(sig, e, delays) for e in etas])
        assert np.max(np.abs(new - ref)) <= RTOL * sig.energy


def test_acf_is_the_exact_autocorrelation(spec_dir):
    # At the sample lags both kernels read the same discrete
    # autocorrelation; between them acf interpolates the demodulated chi,
    # the resampling kernel |chi|.
    sig = generate(_load(spec_dir, "fig6_gsfm"))
    fs = sig.sample_rate
    lags = np.arange(-int(0.25 * fs), int(0.25 * fs) + 1) / fs
    ref = _resample_af_row(sig, 1.0, lags)
    np.testing.assert_allclose(acf(sig, lags).values, ref / ref.max(),
                               rtol=0, atol=1e-12)
    delays = np.linspace(-0.25, 0.25, 2001)
    ref = _resample_af_row(sig, 1.0, delays)
    np.testing.assert_allclose(acf(sig, delays).values, ref / ref.max(),
                               rtol=0, atol=RTOL)


_DRAWN = settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@_DRAWN
@given(
    wideband=st.booleans(),
    band=st.floats(0.0, 1.0),
    gsfm=st.booleans(),
    rho=st.floats(2.0, 2.55),
    cycles=st.floats(7.0, 15.0),
    sfm_cycles=st.floats(3.0, 10.0),
    even=st.booleans(),
    v=st.floats(0.5, 25.0),
)
def test_drawn_specs_match_closed_form(wideband, band, gsfm, rho, cycles,
                                       sfm_cycles, even, v):
    # The spec corpus's carriers: 0.5 s at 2 kHz, 5 ms at 110 kHz.
    if wideband:
        T, f_c, delta_f = 0.005, 110000.0, 10000.0 + 10000.0 * band
    else:
        T, f_c, delta_f = 0.5, 2000.0, 200.0 + 448.0 * band
    if gsfm:
        spec = WaveformSpec(family="gsfm", T=T, f_c=f_c, delta_f=delta_f,
                            rho=rho, cycles=cycles)
    else:
        spec = WaveformSpec(family="sfm", T=T, f_c=f_c, delta_f=delta_f,
                            f_m=sfm_cycles / T,
                            symmetry="even" if even else "nonsymmetric")
    taus = np.linspace(-T / 2, T / 2, 21)
    etas = np.array([doppler_eta(x) for x in np.linspace(-v, v, 5)])
    numeric = ambiguity_numeric(generate(spec), taus, etas)
    closed = closed_af_surface(spec, taus, etas)
    diff = np.abs(np.sqrt(numeric.values) - np.sqrt(closed.values))
    assert np.max(diff) < 2e-3


def _af_numeric_fm_pools():
    """(seed, label, spec) for each rectangular sfm and even gsfm spec of
    the benchmark's af-numeric pools, seeds 41, 7 and 1-5."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import specgen
    finally:
        sys.path.remove(str(bench))
    return [(seed, item["label"], WaveformSpec.from_dict(item["spec"]))
            for seed in (41, 7, 1, 2, 3, 4, 5)
            for item in specgen.af_numeric(seed)["specs"]
            if item["spec"]["family"] in ("sfm", "gsfm")]


def test_zero_doppler_row_matches_closed_form():
    # The eta = 1 row interpolates the demodulated chi like every other
    # row.  What is left is linear interpolation's own error, 1.46e-4 of
    # |chi(0, 1)| at worst (seed 7, sfm-0).  Seed 41's gsfm-3 read 1.34e-3
    # when the row interpolated |chi|, and reads 1.32e-5.
    worst = {}
    for seed, label, spec in _af_numeric_fm_pools():
        taus = np.linspace(-spec.T / 2, spec.T / 2, 21)
        numeric = ambiguity_numeric(generate(spec), taus, np.ones(1))
        closed = closed_af_surface(spec, taus, np.ones(1))
        worst[seed, label] = np.max(
            np.abs(np.sqrt(numeric.values) - np.sqrt(closed.values)))
    assert len(worst) == 56
    assert max(worst.values()) < 2e-4
    assert worst[41, "gsfm-3"] < 5e-5


def test_far_delay_keeps_fft_small():
    # The FFT spans the support, not the delay grid: a delay of 1e6 T on a
    # 10 ms CW (480 samples) must not ask for a 1e6 T / (1 / fs) point FFT.
    spec = WaveformSpec(family="cw", T=0.01, f_c=2000.0)
    sig = generate(spec)
    tracemalloc.start()
    try:
        surf = ambiguity_numeric(sig, np.array([0.0, 1e6 * spec.T]),
                                 np.array([1.0, 1.01]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert surf.values[0, 0] == 1.0
    assert np.all(surf.values[:, 1] == 0.0)


def test_zero_signal_gives_zero_surface():
    sig = SampledSignal(samples=np.zeros(64), sample_rate=1000.0)
    surf = ambiguity_numeric(sig, np.linspace(-0.05, 0.05, 5),
                             np.array([0.9, 1.0]))
    assert np.all(surf.values == 0.0)


def test_scaled_band_beyond_nyquist_is_zero():
    # A Hann-tapered CW at 0.45 fs scaled by eta = 1.5 leaves the sampled
    # band: the row has no band to transform and is zero.
    spec = WaveformSpec(family="cw", T=0.5, f_c=2000.0,
                        sample_rate=2000.0 / 0.45, taper=Taper("hann"))
    surf = ambiguity_numeric(generate(spec), np.linspace(-0.1, 0.1, 11),
                             np.array([1.0, 1.5]))
    assert surf.values[0].max() == 1.0
    assert np.all(surf.values[1] == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_grids_rejected(bad):
    sig = generate(WaveformSpec(family="cw", T=0.01, f_c=2000.0))
    with pytest.raises(ParameterError, match="finite"):
        ambiguity_numeric(sig, np.array([0.0, bad]), np.ones(1))
    with pytest.raises(ParameterError, match="finite"):
        ambiguity_numeric(sig, np.zeros(1), np.array([1.0, bad]))
    with pytest.raises(ParameterError, match="finite"):
        acf(sig, np.array([bad, 0.0]))
    sfm = WaveformSpec(family="sfm", T=0.1, f_c=2000.0, delta_f=200.0,
                       f_m=50.0)
    with pytest.raises(ParameterError, match="finite"):
        closed_af_surface(sfm, np.array([0.0, bad]), np.ones(1))
    with pytest.raises(ParameterError, match="finite"):
        closed_af_surface(sfm, np.zeros(1), np.array([1.0, bad]))
    with pytest.raises(ParameterError, match="1-D"):
        closed_af_surface(sfm, np.zeros((2, 2)), np.ones(1))
