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
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from sonarwave.ambiguity import (
    _af_rows,
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


def _load(spec_dir, name):
    return WaveformSpec.from_dict(
        json.loads((spec_dir / f"{name}.json").read_text())
    )


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
        new = _af_rows(sig, delays, etas)
        ref = np.array([_resample_af_row(sig, e, delays) for e in etas])
        assert np.max(np.abs(new - ref)) <= RTOL * sig.energy


def test_acf_is_the_exact_autocorrelation(spec_dir):
    # At eta = 1 both kernels interpolate the same discrete autocorrelation.
    sig = generate(_load(spec_dir, "fig6_gsfm"))
    delays = np.linspace(-0.25, 0.25, 2001)
    ref = _resample_af_row(sig, 1.0, delays)
    np.testing.assert_allclose(acf(sig, delays).values, ref / ref.max(),
                               rtol=0, atol=1e-12)


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
