"""Side-by-side check of the gsfm Fourier phase model.

``_reference_gsfm_fourier_coeffs`` is ``gsfm_fourier_coeffs``' adaptive
branch as it stood while the function also took an explicit ``K``, kept
unchanged with the cosine projection it called: one real FFT of the IF's m
midpoints over the whole period [-T/2, T/2].  ``gsfm_fourier_coeffs`` takes
the same projection from the m/2 midpoints of [0, T/2] by a DCT-II, which
rounds differently, so the model must match the reference as follows, on
every even gsfm of ``specs/`` and on drawn specs:

- the same harmonic count K, by the exact length of ``beta_k``;
- each beta_k within ``RTOL`` of max |beta_k|, or of delta_f T / (2 k)
  where that is larger;
- ``center_shift`` within ``RTOL`` times delta_f.

The second scale is the projection's own: beta_k = delta_f T a_k / (2 k)
with |a_k| <= max |g| = 1, and each projection rounds a_k by a few eps of
that.  Where max |beta_k| sits at a high harmonic and the low a_k are near
0, the reference's own rounding alone passes 1e-14 of max |beta_k|: an
rho = 1 spec with 63 whole cycles is one harmonic, a_63 = 1, and the
reference puts 2e-16 at k = 1, 1.3e-14 of max |beta_k|.  On the even gsfm
specs of ``specs/`` and of perfbench's pools (seeds 1-20) the models agree
to 4.3e-16 of max |beta_k|.

This pins today's order rule, fig6's K = 64 included: a new rule has to
change this file openly.  The cases include a spec whose projection takes
more than 65,536 points (C > 1023 cycles) and the rho = 1 case.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonarwave.waveforms import (
    _K_MAX,
    WaveformSpec,
    gsfm_fourier_coeffs,
    gsfm_if_modulation,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

RTOL = 1e-14


def _reference_if_cosine_coeffs(spec, k_max):
    T = spec.T
    m = 1 << max(
        int(np.ceil(np.log2(max(16 * k_max, 64.0 * spec.gsfm_cycles + 64.0)))), 10
    )
    t = -T / 2.0 + (np.arange(m) + 0.5) * T / m
    g = gsfm_if_modulation(spec, t)
    coef = np.fft.rfft(g)
    k = np.arange(len(coef))
    # Midpoint samples start half a bin past -T/2; undo that phase.
    coef = coef * np.exp(1j * np.pi * k * (1.0 - 1.0 / m))
    return 2.0 * coef.real[: k_max + 1] / m


def _reference_gsfm_fourier_coeffs(spec):
    """(beta_k, center_shift) by the adaptive branch."""
    k_max = _K_MAX
    a_all = _reference_if_cosine_coeffs(spec, k_max)
    kk = np.arange(1, k_max + 1)
    beta_all = spec.delta_f * spec.T * a_all[1:] / (2.0 * kk)
    beta_peak = max(np.max(np.abs(beta_all)), 1e-300)
    K = k_max
    floor = max(int(np.ceil(4.0 * spec.gsfm_cycles + 20.0)), 32)
    for cand in (64, 128, 256, 512, 1024, 2048, _K_MAX):
        if cand < floor:
            continue
        tail = np.max(np.abs(beta_all[cand - cand // 10 : cand]))
        if tail < 1e-6 * beta_peak:
            K = cand
            break
    a0 = a_all[0]
    return beta_all[:K], a0 * spec.delta_f / 4.0


def assert_same_model(spec):
    model = gsfm_fourier_coeffs(spec)
    beta_k, center_shift = _reference_gsfm_fourier_coeffs(spec)
    assert len(model.beta_k) == len(beta_k)
    k = np.arange(1, len(beta_k) + 1)
    scale = np.maximum(np.max(np.abs(beta_k)), spec.delta_f * spec.T / (2 * k))
    assert np.all(np.abs(model.beta_k - beta_k) <= RTOL * scale)
    assert abs(model.center_shift - center_shift) <= RTOL * spec.delta_f
    return model


def corpus_even_gsfm():
    out = []
    for path in sorted(SPEC_DIR.rglob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and data.get("family") == "gsfm":
            spec = WaveformSpec.from_dict(data)
            if spec.symmetry == "even":
                out.append(pytest.param(spec, id=str(path.relative_to(SPEC_DIR))))
    return out


@pytest.mark.parametrize("spec", corpus_even_gsfm())
def test_corpus(spec):
    assert_same_model(spec)


def test_fig6_keeps_64_harmonics():
    spec = WaveformSpec.from_dict(
        json.loads((SPEC_DIR / "fig6_gsfm.json").read_text()))
    assert len(assert_same_model(spec).beta_k) == 64


def test_silent_fall_through_to_k_max():
    # From K = 1024 up no last decade is small enough: no error, K_MAX.
    spec = WaveformSpec(family="gsfm", T=0.5, f_c=2000.0, delta_f=500.0,
                        rho=1.5, cycles=200.3)
    assert len(assert_same_model(spec).beta_k) == _K_MAX


def test_projection_beyond_65536_points():
    # 64 C + 64 > 2^16 from C = 1023 on: the projection takes 2^17 points.
    spec = WaveformSpec(family="gsfm", T=1.0, f_c=2e4, delta_f=2000.0,
                        rho=2.0, cycles=1100.0)
    assert 64.0 * spec.gsfm_cycles + 64.0 > 1 << 16
    assert len(assert_same_model(spec).beta_k) == _K_MAX


@pytest.mark.parametrize("T, delta_f, cycles", [
    (0.2, 800.0, 3.0),
    (0.2, 800.0, 17.5),
    # One harmonic, a_63 = 1: the other beta_k are rounding noise.
    (1.3485695574054433, 1.0, 63.0),
])
def test_rho_one(T, delta_f, cycles):
    spec = WaveformSpec(family="gsfm", T=T, f_c=1e5, delta_f=delta_f,
                        rho=1.0, cycles=cycles)
    assert_same_model(spec)


@settings(max_examples=40, deadline=None)
@given(
    T=st.floats(0.002, 2.0),
    delta_f=st.floats(1.0, 2e4),
    rho=st.floats(1.0, 3.5),
    cycles=st.floats(0.5, 300.0),
    by_alpha=st.booleans(),
)
def test_drawn(T, delta_f, rho, cycles, by_alpha):
    spec = WaveformSpec(family="gsfm", T=T, f_c=1e5, delta_f=delta_f, rho=rho,
                        cycles=cycles, symmetry="even")
    if by_alpha:
        spec = WaveformSpec(family="gsfm", T=T, f_c=1e5, delta_f=delta_f,
                            rho=rho, alpha=spec.gsfm_alpha, symmetry="even")
    assert_same_model(spec)

