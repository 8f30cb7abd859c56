"""Side-by-side check of the closed-form AF's per-delay phase sums.

``_phase_sums`` is the former direct sum of ``ambiguity._closed_af_points``:
sum_m w_m exp(j phase_pm) from the cos and sin of the whole (delays x
orders) phase matrix.  ``ambiguity._progression_sums`` takes the same sums
over an arithmetic progression x_m = x0 + h m from baby-step giant-step
phasor tables.  Both round each phase a_p x_m by a few ulp of its size, so
each sum must agree with the oracle to

    ULPS * eps * (1 + max_m |a_p x_m|) * sum_m |w_m|,

in units of sum |w| and of the largest phase.  The cases are no delays,
M = 1, 2, the primes 89 and 1723, complex weights, phases up to 1e5 rad,
and both ends of four Doppler rows of README's fig6 closed AF, against
the former code's own frequency arrays.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sonarwave.ambiguity import _progression_sums
from sonarwave.gbf import gbf_coeffs
from sonarwave.waveforms import WaveformSpec, harmonic_series

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

ULPS = 8
EPS = np.finfo(float).eps


def _phase_sums(phase: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m w_m exp(1j phase_pm) for each row p of the real ``phase``.

    cos and sin of the phases meet the real and imaginary parts of ``w`` in
    one real product: half the work of complex exponentials and a complex
    matrix-vector product.
    """
    p_count = len(phase)
    cs = np.empty((2 * p_count, phase.shape[1]))
    np.cos(phase, out=cs[:p_count])
    np.sin(phase, out=cs[p_count:])
    r = cs @ np.stack([w.real, w.imag], axis=1)
    c, s = r[:p_count], r[p_count:]
    return (c[:, 0] - s[:, 1]) + 1j * (c[:, 1] + s[:, 0])


def _assert_matches(a, x0, h, w, x=None):
    """The tables against the direct sum over ``x`` (by default x0 + h m),
    within the stated bound; returns the worst error in units of it."""
    if x is None:
        x = x0 + h * np.arange(len(w))
    phase = np.outer(a, x)
    ref = _phase_sums(phase, w)
    new = _progression_sums(a, x0, h, w)
    assert new.shape == ref.shape == (len(a),)
    if len(a) == 0:
        return 0.0
    bound = ULPS * EPS * (1.0 + np.max(np.abs(phase), axis=1)) * np.sum(np.abs(w))
    assert np.all(np.abs(new - ref) <= bound)
    return float(np.max(np.abs(new - ref) / bound))


def _weights(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def test_no_delays():
    rng = np.random.default_rng(0)
    _assert_matches(np.zeros(0), -3.0, 0.5, _weights(rng, 40))


@pytest.mark.parametrize("m", [1, 2, 89, 1723])
@pytest.mark.parametrize("largest", [1.0, 1e3, 1e5])
def test_sizes_and_phases(m, largest):
    rng = np.random.default_rng(m)
    x0, h = -173.3, 2.7
    span = max(abs(x0), abs(x0 + h * (m - 1)))
    # Delays of either sign; the largest phase is about ``largest`` rad.
    a = rng.uniform(-1.0, 1.0, 37) * largest / span
    a[0] = largest / span
    _assert_matches(a, x0, h, _weights(rng, m))


def test_real_weights_and_a_zero_delay():
    rng = np.random.default_rng(5)
    a = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, 20)])
    w = rng.standard_normal(347).astype(np.complex128)
    _assert_matches(a, 1e4, -3.1, w)
    # exp(0) = 1 exactly: a zero phase sums the weights.
    np.testing.assert_allclose(
        _progression_sums(np.zeros(1), 1e4, -3.1, w), [np.sum(w)],
        rtol=0, atol=ULPS * EPS * np.sum(np.abs(w)))


def test_fig6_rows():
    """The progressions of each fig6 Doppler row at the delays it sums."""
    spec = WaveformSpec.from_dict(
        json.loads((SPEC_DIR / "fig6_gsfm.json").read_text()))
    betas, f0, fc_eff, ta, tb = harmonic_series(spec)
    orders = gbf_coeffs(betas).orders.astype(float)
    rng = np.random.default_rng(6)
    w = _weights(rng, len(orders))
    taus = np.linspace(-spec.T, spec.T, 101)
    for eta in (1.0, 1.005, 1 / 1.005, 1.02):
        # The fixed end: -2 pi (tau + t) y_m with y_m = f0 eta m.
        t = np.minimum(tb, tb / eta - taus)
        h = f0 * eta
        y = h * orders
        _assert_matches(-2.0 * np.pi * (taus + t), y[0], h, w, y)
        # The moving end: 2 pi t x_m with x_m = fc_eff (1 - eta) + f0 m.
        x = fc_eff * (1.0 - eta) + f0 * orders
        _assert_matches(2.0 * np.pi * t, x[0], f0, w, x)
