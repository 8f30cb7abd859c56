"""Side-by-side checks of the design-report kernels.

Each kernel below is kept as it was before it stopped repeating work, and
serves as the reference:

- ``_reference_bandwidth_98`` bisects through ``_reference_spectral_efficiency``,
  which rebuilds the cumulative energy on every step.  ``bandwidth_98``
  builds it once and must return the same float (``==``) on every spec of
  ``specs/`` and on drawn specs.
- ``_reference_trw_energy`` is the energy of ``apply_response``'s analytic
  TRW.  ``trw_report`` takes it by Parseval from the filtered half
  spectrum and must agree to 1e-12 relative, for odd and even lengths,
  through both README responses and a zero-ripple one.
- ``_reference_cumulative_simpson`` evaluates every interval looking ahead
  and looking behind and keeps half of each.  ``_cumulative_simpson``
  evaluates only the intervals it keeps and must agree by
  ``np.array_equal``, on odd and even lengths and with unequal steps.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sonarwave.analysis import bandwidth_98
from sonarwave.cli import _load_response, _load_spec
from sonarwave.signal_core import (
    ParameterError,
    SampledSignal,
    Taper,
    spectrum_of,
)
from sonarwave.transducer import (
    _analytic_energy,
    _filtered_half,
    apply_response,
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


def _responses(spec_dir):
    return {
        "nonequalized": _load_response(
            spec_dir / "trw" / "response_nonequalized.json"),
        "equalized": _load_response(
            spec_dir / "trw" / "response_equalized.json"),
        "zero-ripple": make_response(
            "parametric", 110e3, (100e3, 120e3), 0.0),
    }


@pytest.mark.parametrize("response",
                         ["nonequalized", "equalized", "zero-ripple"])
def test_trw_energy_matches_analytic_signal(spec_dir, response):
    resp = _responses(spec_dir)[response]
    for path in sorted((spec_dir / "trw").rglob("*.json")):
        if "family" not in json.loads(path.read_text()):
            continue
        drive = peak_normalized(generate(_load_spec(path)))
        lengths = set()
        for n in (len(drive), len(drive) - 1):
            sig = SampledSignal(drive.samples[:n], drive.sample_rate, drive.t0)
            got = _analytic_energy(*_filtered_half(sig, resp), sig.sample_rate)
            ref = _reference_trw_energy(sig, resp)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
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
