"""Side-by-side checks of the closed-form spectrum.

``_direct_spectrum`` sums every (line, frequency) pair of the Bessel series
as an exact sinc term, with no Cauchy split and no singular-pair bypass.
``closed_spectrum`` must reproduce it to 1e-10 of its peak on the README
specs, a nonsymmetric sfm and drawn specs, on grids with frequencies that
sit exactly on lines.  A closed spectrum of a band evaluates only the grid
points covering the band and the lines: its peak must be the whole grid's,
and the rows the CLI writes must be those of the whole-grid evaluation.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sonarwave.analysis import closed_spectrum
from sonarwave.cli import run
from sonarwave.gbf import _SINGULAR, gbf_coeffs
from sonarwave.waveforms import WaveformSpec, generate, harmonic_series

RTOL = 1e-10


def _direct_spectrum(spec, freqs):
    """T^-1/2 sum_n c_n int_ta^tb exp(2j pi (f_n - f) t) dt, term by term."""
    betas, f0, fc_eff, ta, tb = harmonic_series(spec)
    c = gbf_coeffs(betas)
    T = tb - ta
    mu = (fc_eff + f0 * c.orders)[:, None] - freqs[None, :]
    terms = c.values[:, None] * T * np.sinc(T * mu)
    terms *= np.exp(1j * np.pi * (ta + tb) * mu)
    return terms.sum(axis=0) / np.sqrt(T)


def _load(spec_dir, name):
    return WaveformSpec.from_dict(
        json.loads((spec_dir / f"{name}.json").read_text())
    )


def _on_lines_grid(spec, count=801):
    """A grid at 1/(4T) whose points hit the series' lines: df divides f0."""
    _, f0, fc_eff, _, _ = harmonic_series(spec)
    df = f0 / (np.ceil(4.0 * spec.T * f0) + 1.0)
    return fc_eff + df * (np.arange(count) - count // 2)


def _assert_matches_direct(spec, freqs):
    ref = _direct_spectrum(spec, freqs)
    new = closed_spectrum(spec, freqs).values
    _, f0, fc_eff, _, _ = harmonic_series(spec)
    offset = (freqs - fc_eff) / f0
    on_line = np.abs(offset - np.rint(offset)) * f0 < _SINGULAR / spec.T
    assert on_line.any()
    assert np.max(np.abs(new - ref)) <= RTOL * np.max(np.abs(ref))


NONSYMMETRIC_SFM = WaveformSpec(family="sfm", T=0.3, f_c=3000.0,
                                delta_f=420.0, f_m=23.0,
                                symmetry="nonsymmetric")


@pytest.mark.parametrize("name", ["fig5_sfm", "fig6_gsfm"])
def test_readme_specs_match_direct_sum(spec_dir, name):
    spec = _load(spec_dir, name)
    _assert_matches_direct(spec, _on_lines_grid(spec))


def test_nonsymmetric_sfm_matches_direct_sum():
    _assert_matches_direct(NONSYMMETRIC_SFM, _on_lines_grid(NONSYMMETRIC_SFM))


_DRAWN = settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_drawn_specs = st.builds(
    lambda gsfm, T, f_c, tbp, rho, cycles, even: (
        WaveformSpec(family="gsfm", T=T, f_c=f_c, delta_f=tbp / T, rho=rho,
                     cycles=cycles)
        if gsfm else
        WaveformSpec(family="sfm", T=T, f_c=f_c, delta_f=tbp / T,
                     f_m=cycles / T,
                     symmetry="even" if even else "nonsymmetric")
    ),
    gsfm=st.booleans(),
    T=st.floats(0.02, 0.2),
    f_c=st.floats(1000.0, 8000.0),
    tbp=st.floats(5.0, 60.0),
    rho=st.floats(2.0, 2.6),
    cycles=st.floats(3.0, 10.0),
    even=st.booleans(),
)


@_DRAWN
@given(spec=_drawn_specs)
def test_drawn_specs_match_direct_sum(spec):
    _assert_matches_direct(spec, _on_lines_grid(spec))


def _cli_grid(spec):
    """The CLI's closed-spectrum grid: 2^k >= 8 N points over [0, fs)."""
    sig = generate(spec)
    nfft = 1 << int(np.ceil(np.log2(8 * len(sig.samples))))
    return np.arange(nfft) * sig.sample_rate / nfft


def _assert_band_keeps_peak(spec, freqs, band):
    full = closed_spectrum(spec, freqs)
    part = closed_spectrum(spec, freqs, band=band)
    i0 = int(np.searchsorted(freqs, part.freqs[0]))
    assert np.array_equal(part.freqs, freqs[i0 : i0 + len(part.freqs)])
    assert len(part.freqs) < len(freqs)
    peak = np.max(np.abs(full.values))
    assert np.max(np.abs(part.values)) == pytest.approx(peak, rel=1e-12)
    assert part.freqs[np.argmax(np.abs(part.values))] == (
        freqs[np.argmax(np.abs(full.values))]
    )
    rows = (freqs >= band[0]) & (freqs <= band[1])
    kept = (part.freqs >= band[0]) & (part.freqs <= band[1])
    assert np.array_equal(part.freqs[kept], freqs[rows])
    np.testing.assert_allclose(
        10.0 ** (part.power_db()[kept] / 20.0),
        10.0 ** (full.power_db()[rows] / 20.0), rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize("name", ["fig5_sfm", "fig6_gsfm"])
def test_band_holds_whole_grid_peak(spec_dir, name):
    spec = _load(spec_dir, name)
    freqs = _cli_grid(spec)
    for band in [(1500.0, 2500.0), (spec.f_c - 20.0, spec.f_c + 20.0),
                 # Below every line: the peak is outside the band.
                 (100.0, 400.0), (-np.inf, 1000.0),
                 # NaN bounds select no row, as on the whole grid.
                 (np.nan, np.nan)]:
        _assert_band_keeps_peak(spec, freqs, band)


@_DRAWN
@given(spec=_drawn_specs, lo=st.floats(-1.0, 1.0), width=st.floats(0.0, 1.0))
def test_drawn_band_holds_whole_grid_peak(spec, lo, width):
    # Bands anywhere from well below the lines to well above them.
    f_lo = spec.f_c + lo * 2.0 * spec.delta_f
    _assert_band_keeps_peak(spec, _cli_grid(spec),
                            (f_lo, f_lo + width * spec.delta_f))


def test_cli_band_rows_match_whole_grid(spec_dir, tmp_path):
    # The README's closed fig5 call writes the whole grid's rows in the band.
    out = tmp_path / "sfm_spec.csv"
    path = str(spec_dir / "fig5_sfm.json")
    assert run(["spectrum", "--spec", path, "--method", "closed",
                "--fmin", "1500", "--fmax", "2500", "--out", str(out)]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    spec = _load(spec_dir, "fig5_sfm")
    freqs = _cli_grid(spec)
    full = closed_spectrum(spec, freqs)
    rows = (freqs >= 1500.0) & (freqs <= 2500.0)
    assert np.array_equal(got[:, 0], freqs[rows])
    assert got[:, 1].max() == 0.0
    np.testing.assert_allclose(10.0 ** (got[:, 1] / 20.0),
                               10.0 ** (full.power_db()[rows] / 20.0),
                               rtol=0, atol=1e-12)
