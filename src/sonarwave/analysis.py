"""Scalar waveform metrics and closed-form spectra.

Covers PAPR, spectral efficiency, 98% bandwidth, Carson rules, energy
efficiency, the SFM/GSFM closed-form spectra, and the SE-vs-PAPR sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gbf import _SINGULAR, _cauchy_sums, _pair_terms, gbf_coeffs
from .signal_core import (
    ParameterError,
    SampledSignal,
    Spectrum,
    _array,
    _held,
    _is_number,
    _is_uniform,
    spectrum_of,
)
from .waveforms import (
    FourierPhaseModel,
    WaveformSpec,
    generate,
    harmonic_series,
)


class UndefinedMetricError(ParameterError):
    """Raised when a metric is undefined for the given input."""


@dataclass(frozen=True)
class MetricsReport:
    """Scalar metrics for one waveform at a stated analysis band."""

    papr_db: float
    se: float
    band_98: Optional[float]
    carson_hz: Optional[float]
    energy: float
    tbp: Optional[float]


def papr(sig: SampledSignal) -> float:
    """Peak-to-average power ratio of the real signal, in dB."""
    x = sig.samples.real
    mean_p = np.mean(x**2)
    if mean_p == 0:
        raise UndefinedMetricError("PAPR undefined for an all-zero signal")
    return float(10.0 * np.log10(np.max(x**2) / mean_p))


def _cumulative_energy(spec: Spectrum):
    """Bin edges, the energy below each edge, and the total energy.

    ``cum[i]`` is the energy up to the upper edge of bin i - 1.  A band edge
    between two bin edges reads ``cum`` by linear interpolation, which is
    the fractional-bin trapezoid rule.  A read-only spectrum, such as a
    generated signal's, keeps its table.  A total that is zero or not
    finite is refused.
    """
    def table(spec):
        with np.errstate(over="ignore"):  # an overflow is refused below
            cum = np.concatenate(
                [[0.0], np.cumsum(np.abs(spec.values) ** 2) * spec.df])
        if not np.isfinite(cum[-1]):
            raise ParameterError("spectrum energy must be finite")
        if cum[-1] == 0:
            raise UndefinedMetricError("spectrum has zero energy")
        edges = np.concatenate(
            [[spec.freqs[0] - spec.df / 2], spec.freqs + spec.df / 2]
        )
        return edges, cum, cum[-1]

    return _held(spec, "energy_table", table, spec.freqs, spec.values)


def _band_fraction(table, f_c: float, delta_F: float) -> float:
    """Fraction of the energy in [f_c - dF/2, f_c + dF/2] of ``table``."""
    edges, cum, total = table
    e_lo, e_hi = np.interp(
        [f_c - delta_F / 2.0, f_c + delta_F / 2.0], edges, cum
    )
    return float((e_hi - e_lo) / total)


def spectral_efficiency(spec: Spectrum, f_c: float, delta_F: float) -> float:
    """Fraction of energy inside [f_c - dF/2, f_c + dF/2].

    Band edges are handled by fractional-bin trapezoid interpolation of the
    cumulative energy.
    """
    if not (np.isfinite(f_c) and np.isfinite(delta_F)):
        raise ParameterError("f_c and delta_F must be finite")
    if delta_F < 0:
        raise ParameterError("delta_F must be nonnegative")
    table = _cumulative_energy(spec)
    edges = table[0]
    slack = 1e-9 * (abs(spec.freqs[-1]) + spec.df)
    if (
        f_c - delta_F / 2.0 < edges[0] - slack
        or f_c + delta_F / 2.0 > edges[-1] + slack
    ):
        raise ParameterError("band extends outside the spectrum grid")
    return _band_fraction(table, f_c, delta_F)


def bandwidth_98(
    spec: Spectrum, f_c: float, fraction: float = 0.98, tol_hz: float = 0.1
) -> float:
    """Smallest band centered on f_c containing ``fraction`` of the energy.

    Bisects the band width to within ``tol_hz`` on one cumulative-energy
    table.  Raises :class:`UndefinedMetricError` when the whole grid holds
    less than ``fraction``.
    """
    if not 0 < fraction <= 1:
        raise ParameterError("fraction must lie in (0, 1]")
    if not (_is_number(tol_hz) and tol_hz > 0):
        raise ParameterError("tol_hz must be finite and positive")
    table = _cumulative_energy(spec)
    edges = table[0]
    max_df = 2.0 * min(f_c - edges[0], edges[-1] - f_c)
    if not max_df >= 0:
        raise ParameterError("f_c must lie on the spectrum grid")
    if _band_fraction(table, f_c, max_df) < fraction:
        raise UndefinedMetricError(
            "spectrum grid too narrow to reach the requested energy fraction"
        )
    lo, hi = 0.0, max_df
    while hi - lo > tol_hz:
        mid = 0.5 * (lo + hi)
        if _band_fraction(table, f_c, mid) >= fraction:
            hi = mid
        else:
            lo = mid
    return float(hi)


def carson_sfm(delta_f: float, f_m: float) -> float:
    """Carson rule for the SFM: 2 (beta + 1) f_m."""
    if not (_is_number(delta_f) and _is_number(f_m) and f_m > 0):
        raise ParameterError(
            f"need a finite delta_f and f_m > 0, got {delta_f!r}, {f_m!r}")
    beta = delta_f / (2.0 * f_m)
    return 2.0 * (beta + 1.0) * f_m


def carson_gsfm(
    delta_f: float, alpha: float, rho: float, T: float, symmetry: str = "even"
) -> float:
    """Carson rule for the gsfm: delta_f + 2 alpha rho T_eff^(rho-1).

    T_eff is T for the nonsymmetric support and T/2 for even symmetry
    (where |t| peaks at T/2); both conventions are exposed because the
    nonsymmetric one is the only one derived cleanly.
    """
    args = (delta_f, alpha, rho, T)
    if not (all(map(_is_number, args)) and rho >= 1 and T > 0):
        raise ParameterError("need finite delta_f and alpha, rho >= 1 and "
                             f"T > 0, got {args}")
    if symmetry not in ("even", "nonsymmetric"):
        raise ParameterError(f"unknown symmetry {symmetry!r}")
    t_eff = T / 2.0 if symmetry == "even" else T
    return delta_f + 2.0 * alpha * rho * t_eff ** (rho - 1.0)


# Closed spectra of a band also evaluate the grid out to this many 1/T
# beyond the outermost kept lines, so that they hold the whole grid's peak.
_LINE_MARGIN = 4.0


def closed_spectrum(
    spec: WaveformSpec,
    freqs: np.ndarray,
    model: FourierPhaseModel | None = None,
    band: tuple[float, float] | None = None,
) -> Spectrum:
    """Bessel-series spectrum of a rectangular sfm or even gsfm spec.

    With :func:`harmonic_series`' pulse, sum_n c_n exp(2j pi f_n t) on
    [ta, tb] with lines f_n = fc_eff + n f0,

        S(f) = T^-1/2 sum_n c_n int_ta^tb exp(2j pi (f_n - f) t) dt
             = T^-1/2 [(u(tb) - u(ta)) / 2j + exact],

    with u_m(t) = sum_n c_n exp(2j pi f_n t) C_nm exp(-2j pi f_m t) and the
    Cauchy kernel C_nm = 1 / (pi (f_n - f_m)), applied once by
    :func:`sonarwave.gbf._cauchy_sums`; frequencies within ``_SINGULAR`` / T
    of a line take that line's term as an exact sinc.  ``freqs`` must
    ascend uniformly with at least 4 points per 1/T.

    With ``band = (lo, hi)`` only the contiguous grid points covering the
    band and the line span, widened by ``_LINE_MARGIN`` / T, are evaluated
    and returned: they hold the whole grid's peak, so ``power_db`` reads
    the same there as on the whole grid.
    """
    betas, f0, fc_eff, ta, tb = harmonic_series(spec, model)
    c = gbf_coeffs(betas)
    freqs = _array(freqs, "frequency grid")
    T = spec.T
    if (len(freqs) < 2 or not np.all(np.diff(freqs) > 0)
            or not _is_uniform(freqs)
            or freqs[1] - freqs[0] > 1.0 / (4.0 * T)):
        raise ParameterError(
            "frequency grid must be ascending and uniform, with at least 4 "
            "points per 1/T"
        )
    df = float(freqs[1] - freqs[0])
    lines = fc_eff + f0 * c.orders
    if band is not None:
        margin = _LINE_MARGIN / T
        lo = np.fmin(band[0], lines[0] - margin)
        hi = np.fmax(band[1], lines[-1] + margin)
        freqs = freqs[np.searchsorted(freqs, lo):
                      np.searchsorted(freqs, hi, side="right")]
    ends = np.array([tb, ta])
    near = _SINGULAR / T
    u = _cauchy_sums(lines, freqs, near,
                     c.values * np.exp(2j * np.pi * np.outer(ends, lines)))
    u *= np.exp(-2j * np.pi * np.outer(ends, freqs))
    vals = (u[0] - u[1]) / 2j
    for m, terms in _pair_terms(c.values, lines, freqs, near,
                                np.array([ta]), np.array([tb])):
        np.add.at(vals, m, terms[0])
    return Spectrum(freqs=freqs, values=vals / np.sqrt(T), df=df)


def sfm_spectrum_closed(spec: WaveformSpec, freqs: np.ndarray) -> Spectrum:
    """Bessel-series SFM spectrum on the given frequency grid."""
    if spec.family != "sfm":
        raise ParameterError("sfm_spectrum_closed requires family sfm")
    return closed_spectrum(spec, freqs)


def gsfm_spectrum_closed(
    spec: WaveformSpec,
    freqs: np.ndarray,
    model: FourierPhaseModel | None = None,
) -> Spectrum:
    """Generalized-Bessel-series gsfm spectrum on the given grid."""
    if spec.family != "gsfm":
        raise ParameterError("gsfm_spectrum_closed requires family gsfm")
    return closed_spectrum(spec, freqs, model)


def energy_efficiency(e_w: float, e_ref: float) -> float:
    """10 log10(E_w / E_ref)."""
    if not all(_is_number(e) and e > 0 for e in (e_w, e_ref)):
        raise ParameterError(
            f"energies must be finite and positive, got {e_w!r}, {e_ref!r}")
    return float(10.0 * np.log10(e_w / e_ref))


def metrics_report(
    spec: WaveformSpec, band_hz: float | None = None
) -> MetricsReport:
    """Full scalar report for one waveform spec.

    ``band_hz`` sets the SE band; default is the waveform's own numerical
    98% bandwidth.  With ``band_hz`` given, a 98% bandwidth the grid cannot
    hold leaves ``band_98`` and ``tbp`` None; without it the SE has no band
    and :class:`UndefinedMetricError` is raised.
    """
    sig = generate(spec)
    sp = spectrum_of(sig)
    try:
        b98 = bandwidth_98(sp, spec.f_c)
    except UndefinedMetricError:
        if band_hz is None:
            raise
        b98 = None
    carson = None
    if spec.family == "sfm":
        carson = carson_sfm(spec.delta_f, spec.f_m)
    elif spec.family == "gsfm":
        carson = carson_gsfm(
            spec.delta_f, spec.gsfm_alpha, spec.rho, spec.T, spec.symmetry
        )
    return MetricsReport(
        papr_db=papr(sig),
        se=spectral_efficiency(
            sp, spec.f_c, b98 if band_hz is None else band_hz
        ),
        band_98=b98,
        carson_hz=carson,
        energy=sig.energy,
        tbp=None if b98 is None else sig.duration * b98,
    )


def se_papr_sweep(
    specs: Sequence[tuple[str, WaveformSpec]], band_hz: float | None = None
) -> list[dict]:
    """One (label, family, tbp, papr_db, se) row per spec.

    If ``band_hz`` is not given, the SE band is the 98% bandwidth of the
    first gsfm entry (the comparison protocol: all waveforms measured in
    the gsfm's band).  Each row is :func:`metrics_report`'s at that band;
    per-row failures are recorded, not raised, but a given ``band_hz``
    that is not a finite nonnegative number is refused before any row.
    """
    if band_hz is None:
        gsfm = next((sp for _, sp in specs if sp.family == "gsfm"), None)
        if gsfm is None:
            raise ParameterError(
                "no gsfm spec to derive the SE band from; pass band_hz"
            )
        band_hz = metrics_report(gsfm).band_98
    elif not (_is_number(band_hz) and band_hz >= 0):
        raise ParameterError(
            f"band_hz must be a finite nonnegative number, got {band_hz!r}")
    rows = []
    for label, sp in specs:
        row = {"label": label, "family": sp.family, "band_hz": band_hz}
        try:
            rep = metrics_report(sp, band_hz)
            row.update(tbp=rep.tbp, papr_db=rep.papr_db, se=rep.se, error=None)
        except ParameterError as exc:
            row.update(tbp=None, papr_db=None, se=None, error=str(exc))
        rows.append(row)
    return rows
