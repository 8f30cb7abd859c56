"""Scalar waveform metrics and closed-form spectra.

Covers PAPR, spectral efficiency, 98% bandwidth, Carson rules, energy
efficiency, the SFM/GSFM closed-form spectra, and the SE-vs-PAPR sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .gbf import _series_sum, gbf_coeffs
from .signal_core import (
    ParameterError,
    SampledSignal,
    Spectrum,
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
    band_98: float
    carson_hz: Optional[float]
    energy: float
    tbp: float

    def to_json(self, **kwargs) -> str:
        return json.dumps(asdict(self), **kwargs)


def papr(sig: SampledSignal) -> float:
    """Peak-to-average power ratio of the real signal, in dB."""
    x = sig.samples.real
    mean_p = np.mean(x**2)
    if mean_p == 0:
        raise UndefinedMetricError("PAPR undefined for an all-zero signal")
    return float(10.0 * np.log10(np.max(x**2) / mean_p))


def spectral_efficiency(spec: Spectrum, f_c: float, delta_F: float) -> float:
    """Fraction of energy inside [f_c - dF/2, f_c + dF/2].

    Band edges are handled by fractional-bin trapezoid interpolation of the
    cumulative energy.
    """
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
    # cum[i] is the energy up to the upper edge of bin i-1.
    edges = np.concatenate(
        [[spec.freqs[0] - spec.df / 2], spec.freqs + spec.df / 2]
    )
    total = cum[-1]
    e_lo, e_hi = np.interp([lo, hi], edges, cum)
    return float((e_hi - e_lo) / total)


def bandwidth_98(
    spec: Spectrum, f_c: float, fraction: float = 0.98, tol_hz: float = 0.1
) -> float:
    """Smallest band centered on f_c containing ``fraction`` of the energy."""
    max_df = 2.0 * min(
        f_c - (spec.freqs[0] - spec.df / 2),
        (spec.freqs[-1] + spec.df / 2) - f_c,
    )
    if spectral_efficiency(spec, f_c, max_df) < fraction:
        raise ParameterError(
            "spectrum grid too narrow to reach the requested energy fraction"
        )
    lo, hi = 0.0, max_df
    while hi - lo > tol_hz:
        mid = 0.5 * (lo + hi)
        if spectral_efficiency(spec, f_c, mid) >= fraction:
            hi = mid
        else:
            lo = mid
    return float(hi)


def carson_sfm(delta_f: float, f_m: float) -> float:
    """Carson rule for the SFM: 2 (beta + 1) f_m."""
    if f_m <= 0:
        raise ParameterError("f_m must be positive")
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
    if rho < 1:
        raise ParameterError("rho must be >= 1")
    t_eff = T / 2.0 if symmetry == "even" else T
    return delta_f + 2.0 * alpha * rho * t_eff ** (rho - 1.0)


def closed_spectrum(
    spec: WaveformSpec,
    freqs: np.ndarray,
    model: FourierPhaseModel | None = None,
) -> Spectrum:
    """Bessel-series spectrum of a rectangular sfm or even gsfm spec.

    With :func:`harmonic_series`' pulse, sum_n c_n exp(2j pi f_n t) on
    [ta, tb] with lines f_n = fc_eff + n f0,

        S(f) = T^-1/2 sum_n c_n int_ta^tb exp(2j pi (f_n - f) t) dt,

    the AF's series sum (:func:`sonarwave.gbf._series_sum`) over the one
    interval [ta, tb] with unit right-hand coefficients at ``freqs``, which
    must ascend uniformly with at least 4 points per 1/T.
    """
    betas, f0, fc_eff, ta, tb = harmonic_series(spec, model)
    c = gbf_coeffs(betas)
    freqs = np.asarray(freqs, dtype=float)
    T = spec.T
    if (freqs.ndim != 1 or len(freqs) < 2 or not np.all(np.diff(freqs) > 0)
            or not _is_uniform(freqs)
            or freqs[1] - freqs[0] > 1.0 / (4.0 * T)):
        raise ParameterError(
            "frequency grid must be 1-D, ascending and uniform, with at "
            "least 4 points per 1/T"
        )
    vals = _series_sum(
        c.values, np.ones((1, len(freqs))), fc_eff + f0 * c.orders, freqs,
        np.array([ta]), np.array([tb]),
    )[0]
    return Spectrum(freqs=freqs, values=vals / np.sqrt(T),
                    df=float(freqs[1] - freqs[0]))


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
    if e_w <= 0 or e_ref <= 0:
        raise ParameterError("energies must be positive")
    return float(10.0 * np.log10(e_w / e_ref))


def metrics_report(
    spec: WaveformSpec, band_hz: float | None = None
) -> MetricsReport:
    """Full scalar report for one waveform spec.

    ``band_hz`` sets the SE band; default is the waveform's own numerical
    98% bandwidth.
    """
    sig = generate(spec)
    sp = spectrum_of(sig)
    b98 = bandwidth_98(sp, spec.f_c)
    if band_hz is None:
        band_hz = b98
    carson = None
    if spec.family == "sfm":
        carson = carson_sfm(spec.delta_f, spec.f_m)
    elif spec.family == "gsfm":
        carson = carson_gsfm(
            spec.delta_f, spec.alpha, spec.rho, spec.T, spec.symmetry
        )
    return MetricsReport(
        papr_db=papr(sig),
        se=spectral_efficiency(sp, spec.f_c, band_hz),
        band_98=b98,
        carson_hz=carson,
        energy=sig.energy,
        tbp=sig.duration * b98,
    )


def se_papr_sweep(
    specs: Sequence[tuple[str, WaveformSpec]], band_hz: float | None = None
) -> list[dict]:
    """One (label, family, tbp, papr_db, se) row per spec.

    If ``band_hz`` is not given, the SE band is the 98% bandwidth of the
    first gsfm entry (the comparison protocol: all waveforms measured in
    the gsfm's band).  Per-row failures are recorded, not raised.
    """
    if band_hz is None:
        for _, sp in specs:
            if sp.family == "gsfm":
                band_hz = bandwidth_98(spectrum_of(generate(sp)), sp.f_c)
                break
        if band_hz is None:
            raise ParameterError(
                "no gsfm spec to derive the SE band from; pass band_hz"
            )
    rows = []
    for label, sp in specs:
        row = {"label": label, "family": sp.family, "band_hz": band_hz}
        try:
            sig = generate(sp)
            spectrum = spectrum_of(sig)
            row["papr_db"] = papr(sig)
            row["se"] = spectral_efficiency(spectrum, sp.f_c, band_hz)
            row["error"] = None
            try:
                row["tbp"] = sig.duration * bandwidth_98(spectrum, sp.f_c)
            except ParameterError:
                # Heavy-tailed spectra (untapered phase codes) may not fit
                # 98% of their energy on the grid; SE and PAPR still stand.
                row["tbp"] = None
        except ParameterError as exc:
            row.update(tbp=None, papr_db=None, se=None, error=str(exc))
        rows.append(row)
    return rows
