"""Broadband ambiguity surfaces, zero-Doppler cuts, and closed-form series.

The wideband matched-filter response is

    chi(tau, eta) = sqrt(eta) * integral s(t) conj(s(eta (t + tau))) dt

with Doppler scale eta = (1 + v/c)/(1 - v/c).  Numeric surfaces are computed
row-per-eta by band-limited resampling followed by FFT cross-correlation.
The rectangular SFM and gsfm admit Bessel/generalized-Bessel series closed
forms that this module evaluates through the same coefficient machinery.

The closed form is a double series over Bessel orders (n, m) of terms
g1_n g2_m int exp(2j pi mu_nm t) dt over the support overlap [t1, t2],
where mu_nm = x_n - y_m separates into one frequency per order.  It is
summed by :func:`sonarwave.gbf._series_sum`, the evaluator the closed
spectra share, as one real matrix product per Doppler row.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy.signal import fftconvolve

from .gbf import _CHUNK_BYTES, _series_sum, gbf_coeffs
from .signal_core import ParameterError, SampledSignal, resample_scale
from .waveforms import FourierPhaseModel, WaveformSpec, harmonic_series

DEFAULT_SOUND_SPEED = 1500.0

# Resampling bounds: eta outside this open interval cannot be computed.
_ETA_LO, _ETA_HI = 0.5, 2.0


def doppler_eta(v: float, c: float = DEFAULT_SOUND_SPEED) -> float:
    """Doppler scale for closing speed v: (1 + v/c)/(1 - v/c)."""
    if abs(v) >= c:
        raise ParameterError(f"|v| must be below the sound speed {c}")
    return (1.0 + v / c) / (1.0 - v / c)


def velocity_from_eta(eta, c: float = DEFAULT_SOUND_SPEED):
    """Inverse of doppler_eta: v = c (eta - 1)/(eta + 1)."""
    eta = np.asarray(eta, dtype=float)
    out = c * (eta - 1.0) / (eta + 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AmbiguityCut:
    """One-dimensional slice of an ambiguity surface.

    ``values`` hold peak-normalized magnitude |chi| on the ``axis`` grid
    (delay in seconds, or velocity in m/s for Doppler cuts).
    """

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.axis.shape != self.values.shape:
            raise ParameterError("axis and values must have equal shape")


@dataclass(frozen=True)
class AmbiguitySurface:
    """Peak-normalized |chi|^2 over a delay x Doppler-scale grid."""

    delays: np.ndarray
    dopplers: np.ndarray
    values: np.ndarray
    c: float = DEFAULT_SOUND_SPEED
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "delays", np.asarray(self.delays, dtype=float))
        object.__setattr__(
            self, "dopplers", np.asarray(self.dopplers, dtype=float)
        )
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.dopplers), len(self.delays)):
            raise ParameterError(
                "values must have shape (len(dopplers), len(delays))"
            )

    @property
    def velocities(self) -> np.ndarray:
        return velocity_from_eta(self.dopplers, self.c)

    def delay_cut(self, eta: float = 1.0) -> AmbiguityCut:
        """Magnitude cut along delay at the grid row nearest ``eta``."""
        i = int(np.argmin(np.abs(self.dopplers - eta)))
        mag = np.sqrt(self.values[i])
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
        return AmbiguityCut(axis=self.delays, values=mag)

    def doppler_cut(self, tau: float = 0.0) -> AmbiguityCut:
        """Magnitude cut along velocity at the grid column nearest ``tau``."""
        j = int(np.argmin(np.abs(self.delays - tau)))
        mag = np.sqrt(self.values[:, j])
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
        return AmbiguityCut(axis=self.velocities, values=mag)

    def to_csv(self, path) -> None:
        """Long-format export: one (tau, eta, v, value) row per cell."""
        v = self.velocities
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["tau", "eta", "v", "value"])
            for i, eta in enumerate(self.dopplers):
                for j, tau in enumerate(self.delays):
                    w.writerow(
                        [repr(float(tau)), repr(float(eta)),
                         repr(float(v[i])), repr(float(self.values[i, j]))]
                    )

    def to_binary(self, path) -> None:
        """Little-endian float32 dump with a 32-byte header.

        Header: magic b"AFS1", uint32 n_delays, uint32 n_dopplers, then
        float32 tau_min, tau_max, eta_min, eta_max, c.  Values follow
        row-major (Doppler rows).  The grids are assumed uniform.
        """
        header = struct.pack(
            "<4sIIfffff",
            b"AFS1",
            len(self.delays),
            len(self.dopplers),
            float(self.delays[0]),
            float(self.delays[-1]),
            float(self.dopplers[0]),
            float(self.dopplers[-1]),
            float(self.c),
        )
        assert len(header) == 32
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.values.astype("<f4").tobytes())


def read_binary_surface(path) -> AmbiguitySurface:
    """Read a surface written by :meth:`AmbiguitySurface.to_binary`."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        magic, n_tau, n_eta, t0, t1, e0, e1, c = struct.unpack(
            "<4sIIfffff", header
        )
        if magic != b"AFS1":
            raise ParameterError("not an ambiguity-surface binary file")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if len(data) != n_tau * n_eta:
        raise ParameterError("binary surface payload has the wrong size")
    return AmbiguitySurface(
        delays=np.linspace(t0, t1, n_tau),
        dopplers=np.linspace(e0, e1, n_eta),
        values=data.reshape(n_eta, n_tau).astype(float),
        c=float(c),
    )


def _cross_ambiguity_row(
    sig: SampledSignal, eta: float, delays: np.ndarray
) -> np.ndarray:
    """|chi(tau, eta)| sampled on ``delays`` for one Doppler scale."""
    y = resample_scale(sig, eta)
    fs = sig.sample_rate
    s = sig.samples
    # r[m] = sum_n s[n] conj(y[n + d]) with d = len(y) - 1 - m.
    r = fftconvolve(s, np.conj(y.samples[::-1]))
    d = (len(y.samples) - 1) - np.arange(len(r))
    taus = d / fs + sig.t0 * (1.0 / eta - 1.0)
    mag = np.abs(r) * np.sqrt(eta) / fs
    # taus decreases with m; flip for interpolation.
    return np.interp(delays, taus[::-1], mag[::-1], left=0.0, right=0.0)


def ambiguity_numeric(
    sig: SampledSignal,
    delays,
    etas,
    c: float = DEFAULT_SOUND_SPEED,
) -> AmbiguitySurface:
    """Numeric broadband ambiguity surface (resample + FFT correlation)."""
    delays = np.asarray(delays, dtype=float)
    etas = np.asarray(etas, dtype=float)
    warnings = []
    if np.max(np.abs(delays)) > sig.duration:
        warnings.append(
            "delay grid extends beyond the signal duration; "
            "out-of-support cells are zero"
        )
    mag = np.zeros((len(etas), len(delays)))
    for i, eta in enumerate(etas):
        if not _ETA_LO < eta < _ETA_HI:
            warnings.append(
                f"eta={eta} outside resample bounds "
                f"({_ETA_LO}, {_ETA_HI}); row zeroed"
            )
            continue
        mag[i] = _cross_ambiguity_row(sig, float(eta), delays)
    values = mag**2
    peak = values.max()
    if peak > 0:
        values = values / peak
    return AmbiguitySurface(
        delays=delays,
        dopplers=etas,
        values=values,
        c=c,
        warnings=tuple(warnings),
    )


def acf(sig: SampledSignal, delays) -> AmbiguityCut:
    """Zero-Doppler autocorrelation cut, peak-normalized magnitude."""
    delays = np.asarray(delays, dtype=float)
    mag = _cross_ambiguity_row(sig, 1.0, delays)
    peak = mag.max()
    if peak > 0:
        mag = mag / peak
    return AmbiguityCut(axis=delays, values=mag)


# ----------------------------------------------------------------------
# Closed-form series
# ----------------------------------------------------------------------

# Coefficients below this magnitude are dropped from the double series.
_PRUNE = 1e-8


def _closed_af_points(
    betas: np.ndarray,
    f0: float,
    fc_eff: float,
    ta: float,
    tb: float,
    taus: np.ndarray,
    etas: np.ndarray,
) -> np.ndarray:
    """|chi| at paired (tau, eta) points for a harmonic-phase waveform.

    The waveform model is a rectangular pulse on [ta, tb] with phase
    ``2 pi fc_eff t + sum_k betas[k-1] sin(2 pi k f0 t)``.  Both factors of
    the ambiguity integrand expand in its generalized-Bessel series g_n --
    the Doppler-scaled one shifted in time by tau -- so that

        chi = sqrt(eta) / T * sum_nm g_n g2_m int_t1^t2 exp(2j pi mu_nm t) dt

    with g2_m = conj(g_m) exp(-2j pi f0 eta tau m), over the exact support
    overlap [t1, t2], with mu_nm = x_n - y_m, x_n = fc_eff (1 - eta) + f0 n
    and y_m = f0 eta m.  No narrowband approximation is made, so the series
    is exact up to coefficient truncation; :func:`sonarwave.gbf._series_sum`
    evaluates it.

    Raises :class:`TruncationError` before any allocation when the
    coefficients need orders beyond the truncation rule's cap.
    """
    T = tb - ta
    taus = np.asarray(taus, dtype=float).ravel()
    etas = np.asarray(etas, dtype=float).ravel()
    if not np.all(etas > 0):
        raise ParameterError("Doppler scales eta must be positive")
    c = gbf_coeffs(betas)
    keep = np.abs(c.values) > _PRUNE
    g = c.values[keep]
    orders = c.orders[keep].astype(float)

    # Exact support overlap of s(t) and s(eta (t + tau)).
    t1 = np.maximum(ta, ta / etas - taus)
    t2 = np.minimum(tb, tb / etas - taus)
    length = np.maximum(t2 - t1, 0.0)

    # Delays per batch: the series sum's (delays x orders) arrays stay
    # within the memory bound.
    batch = max(_CHUNK_BYTES // (32 * len(g)), 1)
    out = np.zeros(len(taus))
    for eta in np.unique(etas):
        rows = np.nonzero((etas == eta) & (length > 0))[0]
        x = fc_eff * (1.0 - eta) + f0 * orders
        y = f0 * eta * orders
        for lo in range(0, len(rows), batch):
            sel = rows[lo : lo + batch]
            g2 = np.conj(g) * np.exp(-2j * np.pi * np.outer(taus[sel], y))
            terms = _series_sum(g, g2, x, y, t1[sel], t2[sel])
            out[sel] = np.sqrt(eta) * np.abs(terms.sum(axis=1)) / T
    return out


def _closed_af(spec: WaveformSpec, model: FourierPhaseModel | None, tau, eta):
    """Closed-form |chi| at broadcast (tau, eta) for any closed-form spec."""
    series = harmonic_series(spec, model)
    tau_b, eta_b = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(eta, dtype=float)
    )
    out = _closed_af_points(*series, tau_b.ravel(), eta_b.ravel())
    out = out.reshape(tau_b.shape)
    return float(out) if out.ndim == 0 else out


def sfm_af_closed(spec: WaveformSpec, tau, eta):
    """Bessel-series SFM ambiguity magnitude at (tau, eta), broadcastable."""
    if spec.family != "sfm":
        raise ParameterError("sfm_af_closed requires family sfm")
    return _closed_af(spec, None, tau, eta)


def gsfm_af_closed(
    spec: WaveformSpec, model: FourierPhaseModel | None, tau, eta
):
    """Generalized-Bessel-series gsfm ambiguity magnitude, broadcastable."""
    if spec.family != "gsfm":
        raise ParameterError("gsfm_af_closed requires family gsfm")
    return _closed_af(spec, model, tau, eta)


def closed_af_surface(
    spec: WaveformSpec,
    delays,
    etas,
    c: float = DEFAULT_SOUND_SPEED,
    model: FourierPhaseModel | None = None,
) -> AmbiguitySurface:
    """Full closed-form surface for a rectangular sfm or even gsfm spec."""
    delays = np.asarray(delays, dtype=float)
    etas = np.asarray(etas, dtype=float)
    tt, ee = np.meshgrid(delays, etas)
    values = _closed_af(spec, model, tt, ee) ** 2
    peak = values.max()
    if peak > 0:
        values = values / peak
    return AmbiguitySurface(delays=delays, dopplers=etas, values=values, c=c)


# ----------------------------------------------------------------------
# Surface summary statistics
# ----------------------------------------------------------------------

class WidthResult(NamedTuple):
    """Mainlobe width plus whether the level was actually crossed."""

    width: float
    crossed: bool


def mainlobe_width(cut: AmbiguityCut, level_db: float) -> WidthResult:
    """Width of the contiguous region around the peak above peak - level.

    Levels are magnitude decibels (20 log10).  Crossings are linearly
    interpolated between samples; if the cut never drops below the level
    the full axis span is returned with ``crossed=False``.
    """
    if level_db <= 0:
        raise ParameterError("level_db must be positive")
    v = cut.values
    x = cut.axis
    ip = int(np.argmax(v))
    thresh = v[ip] * 10.0 ** (-level_db / 20.0)

    def cross(direction: int):
        i = ip
        while 0 <= i + direction < len(v) and v[i + direction] >= thresh:
            i += direction
        j = i + direction
        if j < 0 or j >= len(v):
            return x[i], False
        # Linear interpolation between the straddling samples.
        frac = (v[i] - thresh) / (v[i] - v[j])
        return x[i] + frac * (x[j] - x[i]), True

    left, okl = cross(-1)
    right, okr = cross(+1)
    return WidthResult(width=float(abs(right - left)), crossed=okl and okr)


def _mainlobe_bounds(v: np.ndarray, ip: int) -> tuple[int, int]:
    """Indices of the first local minima on either side of the peak."""
    lo = ip
    while lo > 0 and v[lo - 1] <= v[lo]:
        lo -= 1
    hi = ip
    while hi < len(v) - 1 and v[hi + 1] <= v[hi]:
        hi += 1
    return lo, hi


def peak_sidelobe(obj: Union[AmbiguityCut, AmbiguitySurface]) -> float:
    """Largest value outside the mainlobe, in dB below the peak.

    The mainlobe is bounded by the first local minimum in each grid
    direction away from the peak.  Returns ``-inf`` when no sidelobe
    region exists (for example a pure triangle ACF).
    """
    if isinstance(obj, AmbiguityCut):
        v = obj.values
        ip = int(np.argmax(v))
        lo, hi = _mainlobe_bounds(v, ip)
        rest = np.concatenate([v[:lo], v[hi + 1 :]])
        if len(rest) == 0 or rest.max() <= 0:
            return float("-inf")
        return float(20.0 * np.log10(rest.max() / v[ip]))
    vals = obj.values
    i0, j0 = np.unravel_index(int(np.argmax(vals)), vals.shape)
    rlo, rhi = _mainlobe_bounds(vals[i0, :], j0)
    clo, chi = _mainlobe_bounds(vals[:, j0], i0)
    mask = np.ones(vals.shape, dtype=bool)
    mask[clo : chi + 1, rlo : rhi + 1] = False
    rest = vals[mask]
    if len(rest) == 0 or rest.max() <= 0:
        return float("-inf")
    return float(10.0 * np.log10(rest.max() / vals[i0, j0]))


@dataclass(frozen=True)
class FidelityReport:
    """Surface-to-surface comparison summary."""

    width_ratio: float
    psl_delta_db: float
    max_abs_diff: float


def compare_af(a: AmbiguitySurface, b: AmbiguitySurface) -> FidelityReport:
    """Delay mainlobe-width ratio (-3 dB), PSL delta, and max |difference|."""
    if a.values.shape != b.values.shape or not (
        np.allclose(a.delays, b.delays) and np.allclose(a.dopplers, b.dopplers)
    ):
        raise ParameterError("surfaces must share an identical grid")
    wa = mainlobe_width(a.delay_cut(), 3.0).width
    wb = mainlobe_width(b.delay_cut(), 3.0).width
    pa, pb = peak_sidelobe(a), peak_sidelobe(b)
    return FidelityReport(
        width_ratio=float(wa / wb),
        psl_delta_db=float(pa - pb),
        max_abs_diff=float(np.max(np.abs(a.values - b.values))),
    )
