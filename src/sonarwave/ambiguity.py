"""Broadband ambiguity surfaces, zero-Doppler cuts, and closed-form series.

The wideband matched-filter response is

    chi(tau, eta) = sqrt(eta) * integral s(t) conj(s(eta (t + tau))) dt

with Doppler scale eta = (1 + v/c)/(1 - v/c).  Numeric surfaces are computed
in the frequency domain, chi = eta^-1/2 int S(f) conj(S(f/eta))
exp(-2j pi f tau) df: the spectrum once by FFT, each row's scaled spectrum
exactly by a chirp-z transform, and one FFT per row back to delay.  The
rectangular SFM and gsfm admit Bessel/generalized-Bessel series closed
forms that this module evaluates through the same coefficient machinery.

The closed form is a double series over Bessel orders (n, m) of terms
g1_n g2_m int exp(2j pi mu_nm t) dt over the support overlap [t1, t2],
where mu_nm = x_n - y_m separates into one frequency per order.  It is
summed by :func:`sonarwave.gbf._series_sum`, the evaluator the closed
spectra share, as one real matrix product per Doppler row.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .gbf import _CHUNK_BYTES, _series_sum, gbf_coeffs
from .signal_core import (
    ParameterError,
    SampledSignal,
    _is_uniform,
    _write_columns,
)
from .waveforms import FourierPhaseModel, WaveformSpec, harmonic_series

DEFAULT_SOUND_SPEED = 1500.0

# Doppler scales outside this open interval (|v| >= c/3) are not computed:
# their rows are zeroed with a warning.
_ETA_LO, _ETA_HI = 0.5, 2.0

# Share of the |S|^2 energy left outside the band on which each eta != 1
# row takes its scaled spectrum S(f / eta).  Near eta = 1 both factors of
# the AF integrand are spectral tails off that band; even at the (0.5, 2)
# bounds, where the band and its scaled copy barely overlap, the part of
# chi dropped stays below 3e-4 of the peak.  Without it, the 1/f tails of
# a rectangular pulse's spectrum would make every row's chirp-z transform
# span the whole FFT grid.
_BAND_LOSS = 1e-4


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
        n = len(self.delays)
        _write_columns(
            path, "tau,eta,v,value",
            [np.tile(self.delays, len(self.dopplers)),
             np.repeat(self.dopplers, n), np.repeat(self.velocities, n),
             self.values.ravel()],
            "\r\n",
        )

    def to_binary(self, path) -> None:
        """Little-endian float32 dump with a 32-byte header.

        Header: magic, uint32 n_delays, uint32 n_dopplers, then float32
        tau_first, tau_last, eta_first, eta_last, c.  Values follow
        row-major (Doppler rows).  Uniform grids (magic b"AFS1") are read
        back from their ends.  Other grids, such as Doppler scales uniform
        in velocity, get magic b"AFS2" and both axes as float64 between
        the header and the values, so no cell is read back respaced.
        """
        uniform = _is_uniform(self.delays) and _is_uniform(self.dopplers)
        header = struct.pack(
            "<4sIIfffff",
            b"AFS1" if uniform else b"AFS2",
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
            if not uniform:
                axes = np.concatenate([self.delays, self.dopplers])
                fh.write(axes.astype("<f8").tobytes())
            fh.write(self.values.astype("<f4").tobytes())


def read_binary_surface(path) -> AmbiguitySurface:
    """Read a surface written by :meth:`AmbiguitySurface.to_binary`."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) < 32 or header[:4] not in (b"AFS1", b"AFS2"):
            raise ParameterError("not an ambiguity-surface binary file")
        magic, n_tau, n_eta, t0, t1, e0, e1, c = struct.unpack(
            "<4sIIfffff", header
        )
        if magic == b"AFS1":
            delays = np.linspace(t0, t1, n_tau)
            dopplers = np.linspace(e0, e1, n_eta)
        else:
            axes = fh.read(8 * (n_tau + n_eta))
            if len(axes) != 8 * (n_tau + n_eta):
                raise ParameterError("binary surface axes are cut short")
            axes = np.frombuffer(axes, dtype="<f8")
            delays, dopplers = axes[:n_tau], axes[n_tau:]
        data = fh.read()
    if len(data) != 4 * n_tau * n_eta:
        raise ParameterError("binary surface payload has the wrong size")
    data = np.frombuffer(data, dtype="<f4")
    return AmbiguitySurface(
        delays=delays,
        dopplers=dopplers,
        values=data.reshape(n_eta, n_tau).astype(float),
        c=float(c),
    )


def _fast_len(n: int) -> int:
    """Least 2^a 3^b 5^c >= n, a length numpy's FFT handles quickly."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _cis(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase) for real ``phase``, at half the cost of np.exp."""
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
    Each eta != 1 row takes X(f_k / eta) exactly by one chirp-z transform,
    over the band holding all but ``_BAND_LOSS`` of the energy; the eta = 1
    row uses |X|^2 on the whole grid, the exact discrete autocorrelation.
    One FFT of the product gives chi at the sample lags, delayed by
    a (1/eta - 1), which are interpolated onto ``delays``; cells outside a
    row's support are zero.
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
            prod = power
        else:
            prod = np.zeros(nfft, dtype=np.complex128)
            k = np.arange(max(int(np.floor(eta * k_lo)), -half),
                          min(int(np.ceil(eta * k_hi)), nfft - half - 1) + 1)
            if len(k):
                scaled = _czt(sig.samples, k[0] * df / eta, df / eta, len(k),
                              fs)
                prod[k] = x[k] * scaled.conj()
        chi = np.fft.fft(prod)[lags % nfft] * (df / fs**2 / np.sqrt(eta))
        # The eta = 1 row, acf, interpolates |chi| itself, so the cut stays
        # the linear interpolation of the exact discrete autocorrelation.
        chi = np.abs(chi) if eta == 1.0 else chi * demod
        inside = (delays > lo[i]) & (delays < hi[i])
        out[i, inside] = np.abs(
            np.interp(delays[inside], lags / fs + shift[i], chi)
        )
    return out


def _finite_grid(values, name: str) -> np.ndarray:
    """``values`` as a non-empty 1-D float array of finite numbers."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ParameterError(f"{name} must be a non-empty 1-D grid of "
                             "finite numbers")
    return grid


def ambiguity_numeric(
    sig: SampledSignal,
    delays,
    etas,
    c: float = DEFAULT_SOUND_SPEED,
) -> AmbiguitySurface:
    """Numeric broadband ambiguity surface (frequency-domain kernel)."""
    delays = _finite_grid(delays, "delays")
    etas = _finite_grid(etas, "Doppler scales")
    warnings = []
    if np.max(np.abs(delays)) > sig.duration:
        warnings.append(
            "delay grid extends beyond the signal duration; "
            "out-of-support cells are zero"
        )
    ok = (etas > _ETA_LO) & (etas < _ETA_HI)
    for eta in etas[~ok]:
        warnings.append(
            f"eta={eta} outside Doppler bounds "
            f"({_ETA_LO}, {_ETA_HI}); row zeroed"
        )
    mag = np.zeros((len(etas), len(delays)))
    if ok.any():
        mag[ok] = _af_rows(sig, delays, etas[ok])
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
    delays = _finite_grid(delays, "delays")
    mag = _af_rows(sig, delays, np.ones(1))[0]
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
    delays = _finite_grid(delays, "delays")
    etas = _finite_grid(etas, "Doppler scales")
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
