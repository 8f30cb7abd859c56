"""Broadband ambiguity surfaces, zero-Doppler cuts, and closed-form series.

The wideband matched-filter response is

    chi(tau, eta) = sqrt(eta) * integral s(t) conj(s(eta (t + tau))) dt

with Doppler scale eta = (1 + v/c)/(1 - v/c).  Numeric surfaces are computed
in the frequency domain, chi = eta^-1/2 int S(f) conj(S(f/eta))
exp(-2j pi f tau) df: the spectrum once by FFT, each row's scaled spectrum
exactly by a chirp-z transform, and one FFT per row back to delay.  Both
AF paths fold their points first (:func:`_folded`) and take one transform
or kernel per distinct folded Doppler row.  Every row, the zero-Doppler
row of :func:`acf` too, is exact at the sample lags and interpolates chi
demodulated by the spectral centroid between them.  The rectangular SFM
and gsfm admit Bessel/generalized-Bessel series closed forms that this
module evaluates through the same coefficient machinery.

The closed form is a double series over Bessel orders (n, m) of terms
g1_n g2_m int exp(2j pi mu_nm t) dt over the support overlap [t1, t2],
where mu_nm = x_n - y_m separates into one frequency per order.  Its
Cauchy kernel 1 / (pi mu_nm) is applied once per distinct folded Doppler
row by :func:`sonarwave.gbf._cauchy_sums`, the routine the closed spectra
share: by one FFT convolution on the eta = 1 row, where x = y, and in
tiles on the others.  A series spanning whole periods of its fundamental
(every even gsfm, and an sfm with whole f_m T) hands it one real vector,
complex rows and columns otherwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .gbf import (
    _SINGULAR,
    _TILE,
    _cauchy_sums,
    _pair_terms,
    gbf_coeffs,
)
from .signal_core import (
    ParameterError,
    SampledSignal,
    _array,
    _fast_len,
    _is_number,
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


def _check_sound_speed(c) -> None:
    """Refuse a sound speed that is not a finite, positive number."""
    if not _is_number(c) or c <= 0:
        raise ParameterError(
            f"sound speed c must be finite and positive, got {c!r}")


def doppler_eta(v: float, c: float = DEFAULT_SOUND_SPEED) -> float:
    """Doppler scale for closing speed v: (1 + v/c)/(1 - v/c)."""
    _check_sound_speed(c)
    if not _is_number(v):
        raise ParameterError(f"velocity v must be a finite number, got {v!r}")
    if abs(v) >= c:
        raise ParameterError(f"|v| must be below the sound speed {c}")
    return (1.0 + v / c) / (1.0 - v / c)


def velocity_from_eta(eta, c: float = DEFAULT_SOUND_SPEED):
    """Inverse of doppler_eta: v = c (eta - 1)/(eta + 1)."""
    _check_sound_speed(c)
    eta = _array(eta, "Doppler scales eta", ndim=None)
    with np.errstate(all="ignore"):
        out = c * (eta - 1.0) / (eta + 1.0)
    if not np.all(np.isfinite(out)):
        raise ParameterError(
            f"velocities c (eta - 1)/(eta + 1) must be finite (c = {c})")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AmbiguityCut:
    """One-dimensional slice of an ambiguity surface.

    ``values`` hold magnitude |chi| on the ``axis`` grid (delay in seconds,
    or velocity in m/s for Doppler cuts), in units of |chi(0, 1)|: a cut of
    a surface keeps the surface's normalizer (and its warning on a grid
    that does not span the origin), and :func:`acf` divides by the signal's
    energy.  A cut that misses the origin therefore peaks below 1.
    """

    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", _array(self.axis, "cut axis"))
        object.__setattr__(self, "values", _array(self.values, "cut values"))
        if self.axis.shape != self.values.shape:
            raise ParameterError("axis and values must have equal shape")


@dataclass(frozen=True)
class AmbiguitySurface:
    """Peak-normalized |chi|^2 over a delay x Doppler-scale grid.

    ``warnings`` says what the values cannot show, such as zeroed rows or
    a grid that does not span the origin (0, 1).
    """

    delays: np.ndarray
    dopplers: np.ndarray
    values: np.ndarray
    c: float = DEFAULT_SOUND_SPEED
    warnings: tuple = ()

    def __post_init__(self):
        _check_sound_speed(self.c)
        for k, ndim in (("delays", 1), ("dopplers", 1), ("values", 2)):
            object.__setattr__(self, k, _array(getattr(self, k), k, ndim=ndim))
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
        return AmbiguityCut(axis=self.delays, values=np.sqrt(self.values[i]))

    def doppler_cut(self, tau: float = 0.0) -> AmbiguityCut:
        """Magnitude cut along velocity at the grid column nearest ``tau``."""
        j = int(np.argmin(np.abs(self.delays - tau)))
        return AmbiguityCut(axis=self.velocities,
                            values=np.sqrt(self.values[:, j]))

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

        Header: magic b"AFS2", uint32 n_delays, uint32 n_dopplers, then
        float32 tau_first, tau_last, eta_first, eta_last, c.  Both axes
        follow as float64, so no cell is read back respaced, then the
        values row-major (Doppler rows).  :func:`read_binary_surface` also
        reads the older b"AFS1" files, which held a uniform grid by its
        float32 ends alone.
        """
        ends = [float(self.delays[0]), float(self.delays[-1]),
                float(self.dopplers[0]), float(self.dopplers[-1]),
                float(self.c)]
        # The header's float32 must neither overflow nor flush a value to 0.
        with np.errstate(over="ignore"):
            ends32 = np.array(ends, dtype=np.float32)
        kept = np.isfinite(ends32) & ((ends32 == 0) == (np.array(ends) == 0))
        if not np.all(kept):
            raise ParameterError("a grid end or c is beyond the float32 range "
                                 "of the binary header")
        header = struct.pack(
            "<4sIIfffff",
            b"AFS2",
            len(self.delays),
            len(self.dopplers),
            *ends,
        )
        assert len(header) == 32
        with open(path, "wb") as fh:
            fh.write(header)
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


def _cis(phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(1j * phase) for real ``phase``, written into ``out``.

    The values are np.exp(1j * phase)'s, bit for bit, and so is the cost:
    at 16,384 points (numpy 2.4.6) this took 694 us against 659 us.  What
    it saves is the complex temporary.
    """
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _wrapped(n: int, start: int, count: int):
    """(circular, contiguous) slice pairs that cover ``count`` entries of a
    length-``n`` circular buffer from index ``start``, which may be
    negative, against a contiguous run from 0."""
    i, o = start % n, 0
    while o < count:
        m = min(count - o, n - i)
        yield slice(i, i + m), slice(o, o + m)
        i, o = 0, o + m


def _czt(x, f_lo, df, k, fs, ramp, real, chirp, bufs):
    """DTFT sum_n x[n] exp(-2j pi f n / fs) at f = f_lo + df * (0 .. k-1).

    Bluestein's chirp-z transform (Rabiner, Schafer & Rader, 1969):
    n m = (n^2 + m^2 - (m - n)^2) / 2 turns the sum into one convolution
    with a chirp, taken by FFTs of a fast length >= len(x) + k - 1.  Every
    array it uses is the caller's: ``ramp`` holds 0, 1, 2, ..., ``real``
    and ``chirp`` are float and complex scratch, all at least
    max(len(x), k) long, and ``bufs`` are three complex arrays at least the
    FFT length long.  The result is a view into ``bufs[0]``.
    """
    n = len(x)
    size = _fast_len(n + k - 1)
    a, fa, fh = (b[:size] for b in bufs)
    span = max(n, k)
    j, phase, chirp = ramp[:span], real[:span], chirp[:span]
    np.multiply(j, j, out=phase)
    phase *= -np.pi * (df / fs)
    _cis(phase, chirp)
    np.multiply(j[:n], -2.0 * np.pi * (f_lo / fs), out=phase[:n])
    _cis(phase[:n], a[:n])
    a[:n] *= x
    a[:n] *= chirp[:n]
    a[n:] = 0.0
    np.fft.fft(a, out=fa)
    # The conjugate chirp at lags 0 .. k-1 and, wrapped, -(n-1) .. -1.
    np.conjugate(chirp[:k], out=a[:k])
    a[k : size - n + 1] = 0.0
    np.conjugate(chirp[n - 1 : 0 : -1], out=a[size - n + 1 :])
    np.fft.fft(a, out=fh)
    fa *= fh
    np.fft.ifft(fa, out=a)
    a[:k] *= chirp[:k]
    return a[:k]


def _reciprocal_partners(etas: np.ndarray):
    """Rows eta_b < 1 whose reciprocal is within 2 ulp of a row eta_a > 1.

    Returns the indices of those rows and, for each, the index of the
    first row holding its partner eta_a: the pairing rule of
    :func:`_folded`.  2 ulp, because 1 / doppler_eta(-v) is 1 ulp off
    doppler_eta(v) at some speeds (2.5, 6.5, 7.5 and 25 m/s among them).
    """
    hi = np.nonzero(etas > 1)[0]
    lo = np.nonzero(etas < 1)[0]
    if len(hi) == 0 or len(lo) == 0:
        return lo[:0], lo[:0]
    values, first = np.unique(etas[hi], return_index=True)
    recip = 1.0 / etas[lo]
    j = np.searchsorted(values, recip)
    below, above = np.maximum(j - 1, 0), np.minimum(j, len(values) - 1)
    near = np.where(recip - values[below] <= values[above] - recip,
                    below, above)
    pair = np.abs(recip - values[near]) <= 2 * np.spacing(values[near])
    return lo[pair], hi[first[near[pair]]]


def _folded(taus: np.ndarray, etas: np.ndarray):
    """Copies of ``taus`` and ``etas`` with each reciprocal row folded.

    Since |chi(tau, eta)| = |chi(-eta tau, 1 / eta)| (substitute u =
    eta (t + tau)), a point on a row eta_b < 1 whose reciprocal is within
    2 ulp of a row eta_a > 1 (:func:`_reciprocal_partners`) is moved to
    (-tau / eta_a, eta_a).  A grid symmetric in velocity thus holds about
    half as many distinct rows, and both AF paths take one transform or
    kernel per distinct row; a grid symmetric in eta, such as 0.99:1.01,
    holds no reciprocal pair.  ``etas`` holds one scale per entry of
    ``taus``'s first axis: the points' own scales, or a column of row
    scales against a rows x delays table.
    """
    taus = np.array(taus, dtype=float)
    etas = np.array(etas, dtype=float)
    folded, partner = _reciprocal_partners(etas.ravel())
    taus[folded] = -taus[folded] / etas[partner]
    etas[folded] = etas[partner]
    return taus, etas


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
    interpolated onto ``delays`` and only then taken in magnitude.  Cells
    outside a row's support are zero.

    The rows are folded first (:func:`_folded`), and each distinct folded
    scale takes one chirp-z transform and one FFT, read at every point on
    its rows.  The lag window and the FFT length are sized over every
    row's own delays and its folded points together, so the fold changes
    neither.

    Every array as long as the FFT grid, a chirp-z transform or the lag
    window lives in one workspace, allocated once per call before the row
    loop and sized for the longest chirp-z transform the grid allows; each
    row still takes its own transform length.  Freeing that one block
    raises glibc's mmap threshold to its size, so the next calls of similar
    size take it, and every smaller temporary, from heap pages already
    mapped: about 0 minor page faults a call, against some 2,000 when each
    row allocated its own arrays.
    """
    fs, t0, T = sig.sample_rate, sig.t0, sig.duration
    n = len(sig)
    taus, scales = _folded(
        np.broadcast_to(delays, (len(etas), len(delays))), etas[:, None])
    scales = scales[:, 0]
    # Per-row arrays: the folded rows first, then the rows as given.
    both = np.concatenate([scales, etas])
    shift = (t0 + 0.5 / fs) * (1.0 / both - 1.0)
    # chi(., eta) vanishes outside the support overlap, tau in (lo, hi).
    lo = t0 / both - t0 - T
    hi = (t0 + T) / both - t0
    # The delay window spans each row's folded points and its own delays.
    low = np.append(taus.min(axis=1), np.full(len(etas), delays.min()))
    high = np.append(taus.max(axis=1), np.full(len(etas), delays.max()))
    first = np.clip(low, lo, hi) - shift
    last = np.clip(high, lo, hi) - shift
    # The sample lags l0, l0 + 1, ... around the delay window.
    l0 = int(np.floor(first.min() * fs)) - 1
    count = int(np.ceil(last.max() * fs)) + 2 - l0
    # One FFT period, in lags, holds the window and the support beyond
    # either end of it, so no alias of chi lands in the window.
    period = max((hi - shift).max() * fs - l0,
                 l0 + count - 1 - (lo - shift).min() * fs)
    nfft = _fast_len(max(n, int(np.ceil(period)) + 1))
    df = fs / nfft
    half = nfft // 2
    # Chirp-z buffers, for eta != 1 rows, hold any band the grid allows.
    scaled_rows = bool(np.any(etas != 1.0))
    size = max(nfft, count, _fast_len(n + nfft - 1) if scaled_rows else 0)
    span = max(count, max(n, nfft) if scaled_rows else 0)
    cplx = [nfft, size, size, size, span, count]
    reals = [span, span, count]
    work = np.empty(sum(cplx) + (sum(reals) + 1) // 2, dtype=np.complex128)
    x, row, spec, spare, chirp, demod = _carve(work, cplx)
    ramp, real, lag_t = _carve(work[sum(cplx):].view(float), reals)
    np.cumsum(np.broadcast_to(1.0, span), out=ramp)
    ramp -= 1.0

    np.fft.fft(sig.samples, nfft, out=x)
    # |X|^2 on the signed bins k in [-half, nfft - half).
    shifted, cum = _carve(spec.view(float), [nfft, nfft])
    np.abs(x[nfft - half :], out=shifted[:half])
    np.abs(x[: nfft - half], out=shifted[half:])
    shifted *= shifted
    np.cumsum(shifted, out=cum)
    out = np.zeros((len(etas), len(delays)))
    if cum[-1] == 0:
        return out
    k_lo, k_hi = np.searchsorted(
        cum, [0.5 * _BAND_LOSS * cum[-1], (1.0 - 0.5 * _BAND_LOSS) * cum[-1]]
    ) - half
    # Every row's chi, the eta = 1 row's too, carries the carrier: near its
    # nulls |chi| has kinks that linear interpolation misses, while chi
    # shifted down by the spectral centroid is a smooth envelope.  Summed
    # by parts, sum_k k |X_k|^2 = (nfft - half) E - sum(cum), so no BLAS
    # call wakes a spinning thread.
    fbar = df * (nfft - half - np.sum(cum) / cum[-1])
    np.add(ramp[:count], l0, out=lag_t)
    np.multiply(lag_t, 2.0 * np.pi * fbar / fs, out=real[:count])
    _cis(real[:count], demod)
    lag_t /= fs
    for eta in np.unique(scales):
        rows = np.nonzero(scales == eta)[0]
        k0, scaled = 0, x
        if eta != 1.0:
            k0 = max(int(np.floor(eta * k_lo)), -half)
            k1 = min(int(np.ceil(eta * k_hi)), nfft - half - 1)
            scaled = spare[:0]
            if k1 >= k0:
                scaled = _czt(sig.samples, k0 * df / eta, df / eta,
                              k1 - k0 + 1, fs, ramp, real, chirp,
                              (spare, spec, row))
        row[:nfft] = 0.0
        for ring, run in _wrapped(nfft, k0, len(scaled)):
            np.conjugate(scaled[run], out=row[ring])
            row[ring] *= x[ring]
        np.fft.fft(row[:nfft], out=spec[:nfft])
        chi = spare[:count]
        for ring, run in _wrapped(nfft, l0, count):
            chi[run] = spec[ring]
        chi *= df / fs**2 / np.sqrt(eta)
        chi *= demod
        lags = np.add(lag_t, shift[rows[0]], out=real[:count])
        for i in rows:
            inside = (taus[i] > lo[i]) & (taus[i] < hi[i])
            out[i, inside] = np.abs(np.interp(taus[i, inside], lags, chi))
    return out


def _carve(buf: np.ndarray, sizes) -> list:
    """Consecutive views of ``buf`` with the given lengths."""
    ends = np.cumsum(sizes)
    return [buf[e - m : e] for m, e in zip(sizes, ends)]


def _af_points(delays, etas, ndim=None):
    """``delays`` and Doppler scales ``etas`` as float arrays.

    The one input check of every AF entry point: each delay must be finite,
    and each scale finite and positive.  A surface's axes are non-empty 1-D
    grids (``ndim`` = 1); the point API takes any shape.
    """
    delays = _array(delays, "delays", ndim=ndim)
    etas = _array(etas, "Doppler scales", ndim=ndim)
    if not np.all(np.isfinite(delays)):
        raise ParameterError("delays must be finite numbers")
    if not (np.all(np.isfinite(etas)) and np.all(etas > 0)):
        raise ParameterError("Doppler scales eta must be finite and positive")
    return delays, etas


def _surface(delays, etas, mag, c, warnings=()) -> AmbiguitySurface:
    """The surface of |chi| ``mag``, normalized to its largest cell.

    That cell is the origin (0, 1) only on a grid whose delays span 0 and
    whose Doppler scales span 1; on any other grid a warning says so.
    """
    values = mag**2
    peak = values.max()
    if peak > 0:
        values = values / peak
    if not (delays.min() <= 0.0 <= delays.max()
            and etas.min() <= 1.0 <= etas.max()):
        warnings = [*warnings, "grid does not span tau = 0, eta = 1; values "
                    "are normalized to the grid's own maximum"]
    return AmbiguitySurface(delays=delays, dopplers=etas, values=values, c=c,
                            warnings=tuple(warnings))


def ambiguity_numeric(
    sig: SampledSignal,
    delays,
    etas,
    c: float = DEFAULT_SOUND_SPEED,
) -> AmbiguitySurface:
    """Numeric broadband ambiguity surface (frequency-domain kernel).

    Rows outside the Doppler bounds are zeroed first; the rest are folded
    (:func:`_folded`) and take one transform per distinct row.
    """
    _check_sound_speed(c)
    delays, etas = _af_points(delays, etas, ndim=1)
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
    return _surface(delays, etas, mag, c, warnings)


def acf(sig: SampledSignal, delays) -> AmbiguityCut:
    """Zero-Doppler autocorrelation cut |chi(tau, 1)| / |chi(0, 1)|.

    The cut is the eta = 1 row of :func:`ambiguity_numeric`'s kernel: the
    exact discrete autocorrelation at the sample lags, and between them the
    linear interpolation of chi demodulated by the spectral centroid.  It
    is divided by the signal's energy, which is |chi(0, 1)|, so it reads 1
    at tau = 0 and below 1 on delays that miss it; a zero signal gives 0.
    """
    delays, etas = _af_points(delays, np.ones(1), ndim=1)
    mag = _af_rows(sig, delays, etas)[0]
    energy = sig.energy
    return AmbiguityCut(axis=delays, values=mag / energy if energy else mag)


# ----------------------------------------------------------------------
# Closed-form series
# ----------------------------------------------------------------------

# Coefficients below this magnitude are dropped from the double series.
_PRUNE = 1e-8

# A support counts as a whole number of periods when f0 T is this many ulp
# or fewer from an integer: the roundings of f0 = 1 / T or f_m = cycles / T
# and of the product.
_WHOLE_ULPS = 4


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
    is exact up to coefficient truncation.

    Cauchy split: each integral is (e(t2) - e(t1)) / (2j pi mu_nm), so an
    end t of the overlap contributes sum_nm A_n(t) C_nm R_m(tau + t), with
    A_n(t) = g_n exp(2j pi x_n t), R_m(u) = conj(g_m) exp(-2j pi y_m u) and
    the real kernel C_nm = 1 / (pi mu_nm).  Within one Doppler row each end
    is either a support edge s for a given delay (fixed: A(s) C is the same
    for every delay) or s / eta - tau (moving: tau + t = s / eta, so
    C R(s / eta) is).  With shift = fc_eff (1 - eta), A(s) = exp(2j pi
    shift s) v(s) and R(s / eta) = conj(v(s)) for v_n(s) = g_n exp(2j pi
    f0 n s), a side that does not depend on the row: one call of
    :func:`sonarwave.gbf._cauchy_sums` per row applies the kernel to the
    rows v(tb), v(ta) and to their conjugates as columns.  A whole-period
    series (:func:`_whole_period_spin`) has v(tb) = v(ta) = g spin, one
    real vector, so the kernel takes it as one real row and column.
    Each delay then needs one sum sum_m c_m exp(j a (x0 + h m)) per end
    over orders whose frequencies are an arithmetic progression, which
    :func:`_progression_sums` takes from two tables of about sqrt(M)
    phasors per delay.  The points are folded first (:func:`_folded`),
    so a reciprocal pair of rows costs one kernel, O(N M) whatever the
    number of delays, and the eta = 1 row, where x = y and C is
    Toeplitz, one FFT convolution.  The orders are the
    consecutive range from the first to the last coefficient above
    ``_PRUNE``, with weight 0 on the pruned ones inside it, so both x and y
    are arithmetic progressions.  Pairs with |mu_nm| times the row's longest
    overlap below ``_SINGULAR`` are summed as exact sinc terms instead.

    Raises :class:`TruncationError` before any allocation when the
    coefficients need orders beyond the truncation rule's cap.
    """
    T = tb - ta
    taus, etas = _folded(np.ravel(taus), np.ravel(etas))
    c = gbf_coeffs(betas)
    # The kernel needs consecutive orders: keep the range from the first to
    # the last kept order, with weight 0 on the pruned orders inside it.
    keep = np.abs(c.values) > _PRUNE
    kept = np.nonzero(keep)[0]
    span = slice(kept[0], kept[-1] + 1)
    g = np.where(keep[span], c.values[span], 0.0)
    orders = c.orders[span].astype(float)
    # The kernel's sides v(s) at the ends t2 (at tb) and t1 (at ta): ends
    # picks each end's row of the sides.
    edges = np.array([tb, ta])
    spin = _whole_period_spin(f0, ta, tb, orders)
    if spin is None:
        sides = g * np.exp(2j * np.pi * np.outer(edges, f0 * orders))
        ends = [0, 1]
    else:
        # Real betas have real coefficients: drop the FFT's rounding residue.
        g = g.real + 0j
        sides, ends = (g.real * spin)[None, :], [0, 0]
    gc = np.conj(g)

    # Exact support overlap of s(t) and s(eta (t + tau)).
    t1 = np.maximum(ta, ta / etas - taus)
    t2 = np.minimum(tb, tb / etas - taus)
    length = np.maximum(t2 - t1, 0.0)

    # Delays per batch: delays x orders within one kernel tile, so that a
    # batch's phasor tables (delays x 2 sqrt(orders)) stay smaller still.
    batch = max(_TILE // len(g), 1)
    out = np.zeros(len(taus))
    for eta in np.unique(etas):
        rows = np.nonzero((etas == eta) & (length > 0))[0]
        if len(rows) == 0:
            continue
        shift = fc_eff * (1.0 - eta)
        x = shift + f0 * orders
        h = f0 * eta
        y = h * orders
        # Shared factors of both ends: A(s) C for the delays that find an
        # end at its edge s, C R(s / eta) for the others.
        near = _SINGULAR / np.max(length[rows])
        wc, cw = _cauchy_sums(x, y, near, sides, np.conj(sides).T)
        u = np.exp(2j * np.pi * shift * edges)[:, None] * (wc[ends] * gc)
        v = cw[:, ends] * g[:, None]
        for b0 in range(0, len(rows), batch):
            sel = rows[b0 : b0 + batch]
            tau = taus[sel]
            val = []
            for e, t in enumerate((t2[sel], t1[sel])):
                fixed = t == edges[e]
                at = np.empty(len(sel), dtype=np.complex128)
                at[fixed] = _progression_sums(
                    -2.0 * np.pi * (tau[fixed] + t[fixed]), y[0], h, u[e]
                )
                at[~fixed] = _progression_sums(
                    2.0 * np.pi * t[~fixed], x[0], f0, v[:, e]
                )
                val.append(at)
            chi = (val[0] - val[1]) / 2j
            for m, terms in _pair_terms(g, x, y, near, t1[sel], t2[sel]):
                terms *= np.exp(-2j * np.pi * np.outer(tau, y[m]))
                terms *= gc[m]
                chi += np.sum(terms, axis=1)
            out[sel] = np.sqrt(eta) * np.abs(chi) / T
    return out


def _whole_period_spin(f0, ta, tb, orders):
    """exp(2j pi f0 n ta), +-1 at each order n, for a whole-period series.

    A series is whole-period when [ta, tb] spans a whole number of periods
    1 / f0 (to ``_WHOLE_ULPS``): every even gsfm, and an sfm whose f_m T is
    whole.  Otherwise None.  The identity behind it also needs real betas
    and a start ta on a half period; every :func:`harmonic_series` series
    has both, since its betas are real and its 2 f0 ta is 0 or exactly
    -f0 T.
    """
    cycles = f0 * (tb - ta)
    if abs(cycles - np.rint(cycles)) > _WHOLE_ULPS * np.spacing(cycles):
        return None
    return 1.0 - 2.0 * (np.rint(2.0 * f0 * ta) * orders % 2.0)


def _progression_sums(
    a: np.ndarray, x0: float, h: float, w: np.ndarray
) -> np.ndarray:
    """sum_m w_m exp(1j a_p (x0 + h m)), m = 0..M-1, for each entry a_p.

    Baby-step giant-step tables: with m = b q + r and b = ceil(sqrt(M)),
    each sum is sum_q exp(1j a_p h b q) sum_r w_(b q + r) exp(1j a_p (x0 +
    h r)).  So b + ceil(M / b) phasors per a_p and one matrix product
    replace the cos and sin of M phases, on any set of a_p.  Every table
    phase is at most twice max_m |a_p (x0 + h m)| and rounded a few times,
    so each sum stays within a few ulp of that phase times sum |w|, as the
    direct sum does.
    """
    b = int(np.ceil(np.sqrt(len(w))))
    q_count = -(-len(w) // b)
    wq = np.zeros((q_count, b), dtype=np.complex128)
    wq.flat[: len(w)] = w
    phase = np.outer(a, np.concatenate([x0 + h * np.arange(b),
                                        (h * b) * np.arange(q_count)]))
    tables = _cis(phase, np.empty(phase.shape, dtype=np.complex128))
    baby, giant = tables[:, :b], tables[:, b:]
    return np.einsum("pq,pq->p", giant, baby @ wq.T)


def _closed_af(spec: WaveformSpec, model: FourierPhaseModel | None, tau, eta):
    """Closed-form |chi| at broadcast (tau, eta) for any closed-form spec."""
    tau_b, eta_b = np.broadcast_arrays(*_af_points(tau, eta))
    series = harmonic_series(spec, model)
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
    """Full closed-form surface for a rectangular sfm or even gsfm spec.

    The rows are folded (:func:`_folded`) and take one Cauchy kernel per
    distinct row.
    """
    _check_sound_speed(c)
    delays, etas = _af_points(delays, etas, ndim=1)
    tt, ee = np.meshgrid(delays, etas)
    return _surface(delays, etas, _closed_af(spec, model, tt, ee), c)


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
    if not (_is_number(level_db) and level_db > 0):
        raise ParameterError(
            f"level_db must be finite and positive, got {level_db!r}")
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
