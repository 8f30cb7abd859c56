"""Sampling, tapering, resampling, and spectral primitives, and the one
plain-text writer every CSV and JSON output goes through.

All signals are stored as complex analytic passband time series.  The real
transmitted signal is ``Re{s(t)}`` and is only materialized where a metric
requires it (PAPR, transducer drive).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np


class ParameterError(ValueError):
    """Raised when an operation receives out-of-contract parameters."""


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a finite ``kind`` number; a bool is not one."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _array(value, what: str, dtype=float, ndim: int | None = 1) -> np.ndarray:
    """``value`` as an array of ``dtype``: the one check of the arrays the
    public API takes.

    Refused: a ragged sequence, entries that are not numbers (strings,
    objects, bools), complex entries where ``dtype`` is real and, with
    ``ndim`` given, another number of axes or no entries.  The checks read
    the dtype and shape alone, so an array already of ``dtype`` costs O(1)
    and comes back uncopied; entries are not scanned for finiteness.
    """
    real = np.dtype(dtype).kind != "c"
    try:
        a = np.asarray(value)
        numeric = a.dtype.kind in ("iuf" if real else "iufc")
    except (TypeError, ValueError):  # a ragged nest of sequences
        numeric = False
    if not numeric:
        raise ParameterError(f"{what} must be finite {'real ' * real}numbers")
    if ndim is not None and (a.ndim != ndim or a.size == 0):
        raise ParameterError(f"{what} must be a non-empty {ndim}-D array")
    return a.astype(dtype, copy=False)


def _json_object(data, what: str, known, required=()) -> dict:
    """``data``, refused unless it is a JSON object (a dict) whose keys are
    all in ``known`` and include ``required``."""
    if not isinstance(data, dict):
        raise ParameterError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    for problem, keys in (("unknown", set(data) - set(known)),
                          ("missing", set(required) - set(data))):
        if keys:
            raise ParameterError(f"{problem} {what} field(s): {sorted(keys, key=str)}")
    return data


TaperKind = Literal["rectangular", "tukey", "hann"]
TaperScope = Literal["whole-pulse", "per-chip"]


@dataclass(frozen=True)
class Taper:
    """Amplitude taper description.

    ``shape_param`` is the Tukey cosine-fraction in [0, 1]; 0 degenerates to
    rectangular and 1 to Hann.  ``scope`` selects whether coded waveforms
    taper each chip individually or the whole pulse.
    """

    kind: TaperKind = "rectangular"
    shape_param: float = 0.0
    scope: TaperScope = "whole-pulse"

    def __post_init__(self):
        if self.kind not in ("rectangular", "tukey", "hann"):
            raise ParameterError(f"unknown taper kind {self.kind!r}")
        if not (_is_number(self.shape_param)
                and 0.0 <= self.shape_param <= 1.0):
            raise ParameterError(
                "taper shape_param must be a number in [0, 1], got "
                f"{self.shape_param!r}"
            )
        object.__setattr__(self, "shape_param", float(self.shape_param))
        if self.scope not in ("whole-pulse", "per-chip"):
            raise ParameterError(f"unknown taper scope {self.scope!r}")


@dataclass(frozen=True)
class SampledSignal:
    """Complex analytic passband time series.

    Samples are taken at cell centers ``t0 + (n + 1/2)/sample_rate`` so the
    discrete energy ``sum |s|^2 / sample_rate`` is a midpoint-rule estimate
    of the continuous energy.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "samples", _array(self.samples, "samples", np.complex128))
        if not (_is_number(self.sample_rate) and self.sample_rate > 0):
            raise ParameterError(
                f"sample_rate must be a finite positive number, got "
                f"{self.sample_rate!r}")
        if not _is_number(self.t0):
            raise ParameterError(f"t0 must be a finite number, got {self.t0!r}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        n = np.arange(len(self.samples))
        return self.t0 + (n + 0.5) / self.sample_rate

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)

    def normalized(self) -> "SampledSignal":
        """Unit-energy copy (discrete energy 1 within 1e-9 relative)."""
        e = self.energy
        if e == 0:
            raise ParameterError("cannot normalize an all-zero signal")
        return replace(self, samples=self.samples / np.sqrt(e))

    def scaled(self, factor: complex) -> "SampledSignal":
        return replace(self, samples=self.samples * factor)


@dataclass(frozen=True)
class Spectrum:
    """Uniform frequency grid with complex amplitudes in continuous-FT units.

    Satisfies Parseval against the originating time series:
    ``sum |values|^2 * df`` equals the time-domain energy.
    """

    freqs: np.ndarray
    values: np.ndarray
    df: float

    def __post_init__(self):
        object.__setattr__(self, "freqs", _array(self.freqs, "freqs"))
        object.__setattr__(
            self, "values", _array(self.values, "values", np.complex128))
        if not (_is_number(self.df) and self.df > 0):
            raise ParameterError(
                f"df must be a finite positive number, got {self.df!r}")
        if len(self.freqs) != len(self.values):
            raise ParameterError("freqs and values must have equal length")

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.df)

    def power_db(self, floor_db: float = -300.0) -> np.ndarray:
        """Power in dB relative to the peak bin, clipped below at
        ``floor_db``; an all-zero spectrum has no peak and reads
        ``floor_db`` in every bin."""
        p = np.abs(self.values) ** 2
        ref = p.max()
        if ref == 0:
            return np.full(p.shape, float(floor_db))
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(p / ref)
        return np.maximum(db, floor_db)


def make_taper(taper: Taper, n: int) -> np.ndarray:
    """Return the length-``n`` taper window ``w[n]``.

    Rectangular returns all ones; unit-energy scaling happens at signal
    assembly, not here.
    """
    if n < 2:
        raise ParameterError("taper length must be at least 2")
    alpha = 1.0 if taper.kind == "hann" else taper.shape_param
    if taper.kind == "rectangular" or alpha <= 0.0:
        return np.ones(n)
    if alpha >= 1.0:
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n))
    # Symmetric Tukey: cosine ramps over the first and last
    # floor(alpha (n - 1) / 2) + 1 samples, ones in between.
    width = int(np.floor(alpha * (n - 1) / 2.0))
    w = np.ones(n)
    if width == 0:  # one-sample ramps: the formula below loses w[-1]
        w[[0, -1]] = 0.0
        return w
    x = 2.0 * np.arange(n) / alpha / (n - 1)
    w[: width + 1] = 0.5 * (1.0 + np.cos(np.pi * (-1.0 + x[: width + 1])))
    w[n - width - 1 :] = 0.5 * (
        1.0 + np.cos(np.pi * (-2.0 / alpha + 1.0 + x[n - width - 1 :]))
    )
    return w


# Kaiser beta giving >= 80 dB image rejection for the windowed-sinc kernel.
_KAISER_BETA = 7.857
_I0_BETA = float(np.i0(_KAISER_BETA))
_TAPS = 32
# Output samples per resampling block.  The (block x taps) float temporaries
# are 128 KiB: large enough that the ~90 numpy calls per block of the
# window's I0 cost little beyond their arithmetic, and far below the
# multi-MB arrays that, mapped and page-faulted afresh on every call, once
# cost a quarter of the resampler's time.
_BLOCK = 512
# Cephes' Chebyshev coefficients of exp(-z) I0(z) in z / 2 - 2, 0 <= z <= 8:
# the ones np.i0 evaluates there.
_I0_CHEB = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)


def _kaiser_i0(z: np.ndarray) -> np.ndarray:
    """np.i0(z) for 0 <= z <= 8, bit for bit.

    The same Clenshaw recurrence as np.i0's, exp(z) chbevl(z / 2 - 2),
    with the same operations in the same order, but without the
    ``piecewise`` dispatch and its masked copies.
    """
    t = z / 2.0 - 2
    b0, b1 = np.full_like(z, _I0_CHEB[0]), np.zeros_like(z)
    b2 = np.empty_like(z)
    for c in _I0_CHEB[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(t, b1, out=b0)
        b0 -= b2
        b0 += c
    b0 -= b2
    b0 *= 0.5
    return np.multiply(np.exp(z), b0, out=b0)


def resample_scale(sig: SampledSignal, eta: float) -> SampledSignal:
    """Time-scale a signal: returns y with y(t) = s(eta * t).

    Band-limited interpolation with a 32-tap Kaiser-windowed sinc kernel.
    Output duration is T/eta and energy scales by 1/eta.
    """
    if not 0.5 < eta < 2.0:
        raise ParameterError(f"eta must be in (0.5, 2), got {eta}")
    if eta == 1.0:
        return sig

    fs = sig.sample_rate
    n_in = len(sig.samples)
    n_out = int(round(n_in / eta))
    # Output sample m sits at t = (t0 + (p_m + 1/2)/fs) / eta in output time,
    # i.e. reads fractional input index p_m = (m + 1/2) * eta - 1/2.
    half = _TAPS // 2
    offsets = np.arange(-half + 1, half + 1)  # 32 taps around the fraction
    cutoff = min(1.0, 1.0 / eta)
    padded = np.zeros(n_in + 2 * _TAPS, dtype=np.complex128)
    padded[_TAPS : _TAPS + n_in] = sig.samples
    # windows[b + _TAPS + offsets[0]] is padded[b + _TAPS + offsets], the
    # taps of an output sample based at input b.
    windows = np.lib.stride_tricks.sliding_window_view(padded, _TAPS)
    out = np.empty(n_out, dtype=np.complex128)
    for lo in range(0, n_out, _BLOCK):
        p = (np.arange(lo, min(lo + _BLOCK, n_out)) + 0.5) * eta - 0.5
        base = np.floor(p).astype(int)
        frac = p - base
        # Kernel is evaluated at (offset - frac); cutoff at the lower Nyquist.
        x = offsets[None, :] - frac[:, None]
        kern = cutoff * np.sinc(cutoff * x)
        # frac is in [0, 1], so every tap has |x| / half <= 1 and lies
        # inside the window.
        win_arg = x / half
        win = _kaiser_i0(_KAISER_BETA * np.sqrt(1.0 - win_arg**2))
        win /= _I0_BETA
        kern *= win
        gathered = windows[base + (_TAPS + offsets[0])]
        gathered *= kern
        out[lo : lo + _BLOCK] = np.sum(gathered, axis=1)

    return SampledSignal(samples=out, sample_rate=fs, t0=sig.t0 / eta)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, which is locked too.

    A holder of the view cannot make it writeable again; only a holder of
    ``a`` itself, which owns its memory, could.
    """
    a.flags.writeable = False
    return a.view()


def _locked(a: np.ndarray) -> bool:
    """Whether ``a`` and every array it views are read-only."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def _held(owner, key: str, compute, *arrays):
    """``compute(owner)``, kept with ``owner`` when ``arrays`` are locked.

    ``arrays`` default to a signal's samples.  A transform of a signal that
    ``generate`` hands out, or of its kept spectrum, is computed once and
    lives exactly as long as its owner; one built from a writable array is
    transformed afresh on every call.  The kept values sit in the instance's
    ``__dict__``, not in a dataclass field, so equality, ``repr``,
    ``replace`` and ``fields`` ignore them.
    """
    if not all(map(_locked, arrays or (owner.samples,))):
        return compute(owner)
    held = owner.__dict__.setdefault("_held", {})
    if key not in held:
        held[key] = compute(owner)
    return held[key]


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


def spectrum_of(sig: SampledSignal, nfft: int | None = None) -> Spectrum:
    """Zero-padded FFT spectrum in continuous-FT units.

    The bin values approximate S(f) = integral s(t) exp(-j2 pi f t) dt, so
    the sample-position phase (including t0) is folded in and Parseval holds
    against the time-domain energy.

    At the default ``nfft`` the spectrum of a signal with read-only samples,
    such as every signal ``generate`` returns, is computed once and shared:
    its ``freqs`` and ``values`` are read-only.
    """
    if nfft is None and _locked(sig.samples):
        return _held(sig, "spectrum", _kept_spectrum)
    return _spectrum(sig, nfft)


def _kept_spectrum(sig: SampledSignal) -> Spectrum:
    """The default spectrum of ``sig``, with read-only arrays."""
    sp = _spectrum(sig)
    return replace(sp, freqs=_frozen(sp.freqs), values=_frozen(sp.values))


def _spectrum(sig: SampledSignal, nfft: int | None = None) -> Spectrum:
    """The body of :func:`spectrum_of`: a fresh spectrum on every call."""
    n = len(sig.samples)
    if nfft is None:
        nfft = 1 << max(int(np.ceil(np.log2(n))), 8)
    if nfft < n:
        raise ParameterError(f"nfft ({nfft}) must be >= signal length ({n})")
    fs = sig.sample_rate
    df = fs / nfft
    freqs = np.arange(nfft) * df
    vals = np.fft.fft(sig.samples, nfft) / fs
    # First sample sits at t0 + 0.5/fs, not at t = 0.
    vals *= np.exp(-2j * np.pi * freqs * (sig.t0 + 0.5 / fs))
    return Spectrum(freqs=freqs, values=vals, df=df)


def _is_uniform(grid: np.ndarray) -> bool:
    """Whether a 1-D grid is evenly spaced, to 1e-6 of its step."""
    if len(grid) < 3:
        return True
    even = np.linspace(grid[0], grid[-1], len(grid))
    step = abs(grid[-1] - grid[0]) / (len(grid) - 1)
    return bool(np.max(np.abs(grid - even)) <= 1e-6 * step)


def _write_text(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to stdout if it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_columns(path, header: str, columns, end: str = "\n") -> None:
    """CSV of float columns: ``header``, then each row's values as repr.

    One ``%`` fills a template of every row, so no row is formatted alone.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%r"] * table.shape[1]) + end
    body = row * len(table) % tuple(table.ravel().tolist())
    _write_text(header + end + body, path)
